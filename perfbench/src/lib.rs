//! The repository benchmark: four seeded workloads driven through the
//! public APIs of `congest-net`, `qle`, `classical-baselines` and
//! `sim-harness`, reporting end-to-end metrics from untraced passes and
//! per-layer metrics from traced ones. `README.md` beside this crate
//! describes the workloads, the metrics and how to read a traced run.

pub mod alloc;
mod fault_sweep;
mod flood;
pub mod host;
mod inputs;
mod measure;
mod paper_le;
mod spans;
mod stats;

use std::collections::BTreeMap;

use congest_net::{Phase, TelemetryReport};

pub use inputs::Scale;
pub use measure::{run, Config, Outcome};

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's protocols against their classical baselines.
    PaperLe,
    /// Flood on a long cycle: thousands of nearly empty rounds.
    SparseFlood,
    /// Flood on a hypercube and an expander: few, full rounds.
    DenseFlood,
    /// A generated scenario matrix with faults and schedulers.
    FaultSweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperLe,
        Workload::SparseFlood,
        Workload::DenseFlood,
        Workload::FaultSweep,
    ];

    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperLe => "paper-le",
            Workload::SparseFlood => "sparse-flood",
            Workload::DenseFlood => "dense-flood",
            Workload::FaultSweep => "fault-sweep",
        }
    }

    /// Resolves a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// A human-readable summary of the inputs `seed` generates.
    #[must_use]
    pub fn describe_inputs(self, seed: u64, scale: Scale) -> String {
        match self {
            Workload::PaperLe => format!("{:?}", inputs::PaperLeInputs::generate(seed, scale)),
            Workload::SparseFlood => {
                format!("{:?}", inputs::SparseFloodInputs::generate(seed, scale))
            }
            Workload::DenseFlood => {
                format!("{:?}", inputs::DenseFloodInputs::generate(seed, scale))
            }
            Workload::FaultSweep => {
                format!("{:?}", inputs::FaultSweepInputs::generate(seed, scale))
            }
        }
    }

    /// The workload whose traced pass measures the per-layer metric `name`
    /// when the workload under test does not reach that layer.
    #[must_use]
    pub(crate) fn home_of(name: &str) -> Workload {
        if name.starts_with("runtime.") {
            Workload::SparseFlood
        } else if name.starts_with("fault.")
            || name.starts_with("event.")
            || name.starts_with("harness.")
            || name.starts_with("classical.ghs-le.")
        {
            Workload::FaultSweep
        } else {
            Workload::PaperLe
        }
    }
}

/// A metric's name and unit.
pub(crate) type MetricSpec = (&'static str, &'static str);

/// The end-to-end metrics, printed by every untraced run.
pub const END_TO_END: [MetricSpec; 7] = [
    ("wall_s", "s"),
    ("sim_msgs_per_s", "msgs/s"),
    ("sim_rounds_per_s", "rounds/s"),
    ("run_ms_mean", "ms"),
    ("run_ms_tail", "ms"),
    ("peak_heap_mb", "MB"),
    ("setup_s", "s"),
];

/// The protocols with per-protocol layer metrics: `(layer, protocol)`.
pub(crate) const PROTOCOL_LAYERS: [(&str, &str); 7] = [
    ("qle", "quantum-le"),
    ("qle", "quantum-rw-le"),
    ("qle", "quantum-qw-le"),
    ("classical", "kpp-complete-le"),
    ("classical", "kpp-mixing-le"),
    ("classical", "cpr-d2-le"),
    ("classical", "ghs-le"),
];

/// The per-protocol metric suffixes and units.
pub(crate) const PROTOCOL_METRICS: [MetricSpec; 4] = [
    ("run_ms", "ms"),
    ("self_ms", "ms"),
    ("peak_heap_mb", "MB"),
    ("alloc_mb", "MB"),
];

/// The per-layer metrics other than the per-protocol ones.
pub(crate) const LAYER_METRICS: [MetricSpec; 23] = [
    ("topology.build_ms", "ms"),
    ("graph.port_ns.implicit", "ns"),
    ("graph.port_ns.csr", "ns"),
    ("network.barrier_ms", "ms"),
    ("network.barrier_calls", "count"),
    ("network.barrier_ns_per_msg", "ns"),
    ("network.peak_msgs_per_round", "count"),
    ("runtime.step_us_p50", "us"),
    ("runtime.step_us_tail", "us"),
    ("runtime.steps", "count"),
    ("runtime.node_step_ms", "ms"),
    ("runtime.allocs_per_step", "count"),
    ("fault.judge_ms", "ms"),
    ("event.scheduler_ms", "ms"),
    ("harness.parse_ms", "ms"),
    ("harness.expand_ms", "ms"),
    ("harness.cell_ms_sum", "ms"),
    ("harness.pool_util", "fraction"),
    ("harness.serialize_ms", "ms"),
    ("harness.trace_bytes", "bytes"),
    ("harness.trace_parse_ms", "ms"),
    ("harness.compare_ms", "ms"),
    ("bench.trace_overhead_s", "s"),
];

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
#[must_use]
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = LAYER_METRICS
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .collect();
    for (layer, protocol) in PROTOCOL_LAYERS {
        for (suffix, unit) in PROTOCOL_METRICS {
            all.push((format!("{layer}.{protocol}.{suffix}"), unit));
        }
    }
    all
}

/// Whether `name` is a valid metric or workload name: a letter or digit,
/// then at most 63 letters, digits, `_`, `.` and `-`.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One run unit — a protocol run, a flood or a scenario cell — as a pass
/// measured it.
#[derive(Debug, Clone, Default)]
pub(crate) struct Unit {
    /// Host nanoseconds of this unit alone.
    pub nanos: u64,
    /// Simulated messages, classical plus quantum.
    pub messages: u64,
    /// Simulated effective rounds.
    pub rounds: u64,
    /// The simulated statistics in canonical text form; repeats of the same
    /// input must reproduce it exactly.
    pub stats: String,
    /// Why the unit failed (`Err` from the program or a broken output
    /// check), if it did.
    pub error: Option<String>,
    /// Whether the unit's problem was solved (an election with one leader,
    /// a flood or cell that reached every node). Protocols in
    /// constant-success mode may legitimately fail, so this is reported,
    /// not counted as a failure.
    pub solved: bool,
}

/// What one pass over a workload's inputs measured.
#[derive(Debug, Clone, Default)]
pub(crate) struct Pass {
    /// Host nanoseconds of the set-up: topology generation, spec parse and
    /// expand, network or runtime construction.
    pub setup_nanos: u64,
    /// Host nanoseconds of the timed phase.
    pub wall_nanos: u64,
    /// Peak live heap bytes during the timed phase, above the bytes live
    /// when the pass began: the benchmark's own records of earlier passes
    /// grow with the number of passes and are left out.
    pub peak_heap: u64,
    /// The pass's run units.
    pub units: Vec<Unit>,
    /// Per-layer readings (traced passes only).
    pub layers: BTreeMap<String, f64>,
}

impl Pass {
    /// Simulated messages of the whole pass.
    #[must_use]
    pub fn messages(&self) -> u64 {
        self.units.iter().map(|u| u.messages).sum()
    }

    /// Simulated effective rounds of the whole pass.
    #[must_use]
    pub fn rounds(&self) -> u64 {
        self.units.iter().map(|u| u.rounds).sum()
    }
}

/// A workload's pass over one input slot. The pass is traced — spans kept,
/// telemetry sidecar on, layer readings filled in — iff `spans` is enabled.
pub(crate) trait Bench {
    /// Runs one pass over input `slot`.
    fn pass(&mut self, slot: usize, spans: &mut spans::Spans) -> Pass;
}

/// Builds the workload's pass runner for `seed`.
#[must_use]
pub(crate) fn bench_for(workload: Workload, seed: u64, scale: Scale) -> Box<dyn Bench> {
    match workload {
        Workload::PaperLe => Box::new(paper_le::PaperLe::new(seed, scale)),
        Workload::SparseFlood => Box::new(flood::SparseFlood::new(seed, scale)),
        Workload::DenseFlood => Box::new(flood::DenseFlood::new(seed, scale)),
        Workload::FaultSweep => Box::new(fault_sweep::FaultSweep::new(seed, scale)),
    }
}

/// Sums of the telemetry sidecar's network readings over several runs.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NetworkLayer {
    /// Nanoseconds per telemetry phase.
    pub phase_nanos: [u64; Phase::COUNT],
    /// Barriers run.
    pub barriers: u64,
    /// Messages sent.
    pub messages: u64,
    /// The busiest round's messages.
    pub peak_msgs_per_round: u64,
}

impl NetworkLayer {
    /// Adds one run's sidecar report.
    pub fn absorb(&mut self, report: &TelemetryReport, peak_msgs_per_round: u64) {
        for (sum, add) in self.phase_nanos.iter_mut().zip(report.wall.phase_nanos) {
            *sum += add;
        }
        self.barriers += report.wall.phase_rounds[Phase::BarrierMerge.index()];
        self.messages += report.deterministic.messages;
        self.peak_msgs_per_round = self.peak_msgs_per_round.max(peak_msgs_per_round);
    }

    /// Writes the `network.*` readings.
    pub fn record(&self, layers: &mut BTreeMap<String, f64>) {
        let barrier = self.phase_nanos[Phase::BarrierMerge.index()];
        layers.insert("network.barrier_ms".into(), barrier as f64 / 1e6);
        layers.insert("network.barrier_calls".into(), self.barriers as f64);
        layers.insert(
            "network.barrier_ns_per_msg".into(),
            barrier as f64 / self.messages.max(1) as f64,
        );
        layers.insert(
            "network.peak_msgs_per_round".into(),
            self.peak_msgs_per_round as f64,
        );
    }
}

/// One protocol run as the `qle.*` and `classical.*` metrics see it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ProtocolRun {
    /// Host nanoseconds of the call.
    pub nanos: u64,
    /// Nanoseconds of it the telemetry sidecar put in network phases.
    pub network_nanos: u64,
    /// What the call allocated.
    pub usage: alloc::Usage,
}

/// Writes `<key>.{run_ms,self_ms,peak_heap_mb,alloc_mb}`, each the median
/// over `runs`. Self time is run time minus the network phases.
pub(crate) fn record_protocol_runs(
    layers: &mut BTreeMap<String, f64>,
    key: &str,
    runs: &[ProtocolRun],
) {
    if runs.is_empty() {
        return;
    }
    let median =
        |f: fn(&ProtocolRun) -> f64| stats::median(&runs.iter().map(f).collect::<Vec<_>>());
    layers.insert(format!("{key}.run_ms"), median(|r| r.nanos as f64 / 1e6));
    layers.insert(
        format!("{key}.self_ms"),
        median(|r| r.nanos.saturating_sub(r.network_nanos) as f64 / 1e6),
    );
    layers.insert(
        format!("{key}.peak_heap_mb"),
        median(|r| r.usage.peak_rise as f64 / 1e6),
    );
    layers.insert(
        format!("{key}.alloc_mb"),
        median(|r| r.usage.alloc_bytes as f64 / 1e6),
    );
}

/// Host nanoseconds per `neighbor` plus `edge_id` call pair over a seeded
/// sample of `(node, port)` pairs of `graph`.
#[must_use]
pub(crate) fn port_probe_ns(graph: &congest_net::Graph, seed: u64) -> f64 {
    const PAIRS: usize = 1 << 16;
    const ROUNDS: usize = 16;
    let mut rng = inputs::Rng::new(seed, "port-probe", 0);
    let n = graph.node_count();
    let pairs: Vec<(usize, usize)> = (0..PAIRS)
        .map(|_| {
            let v = rng.below(n);
            (v, rng.below(graph.degree(v)))
        })
        .collect();
    let start = std::time::Instant::now();
    let mut acc = 0usize;
    for _ in 0..ROUNDS {
        for &(v, p) in std::hint::black_box(&pairs) {
            acc ^= graph.neighbor(v, p) ^ graph.edge_id(v, p);
        }
    }
    std::hint::black_box(acc);
    spans::nanos(start.elapsed()) as f64 / (PAIRS * ROUNDS) as f64
}
