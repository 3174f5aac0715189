//! `sparse-flood` and `dense-flood`: Flood through `SyncRuntime`, the pure
//! round-engine load. Each flood is checked: every node ends with the token
//! and every node announced once on every port, so the run sent exactly one
//! message per directed edge.

use congest_net::programs::Flood;
use congest_net::{topology, Graph, NetworkConfig, Phase, SyncRuntime};

use crate::inputs::{DenseFloodInputs, Scale, SparseFloodInputs};
use crate::spans::{nanos, Spans};
use crate::{alloc, stats, Bench, NetworkLayer, Pass, Unit};

/// A flood whose runtime is built (set-up) but not yet started.
struct Prepared {
    label: &'static str,
    /// The source, or the list of sources, as the statistics print them.
    source: String,
    directed_edges: u64,
    max_rounds: u64,
    runtime: SyncRuntime<Flood>,
}

fn prepare(label: &'static str, graph: &Graph, sources: &[usize], traced: bool) -> Prepared {
    let mut runtime = SyncRuntime::new(
        graph.clone(),
        NetworkConfig::with_seed(sources[0] as u64),
        |v, _| Flood::new(sources.contains(&v)),
    );
    if traced {
        runtime.enable_telemetry();
    }
    Prepared {
        label,
        source: match sources {
            [source] => source.to_string(),
            _ => format!("{sources:?}"),
        },
        directed_edges: graph.directed_edge_count() as u64,
        // A flood ends after eccentricity + 1 rounds; n + 2 is a safe cap.
        max_rounds: graph.node_count() as u64 + 2,
        runtime,
    }
}

/// Per-layer readings gathered over a traced pass's floods.
#[derive(Default)]
struct RuntimeLayer {
    step_nanos: Vec<f64>,
    step_allocs: u64,
    network: NetworkLayer,
}

impl RuntimeLayer {
    fn record(&self, pass: &mut Pass) {
        self.network.record(&mut pass.layers);
        let steps = self.step_nanos.len();
        let layers = &mut pass.layers;
        if steps > 0 {
            layers.insert(
                "runtime.step_us_p50".into(),
                stats::median(&self.step_nanos) / 1e3,
            );
            layers.insert(
                "runtime.step_us_tail".into(),
                stats::tail(&self.step_nanos).0 / 1e3,
            );
        }
        layers.insert("runtime.steps".into(), steps as f64);
        layers.insert(
            "runtime.node_step_ms".into(),
            self.network.phase_nanos[Phase::NodeStep.index()] as f64 / 1e6,
        );
        layers.insert(
            "runtime.allocs_per_step".into(),
            self.step_allocs as f64 / steps.max(1) as f64,
        );
    }
}

/// Runs one prepared flood. Traced, it times every `step` from outside and
/// harvests the telemetry sidecar into `layer`.
fn run(mut p: Prepared, spans: &mut Spans, layer: &mut RuntimeLayer) -> Unit {
    let traced = spans.enabled();
    let (result, unit_nanos) = spans.time(
        || format!("flood:{}", p.label),
        |_| {
            if !traced {
                return p.runtime.run_until_halt(p.max_rounds);
            }
            // `run_until_halt`, unrolled so each step is timed.
            p.runtime.start()?;
            let mut rounds = 1;
            let allocs = alloc::snapshot().allocs;
            while rounds < p.max_rounds && !p.runtime.all_halted() {
                let start = std::time::Instant::now();
                p.runtime.step()?;
                layer.step_nanos.push(nanos(start.elapsed()) as f64);
                rounds += 1;
            }
            layer.step_allocs += alloc::snapshot().allocs - allocs;
            Ok(rounds)
        },
    );
    let label = p.label;
    let rounds = match result {
        Ok(rounds) => rounds,
        Err(e) => {
            return Unit {
                nanos: unit_nanos,
                error: Some(format!("flood {label} source={}: {e}", p.source)),
                ..Unit::default()
            }
        }
    };
    let metrics = p.runtime.metrics();
    if let Some(report) = p.runtime.take_telemetry() {
        layer
            .network
            .absorb(&report, metrics.peak_messages_per_round);
    }
    let covered = p.runtime.programs().iter().all(Flood::has_token);
    let messages = metrics.total_messages();
    let error = if !covered {
        Some(format!(
            "flood {label} source={}: some node never got the token",
            p.source
        ))
    } else if messages != p.directed_edges {
        Some(format!(
            "flood {label} source={}: {messages} messages on {} directed edges",
            p.source, p.directed_edges
        ))
    } else {
        None
    };
    Unit {
        nanos: unit_nanos,
        messages,
        rounds,
        stats: format!(
            "flood {label} source={} rounds={rounds} {metrics:?}",
            p.source
        ),
        error,
        solved: covered,
    }
}

/// Runs a pass's prepared floods in order and assembles the pass. `base` is
/// the live heap when the pass began.
fn run_all(
    prepared: Vec<Prepared>,
    setup_nanos: u64,
    base: u64,
    spans: &mut Spans,
) -> (Pass, RuntimeLayer) {
    let mut pass = Pass {
        setup_nanos,
        ..Pass::default()
    };
    let mut layer = RuntimeLayer::default();
    let window = alloc::reset_peak();
    for p in prepared {
        let unit = run(p, spans, &mut layer);
        pass.wall_nanos += unit.nanos;
        pass.units.push(unit);
    }
    pass.peak_heap = alloc::usage_since(window).peak.saturating_sub(base);
    (pass, layer)
}

/// The `sparse-flood` pass runner: one flood from several sources on the
/// cycle per pass.
pub struct SparseFlood {
    inputs: SparseFloodInputs,
}

impl SparseFlood {
    /// The runner for `seed`.
    #[must_use]
    pub fn new(seed: u64, scale: Scale) -> Self {
        SparseFlood {
            inputs: SparseFloodInputs::generate(seed, scale),
        }
    }
}

impl Bench for SparseFlood {
    fn pass(&mut self, slot: usize, spans: &mut Spans) -> Pass {
        let base = alloc::snapshot().live;
        let traced = spans.enabled();
        let sources = &self.inputs.sources[slot];
        let ((cycle, topology_nanos, prepared), setup_nanos) = spans.time(
            || "setup".into(),
            |spans| {
                let (cycle, topology_nanos) = spans.time(
                    || "topology".into(),
                    |_| topology::cycle(self.inputs.n).expect("cycle"),
                );
                let prepared = vec![prepare("cycle", &cycle, sources, traced)];
                (cycle, topology_nanos, prepared)
            },
        );
        let (mut pass, layer) = run_all(prepared, setup_nanos, base, spans);
        if traced {
            layer.record(&mut pass);
            pass.layers
                .insert("topology.build_ms".into(), topology_nanos as f64 / 1e6);
            let seed = sources[0] as u64;
            let csr = cycle.materialize();
            pass.layers.insert(
                "graph.port_ns.implicit".into(),
                crate::port_probe_ns(&cycle, seed),
            );
            pass.layers
                .insert("graph.port_ns.csr".into(), crate::port_probe_ns(&csr, seed));
        }
        pass
    }
}

/// The `dense-flood` pass runner: one flood on the implicit hypercube and
/// several on a CSR expander per pass.
pub struct DenseFlood {
    inputs: DenseFloodInputs,
}

impl DenseFlood {
    /// The runner for `seed`.
    #[must_use]
    pub fn new(seed: u64, scale: Scale) -> Self {
        DenseFlood {
            inputs: DenseFloodInputs::generate(seed, scale),
        }
    }
}

impl Bench for DenseFlood {
    fn pass(&mut self, slot: usize, spans: &mut Spans) -> Pass {
        let base = alloc::snapshot().live;
        let traced = spans.enabled();
        let inputs = &self.inputs;
        let ((graphs, topology_nanos, prepared), setup_nanos) = spans.time(
            || "setup".into(),
            |spans| {
                let (graphs, topology_nanos) = spans.time(
                    || "topology".into(),
                    |_| {
                        let cube = topology::hypercube(inputs.hypercube_dim).expect("hypercube");
                        let expander = topology::random_regular(
                            inputs.expander_n,
                            inputs.expander_degree,
                            inputs.expander_seeds[slot],
                        )
                        .expect("expander");
                        (cube, expander)
                    },
                );
                let (cube, expander) = &graphs;
                let mut prepared = vec![prepare(
                    "hypercube",
                    cube,
                    &[inputs.hypercube_sources[slot]],
                    traced,
                )];
                for &source in &inputs.expander_sources[slot] {
                    prepared.push(prepare("expander", expander, &[source], traced));
                }
                (graphs, topology_nanos, prepared)
            },
        );
        let (mut pass, layer) = run_all(prepared, setup_nanos, base, spans);
        if traced {
            layer.record(&mut pass);
            pass.layers
                .insert("topology.build_ms".into(), topology_nanos as f64 / 1e6);
            let seed = inputs.expander_seeds[slot];
            pass.layers.insert(
                "graph.port_ns.implicit".into(),
                crate::port_probe_ns(&graphs.0, seed),
            );
            pass.layers.insert(
                "graph.port_ns.csr".into(),
                crate::port_probe_ns(&graphs.1, seed),
            );
        }
        pass
    }
}
