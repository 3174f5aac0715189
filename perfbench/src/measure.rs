//! The measuring loop: passes over a workload's input slots until the run
//! time is spent, the output checks, and the metrics.
//!
//! An untraced run (`trace = false`) makes only untraced passes and reports
//! the end-to-end metrics. A traced run alternates untraced and traced
//! passes over the same slots, reports the per-layer metrics and the
//! tracing overhead, and takes the layers its workload does not reach from
//! one traced pass of that layer's home workload.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::inputs::{Scale, SLOTS};
use crate::spans::Spans;
use crate::{bench_for, per_layer_metrics, stats, Pass, Workload, END_TO_END};

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// The workload seed every input is generated from.
    pub seed: u64,
    /// How long to keep making passes.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The problem sizes.
    pub scale: Scale,
}

/// What a run measured and checked.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Whether every output check passed.
    pub correct: bool,
    /// Run units attempted.
    pub attempted: u64,
    /// Run units that failed an output check.
    pub failed: u64,
    /// The reported metrics: name, value, unit.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
    /// The traced passes' spans as JSON lines (empty when untraced).
    pub spans_jsonl: String,
}

/// Digests recorded for each workload seed at `Scale::Full`, one
/// `workload seed digest` triple per line.
const RECORDED: &str = include_str!("../digests.txt");

/// The recorded digest of `workload` at `seed`, if any.
#[must_use]
fn recorded_digest(workload: Workload, seed: u64) -> Option<u64> {
    RECORDED.lines().find_map(|line| {
        let mut it = line.split_whitespace();
        let (w, s, d) = (it.next()?, it.next()?, it.next()?);
        (w == workload.name() && s.parse() == Ok(seed))
            .then(|| u64::from_str_radix(d, 16).ok())
            .flatten()
    })
}

/// FNV-1a over the statistics lines.
#[must_use]
fn digest(lines: &[String]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for line in lines {
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// A timed pass and the input slot it ran.
type SlotPass = (usize, Pass);

/// Output checks across passes.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failures: Vec<String>,
    /// Each slot's statistics from its first untraced pass.
    first: BTreeMap<usize, Vec<String>>,
    repeats: u64,
    traced_matches: u64,
    solved: u64,
}

impl Checks {
    /// Counts `pass`'s units, failing those with an error and those whose
    /// statistics differ from `expected`'s, line by line.
    fn count(&mut self, pass: &Pass, expected: Option<&[String]>, traced: bool) {
        for (i, unit) in pass.units.iter().enumerate() {
            self.attempted += 1;
            self.solved += u64::from(unit.solved);
            if let Some(e) = &unit.error {
                self.failures.push(e.clone());
            } else if let Some(want) = expected.and_then(|e| e.get(i)) {
                if *want != unit.stats {
                    let what = if traced { "traced run" } else { "repeat" };
                    self.failures
                        .push(format!("{what} differs: {} != {want}", unit.stats));
                }
            }
        }
        match (expected.is_some(), traced) {
            (true, true) => self.traced_matches += 1,
            (true, false) => self.repeats += 1,
            (false, _) => {}
        }
    }

    /// Checks a pass over `slot` against the slot's first untraced pass, or
    /// records it as that first pass.
    fn check(&mut self, pass: &Pass, slot: usize, traced: bool) {
        let first = self.first.remove(&slot);
        self.count(pass, first.as_deref(), traced);
        let first = first.unwrap_or_else(|| pass.units.iter().map(|u| u.stats.clone()).collect());
        self.first.insert(slot, first);
    }
}

/// Runs the benchmark.
#[must_use]
pub fn run(cfg: &Config) -> Outcome {
    let mut bench = bench_for(cfg.workload, cfg.seed, cfg.scale);
    let mut spans_on = Spans::new(true);
    let mut spans_off = Spans::new(false);
    let mut checks = Checks::default();
    let mut untraced: Vec<SlotPass> = Vec::new();
    let mut traced: Vec<SlotPass> = Vec::new();
    let budget = Duration::from_secs_f64(cfg.seconds);
    // Pass 0 warms the allocator and caches up and is left out of the
    // timings, though its outputs are checked. After it, an untraced run
    // meets every slot at least once and makes at least eleven passes, so
    // the slowest run unit of a pass has eleven samples and the tail
    // percentile (ten runs beyond it) falls among them on every host. A
    // traced run makes at least one untraced/traced pair over one slot.
    let min_timed = if cfg.trace { 2 } else { SLOTS.max(11) };
    let warmup = bench.pass(0, &mut spans_off);
    checks.check(&warmup, 0, false);
    let start = Instant::now();
    for j in 0.. {
        let timed = untraced.len() + traced.len();
        let paired = !cfg.trace || timed.is_multiple_of(2);
        if timed >= min_timed && paired && start.elapsed() >= budget {
            break;
        }
        let is_traced = cfg.trace && j % 2 == 1;
        let slot = if cfg.trace {
            (j / 2) % SLOTS
        } else {
            j % SLOTS
        };
        let pass = if is_traced {
            let label = format!("pass:{}:slot{slot}", cfg.workload.name());
            spans_on.time(|| label, |spans| bench.pass(slot, spans)).0
        } else {
            bench.pass(slot, &mut spans_off)
        };
        checks.check(&pass, slot, is_traced);
        if is_traced {
            traced.push((slot, pass));
        } else {
            untraced.push((slot, pass));
        }
    }

    let mut lines = Vec::new();
    let mut metrics = Vec::new();
    let e2e = end_to_end(&untraced, &mut lines);
    if cfg.trace {
        let untraced_wall = e2e[0].1;
        let layers = per_layer(
            cfg,
            &traced,
            untraced_wall,
            &mut spans_on,
            &mut checks,
            &mut lines,
        );
        metrics.extend(layers);
    } else {
        metrics.extend(e2e);
    }
    for (name, value, _) in &mut metrics {
        if !value.is_finite() {
            checks
                .failures
                .push(format!("{name} = {value} is not a number"));
            *value = 0.0;
        }
    }

    let digest = checks.first.get(&0).map_or(0, |l| digest(l));
    let recorded = match (cfg.scale, recorded_digest(cfg.workload, cfg.seed)) {
        (Scale::Tiny, _) | (_, None) => "not recorded for this seed".to_string(),
        (_, Some(d)) if d == digest => "matches the recorded digest".to_string(),
        (_, Some(d)) => format!("DIFFERS from the recorded digest {d:016x}"),
    };
    lines.push(format!("digest: {digest:016x} ({recorded})"));
    lines.push(format!(
        "checks: {} repeat passes and {} traced passes matched their slot's first pass; {} of {} units solved their problem",
        checks.repeats, checks.traced_matches, checks.solved, checks.attempted
    ));
    let failed = checks.failures.len() as u64;
    lines.push(format!(
        "runs: attempted={} failed={failed} fail_frac={}",
        checks.attempted,
        failed as f64 / checks.attempted.max(1) as f64
    ));
    for f in checks.failures.iter().take(10) {
        lines.push(format!("FAILED: {f}"));
    }
    let checked = checks.repeats + checks.traced_matches > 0;
    if !checked {
        lines.push("FAILED: no pass repeated an input slot, so nothing was compared".into());
    }
    Outcome {
        correct: failed == 0 && checked && checks.attempted > 0,
        attempted: checks.attempted,
        failed,
        metrics,
        lines,
        spans_jsonl: if cfg.trace {
            spans_on.to_jsonl()
        } else {
            String::new()
        },
    }
}

/// A per-pass reading as `stat` over the passes of each input slot,
/// averaged over the slots, so the mix of inputs is the same whichever
/// passes the time allowed.
fn slot_mean(passes: &[SlotPass], stat: fn(&[f64]) -> f64, f: impl Fn(&Pass) -> f64) -> f64 {
    let mut by_slot: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (slot, pass) in passes {
        by_slot.entry(*slot).or_default().push(f(pass));
    }
    by_slot.values().map(|v| stat(v)).sum::<f64>() / by_slot.len() as f64
}

/// Host seconds per pass: the mean over each slot's passes, averaged over
/// the slots. A mean, not a median: the host switches between a fast and a
/// slow state for seconds at a time, and a median jumps between the two as
/// their shares of a run change, where a mean moves only in proportion.
fn wall_s(passes: &[SlotPass]) -> f64 {
    slot_mean(passes, stats::mean, |p| p.wall_nanos as f64 / 1e9)
}

/// The end-to-end metrics over the untraced passes.
fn end_to_end(passes: &[SlotPass], lines: &mut Vec<String>) -> Vec<(String, f64, &'static str)> {
    let runs: Vec<f64> = passes
        .iter()
        .flat_map(|(_, p)| p.units.iter().map(|u| u.nanos as f64 / 1e6))
        .collect();
    let (tail, percentile, count) = stats::tail(&runs);
    lines.push(format!(
        "passes: {} timed after 1 warm-up, run units: {count}; run_ms_tail is p{percentile:.1} of {count} runs; run_ms median {:.6} ms",
        passes.len(),
        stats::median(&runs)
    ));
    let wall_s = wall_s(passes);
    let values = [
        wall_s,
        slot_mean(passes, stats::median, |p| p.messages() as f64) / wall_s,
        slot_mean(passes, stats::median, |p| p.rounds() as f64) / wall_s,
        stats::mean(&runs),
        tail,
        slot_mean(passes, stats::median, |p| p.peak_heap as f64 / 1e6),
        slot_mean(passes, stats::median, |p| p.setup_nanos as f64 / 1e9),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| {
            lines.push(format!("{name} = {value:.6} {unit}"));
            (name.to_string(), value, unit)
        })
        .collect()
}

/// The per-layer metrics: medians over the traced passes, the tracing
/// overhead, and the layers this workload does not reach from one traced
/// pass of their home workloads.
fn per_layer(
    cfg: &Config,
    traced: &[SlotPass],
    untraced_wall_s: f64,
    spans: &mut Spans,
    checks: &mut Checks,
    lines: &mut Vec<String>,
) -> Vec<(String, f64, &'static str)> {
    let traced_wall_s = wall_s(traced);
    lines.push(format!(
        "tracing overhead: traced wall_s {traced_wall_s:.6} - untraced wall_s {untraced_wall_s:.6}"
    ));
    let mut homes: BTreeMap<&str, Pass> = BTreeMap::new();
    let mut out = Vec::new();
    for (name, unit) in per_layer_metrics() {
        let from_own: Vec<f64> = traced
            .iter()
            .filter_map(|(_, p)| p.layers.get(&name).copied())
            .collect();
        let (value, source) = if name == "bench.trace_overhead_s" {
            (traced_wall_s - untraced_wall_s, cfg.workload)
        } else if !from_own.is_empty() {
            (stats::median(&from_own), cfg.workload)
        } else {
            let home = Workload::home_of(&name);
            let pass = homes.entry(home.name()).or_insert_with(|| {
                // Warmed up like the workload's own run, and checked
                // against that untraced warm-up pass.
                let mut bench = bench_for(home, cfg.seed, cfg.scale);
                let warmup = bench.pass(0, &mut Spans::new(false));
                let label = format!("pass:{}:slot0", home.name());
                let pass = spans.time(|| label, |spans| bench.pass(0, spans)).0;
                let expected: Vec<String> = warmup.units.iter().map(|u| u.stats.clone()).collect();
                checks.count(&warmup, None, false);
                checks.count(&pass, Some(&expected), true);
                pass
            });
            match pass.layers.get(&name) {
                Some(&v) => (v, home),
                None => {
                    checks.failures.push(format!("no workload measured {name}"));
                    (0.0, home)
                }
            }
        };
        lines.push(format!("{name} = {value:.6} {unit} [{}]", source.name()));
        out.push((name, value, unit));
    }
    out
}
