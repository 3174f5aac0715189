//! `fault-sweep`: a generated scenario matrix through the harness — parse,
//! expand, `run_farm` on the `nproc`-worker pool, serialize, parse back and
//! replay-compare — followed by the same cells one at a time, which gives
//! the per-cell host time and a second run to compare with.

use std::collections::BTreeMap;

use congest_net::Phase;
use sim_harness::trace::{self, BaselineCell};
use sim_harness::{expand, run_cells_collect, Cell, CellResult, FarmOptions, ScenarioSpec};

use crate::inputs::{FaultSweepInputs, Scale};
use crate::spans::Spans;
use crate::{alloc, record_protocol_runs, Bench, NetworkLayer, Pass, ProtocolRun, Unit};

/// The `fault-sweep` pass runner. It keeps each slot's first trace as the
/// baseline later passes over that slot replay against.
pub struct FaultSweep {
    inputs: FaultSweepInputs,
    baselines: Vec<Option<Vec<BaselineCell>>>,
}

impl FaultSweep {
    /// The runner for `seed`.
    #[must_use]
    pub fn new(seed: u64, scale: Scale) -> Self {
        let inputs = FaultSweepInputs::generate(seed, scale);
        let baselines = vec![None; inputs.texts.len()];
        FaultSweep { inputs, baselines }
    }
}

/// Runs `cells` through `run_farm` on the worker pool, collecting the
/// results in cell order.
fn farm(cells: &[Cell], telemetry: bool) -> Result<Vec<CellResult>, String> {
    let opts = FarmOptions {
        telemetry,
        cache_dir: None,
    };
    run_cells_collect(cells, &opts).map(|(results, _)| results)
}

fn cell_stats(r: &CellResult) -> String {
    let o = &r.outcome;
    format!(
        "{} {:?} effective_rounds={} ok={} events={}",
        r.cell.id(),
        o.metrics,
        o.effective_rounds,
        o.ok,
        o.trace.len()
    )
}

impl Bench for FaultSweep {
    fn pass(&mut self, slot: usize, spans: &mut Spans) -> Pass {
        let base = alloc::snapshot().live;
        let traced = spans.enabled();
        let text = &self.inputs.texts[slot];
        let mut layers = BTreeMap::new();
        let (cells, setup_nanos) = spans.time(
            || "setup".into(),
            |spans| {
                let (specs, parse_nanos) =
                    spans.time(|| "parse_many".into(), |_| ScenarioSpec::parse_many(text));
                let specs = specs.unwrap_or_else(|e| panic!("generated scenario text: {e}"));
                let (cells, expand_nanos) = spans.time(|| "expand".into(), |_| expand(&specs));
                layers.insert("harness.parse_ms".to_string(), parse_nanos as f64 / 1e6);
                layers.insert("harness.expand_ms".to_string(), expand_nanos as f64 / 1e6);
                cells
            },
        );
        let baseline = &mut self.baselines[slot];
        // The timed phase: the batch, its trace written and read back, and
        // the replay comparison against this slot's first trace.
        let window = alloc::reset_peak();
        let ((batch, trace_bytes, replay, phase_nanos), wall_nanos) = spans.time(
            || "timed".into(),
            |spans| {
                let (batch, farm_nanos) =
                    spans.time(|| "run_farm".into(), |_| farm(&cells, traced));
                let mut phase_nanos = [farm_nanos, 0, 0, 0];
                let Ok(results) = &batch else {
                    return (batch, 0, Vec::new(), phase_nanos);
                };
                let (text, serialize_nanos) =
                    spans.time(|| "serialize".into(), |_| trace::serialize(results));
                let (parsed, parse_nanos) = spans.time(|| "parse".into(), |_| trace::parse(&text));
                let (replay, compare_nanos) = spans.time(
                    || "compare".into(),
                    |_| match (&*baseline, &parsed) {
                        (_, Err(e)) => vec![format!("trace parse: {e}")],
                        (Some(first), _) => trace::compare(results, first),
                        (None, Ok(now)) => trace::compare(results, now),
                    },
                );
                if baseline.is_none() {
                    *baseline = parsed.ok();
                }
                phase_nanos[1..].copy_from_slice(&[serialize_nanos, parse_nanos, compare_nanos]);
                (batch, text.len(), replay, phase_nanos)
            },
        );
        let peak_heap = alloc::usage_since(window).peak.saturating_sub(base);
        let [farm_nanos, serialize_nanos, trace_parse_nanos, compare_nanos] = phase_nanos;

        let mut pass = Pass {
            setup_nanos,
            wall_nanos,
            peak_heap,
            ..Pass::default()
        };
        let results = match batch {
            Ok(results) => results,
            Err(e) => {
                pass.units = cells
                    .iter()
                    .map(|c| Unit {
                        error: Some(format!("{}: run_farm: {e}", c.id())),
                        ..Unit::default()
                    })
                    .collect();
                return pass;
            }
        };
        // A mismatch naming no cell (count, identity, unreadable trace)
        // fails every cell.
        let prefixes: Vec<String> = cells.iter().map(|c| format!("{}:", c.id())).collect();
        let matrix_mismatch = replay
            .iter()
            .find(|m| !prefixes.iter().any(|p| m.starts_with(p.as_str())));

        // The same cells one at a time: per-cell host time, heap and a
        // second run to compare with the batch.
        let mut ghs_runs = Vec::new();
        let mut network = NetworkLayer::default();
        for ((cell, batch_result), prefix) in cells.iter().zip(&results).zip(&prefixes) {
            let id = cell.id();
            let window = alloc::reset_peak();
            let (single, nanos) = spans.time(
                || format!("run_farm:{}", cell.protocol.name()),
                |_| farm(std::slice::from_ref(cell), traced),
            );
            let usage = alloc::usage_since(window);
            let stats = cell_stats(batch_result);
            let error = if let Some(m) = matrix_mismatch {
                Some(format!("replay: {m}"))
            } else if let Some(m) = replay.iter().find(|m| m.starts_with(prefix.as_str())) {
                Some(format!("replay: {m}"))
            } else {
                match &single {
                    Err(e) => Some(format!("{id}: run_farm: {e}")),
                    Ok(single) if cell_stats(&single[0]) != stats => {
                        Some(format!("{id}: one-cell run differs from the batch"))
                    }
                    Ok(_) => None,
                }
            };
            if let (Ok(single), "ghs-le") = (&single, cell.protocol.name()) {
                let network_nanos = single[0]
                    .outcome
                    .telemetry
                    .as_ref()
                    .map_or(0, |t| t.wall.phase_nanos.iter().sum());
                ghs_runs.push(ProtocolRun {
                    nanos,
                    network_nanos,
                    usage,
                });
            }
            if let Some(report) = &batch_result.outcome.telemetry {
                network.absorb(report, batch_result.outcome.metrics.peak_messages_per_round);
            }
            pass.units.push(Unit {
                nanos,
                messages: batch_result.outcome.metrics.total_messages(),
                rounds: batch_result.outcome.effective_rounds,
                stats,
                error,
                solved: batch_result.outcome.ok,
            });
        }

        if traced {
            network.record(&mut layers);
            layers.insert(
                "fault.judge_ms".into(),
                network.phase_nanos[Phase::FaultJudge.index()] as f64 / 1e6,
            );
            layers.insert(
                "event.scheduler_ms".into(),
                network.phase_nanos[Phase::SchedulerOracle.index()] as f64 / 1e6,
            );
            let cell_nanos: u64 = results.iter().map(|r| r.wall_nanos).sum();
            let workers = rayon::current_num_threads().clamp(1, cells.len().max(1));
            layers.insert("harness.cell_ms_sum".into(), cell_nanos as f64 / 1e6);
            layers.insert(
                "harness.pool_util".into(),
                cell_nanos as f64 / (farm_nanos.max(1) as f64 * workers as f64),
            );
            layers.insert("harness.serialize_ms".into(), serialize_nanos as f64 / 1e6);
            layers.insert("harness.trace_bytes".into(), trace_bytes as f64);
            layers.insert(
                "harness.trace_parse_ms".into(),
                trace_parse_nanos as f64 / 1e6,
            );
            layers.insert("harness.compare_ms".into(), compare_nanos as f64 / 1e6);
            record_protocol_runs(&mut layers, "classical.ghs-le", &ghs_runs);
            record_graphs(&mut layers, &cells, spans);
        }
        pass.layers = layers;
        pass
    }
}

/// `topology.build_ms` and `graph.port_ns.*`: the farm generates each
/// cell's topology inside the timed phase, so the traced pass generates
/// them again from outside to time that layer alone.
fn record_graphs(layers: &mut BTreeMap<String, f64>, cells: &[Cell], spans: &mut Spans) {
    let mut build_nanos = 0;
    let mut implicit = None;
    let mut csr = None;
    for cell in cells {
        let (graph, nanos) = spans.time(
            || format!("generate:{}", cell.topology.name()),
            |_| cell.topology.generate(cell.n, cell.seed),
        );
        build_nanos += nanos;
        let Ok(graph) = graph else { continue };
        let slot = if graph.is_implicit() {
            &mut implicit
        } else {
            &mut csr
        };
        if slot.is_none() {
            *slot = Some((graph, cell.seed));
        }
    }
    layers.insert("topology.build_ms".into(), build_nanos as f64 / 1e6);
    for (name, graph) in [
        ("graph.port_ns.implicit", implicit),
        ("graph.port_ns.csr", csr),
    ] {
        if let Some((graph, seed)) = graph {
            layers.insert(name.into(), crate::port_probe_ns(&graph, seed));
        }
    }
}
