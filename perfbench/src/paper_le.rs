//! `paper-le`: each of the paper's leader-election protocols against its
//! classical baseline, sequentially on one thread — QuantumLE vs KPP on
//! implicit `K_n`, QuantumRWLE vs KPP-Mixing on `Q_d`, QuantumQWLE vs CPR on
//! a clique of cliques — one run each per pass. The configurations are the
//! ones the E1, E3 and E4 tables use.

use classical_baselines::{CprDiameterTwoLe, KppCompleteLe, KppMixingLe};
use congest_net::{topology, Graph};
use qle::algorithms::{QuantumLe, QuantumQwLe, QuantumRwLe};
use qle::{AlphaChoice, KChoice, LeaderElection, RunOptions};

use crate::inputs::{PaperLeInputs, Scale};
use crate::spans::Spans;
use crate::{alloc, record_protocol_runs, Bench, NetworkLayer, Pass, ProtocolRun, Unit};

/// The `paper-le` pass runner.
pub struct PaperLe {
    inputs: PaperLeInputs,
}

impl PaperLe {
    /// The runner for `seed`.
    #[must_use]
    pub fn new(seed: u64, scale: Scale) -> Self {
        PaperLe {
            inputs: PaperLeInputs::generate(seed, scale),
        }
    }
}

struct Graphs {
    complete: Graph,
    hypercube: Graph,
    cliques: Graph,
}

impl Bench for PaperLe {
    fn pass(&mut self, slot: usize, spans: &mut Spans) -> Pass {
        let base = alloc::snapshot().live;
        let inputs = &self.inputs;
        let traced = spans.enabled();
        let (graphs, setup_nanos) = spans.time(
            || "setup".into(),
            |_| Graphs {
                complete: topology::complete(1 << inputs.complete_log2).expect("complete graph"),
                hypercube: topology::hypercube(inputs.hypercube_dim).expect("hypercube"),
                cliques: topology::clique_of_cliques(inputs.cliques).expect("clique of cliques"),
            },
        );
        // The lazy walk on Q_d mixes in Θ(d·log d) steps (as in E3).
        let dim = f64::from(inputs.hypercube_dim);
        let tau = (dim * dim.ln()).ceil() as usize;
        let constant = AlphaChoice::Fixed(0.25);
        let protocols: [(&str, Box<dyn LeaderElection>, &Graph); 6] = [
            (
                "qle.quantum-le",
                Box::new(QuantumLe::with_parameters(KChoice::Optimal, constant)),
                &graphs.complete,
            ),
            (
                "classical.kpp-complete-le",
                Box::new(KppCompleteLe::new()),
                &graphs.complete,
            ),
            (
                "qle.quantum-rw-le",
                Box::new(QuantumRwLe::with_parameters(
                    KChoice::Optimal,
                    constant,
                    Some(tau),
                )),
                &graphs.hypercube,
            ),
            (
                "classical.kpp-mixing-le",
                Box::new(KppMixingLe::with_tau(tau)),
                &graphs.hypercube,
            ),
            (
                "qle.quantum-qw-le",
                Box::new(QuantumQwLe::benchmark_profile(graphs.cliques.node_count())),
                &graphs.cliques,
            ),
            (
                "classical.cpr-d2-le",
                Box::new(CprDiameterTwoLe {
                    skip_full_topology_check: true,
                }),
                &graphs.cliques,
            ),
        ];
        let opts = RunOptions {
            telemetry: traced,
            ..RunOptions::default()
        };
        let mut pass = Pass {
            setup_nanos,
            ..Pass::default()
        };
        let mut network = NetworkLayer::default();
        // A run unit is one pair: the quantum protocol, then its baseline.
        for (pair, seeds) in protocols.chunks(2).zip(inputs.seeds[slot].chunks(2)) {
            let mut unit = Unit {
                solved: true,
                ..Unit::default()
            };
            for ((key, protocol, graph), &seed) in pair.iter().zip(seeds) {
                let window = alloc::reset_peak();
                let (result, nanos) = spans.time(
                    || format!("run_with:{key}"),
                    |_| protocol.run_with(graph, seed, &opts),
                );
                let usage = alloc::usage_since(window);
                pass.peak_heap = pass.peak_heap.max(usage.peak.saturating_sub(base));
                unit.nanos += nanos;
                let traced_run = match result {
                    Ok(traced_run) => traced_run,
                    Err(e) => {
                        unit.error = Some(format!("{key} seed={seed}: {e}"));
                        continue;
                    }
                };
                let run = &traced_run.run;
                if let Some(report) = &traced_run.telemetry {
                    network.absorb(report, run.cost.metrics.peak_messages_per_round);
                    let network_nanos = report.wall.phase_nanos.iter().sum();
                    record_protocol_runs(
                        &mut pass.layers,
                        key,
                        &[ProtocolRun {
                            nanos,
                            network_nanos,
                            usage,
                        }],
                    );
                }
                let covered = run.outcome.statuses().len();
                if covered != graph.node_count() {
                    unit.error = Some(format!(
                        "{key} seed={seed}: outcome covers {covered} of {} nodes",
                        graph.node_count()
                    ));
                }
                unit.messages += run.cost.total_messages();
                unit.rounds += run.cost.effective_rounds;
                unit.solved &= run.succeeded();
                unit.stats += &format!(
                    "{key} seed={seed} n={} {:?} leaders={:?}; ",
                    run.nodes,
                    run.cost,
                    run.outcome.leaders()
                );
            }
            pass.wall_nanos += unit.nanos;
            pass.units.push(unit);
        }
        if traced {
            network.record(&mut pass.layers);
            pass.layers
                .insert("topology.build_ms".into(), setup_nanos as f64 / 1e6);
            let seed = inputs.seeds[slot][0];
            pass.layers.insert(
                "graph.port_ns.implicit".into(),
                crate::port_probe_ns(&graphs.complete, seed),
            );
            pass.layers.insert(
                "graph.port_ns.csr".into(),
                crate::port_probe_ns(&graphs.cliques, seed),
            );
        }
        pass
    }
}
