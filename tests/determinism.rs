//! Determinism regression tests for the CSR / zero-allocation round engine.
//!
//! Two layers of protection:
//!
//! 1. **Run-to-run determinism:** a fixed seed must produce byte-identical
//!    [`Metrics`] across repeated runs of the same protocol — the engine has
//!    no hidden iteration-order or allocation-dependent behaviour.
//! 2. **Golden values:** the exact counts for a few fixed configurations are
//!    pinned. These values were captured on the CSR engine in this PR; any
//!    future change to the round engine, the PRNG, or the protocols that
//!    shifts them is a behavioural change and must be made deliberately
//!    (update the constants in the same commit and say why).

use classical_baselines::GhsLe;
use congest_net::programs::Flood;
use congest_net::{topology, Metrics, NetworkConfig, SyncRuntime};
use qle::algorithms::QuantumLe;
use qle::{AlphaChoice, KChoice, LeaderElection};
use quantum_sim::{Complex, StateVector};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn flood_metrics(seed: u64) -> (u64, Metrics) {
    let graph = topology::hypercube(6).unwrap();
    let mut runtime = SyncRuntime::new(graph, NetworkConfig::with_seed(seed), |v, _| {
        Flood::new(v == 0)
    });
    let rounds = runtime.run_until_halt(10_000).unwrap();
    (rounds, runtime.metrics())
}

#[test]
fn flood_is_deterministic_and_matches_golden() {
    let (rounds_a, metrics_a) = flood_metrics(9);
    let (rounds_b, metrics_b) = flood_metrics(9);
    assert_eq!(rounds_a, rounds_b);
    assert_eq!(
        metrics_a, metrics_b,
        "flood metrics differ between identical runs"
    );
    // Golden: flood on Q6 (64 nodes, 192 edges) from node 0.
    assert_eq!(rounds_a, 7);
    assert_eq!(metrics_a.classical_messages, 384);
    assert_eq!(metrics_a.quantum_messages, 0);
    assert_eq!(metrics_a.rounds, 7);
    assert_eq!(metrics_a.total_bits, 384);
    assert_eq!(metrics_a.peak_messages_per_round, 120);
}

#[test]
fn quantum_le_is_deterministic_and_matches_golden() {
    let graph = topology::complete(64).unwrap();
    let protocol = QuantumLe::with_parameters(KChoice::Optimal, AlphaChoice::Fixed(0.25));
    let a = protocol.run(&graph, 42).unwrap();
    let b = protocol.run(&graph, 42).unwrap();
    assert_eq!(
        a.cost.metrics, b.cost.metrics,
        "QuantumLE metrics differ between identical runs"
    );
    assert_eq!(a.cost.effective_rounds, b.cost.effective_rounds);
    assert_eq!(a.outcome, b.outcome);
    // Golden: QuantumLE (k optimal, α = 1/4) on K_64, seed 42.
    assert!(a.succeeded());
    assert_eq!(a.cost.metrics.classical_messages, 188);
    assert_eq!(a.cost.metrics.quantum_messages, 3760);
    assert_eq!(a.cost.total_messages(), 3948);
    assert_eq!(a.cost.metrics.rounds, 3761);
    assert_eq!(a.cost.effective_rounds, 81);
    assert_eq!(a.cost.metrics.total_bits, 136_112);
}

#[test]
fn ghs_is_deterministic_and_matches_golden() {
    let graph = topology::erdos_renyi_connected(48, 0.15, 7).unwrap();
    let protocol = GhsLe::new();
    let a = protocol.run(&graph, 5).unwrap();
    let b = protocol.run(&graph, 5).unwrap();
    assert_eq!(
        a.cost.metrics, b.cost.metrics,
        "GHS metrics differ between identical runs"
    );
    assert_eq!(a.outcome, b.outcome);
    // Golden: GHS tree merging on G(48, 0.15) built with topology seed 7,
    // protocol seed 5.
    assert!(a.succeeded());
    assert_eq!(a.cost.total_messages(), 2583);
    assert_eq!(a.cost.metrics.rounds, 78);
    assert_eq!(a.cost.metrics.total_bits, 102_072);
}

#[test]
fn flood_and_ghs_are_byte_identical_across_graph_backends() {
    // The structured topology constructors now return *implicit* graphs
    // (closed-form adjacency, O(1) memory); `materialize()` produces the CSR
    // twin with the identical neighbour order, port numbering, and edge-id
    // layout. A fault-free run must be byte-identical between the two
    // backends — same metrics, same per-round history, same RNG streams.
    // (The golden tests above already pin the
    // implicit backend against values captured on the CSR engine; this test
    // makes the cross-backend claim explicit and covers the history too.)
    let implicit = topology::hypercube(6).unwrap();
    assert!(implicit.is_implicit());
    let csr = implicit.materialize();
    assert!(!csr.is_implicit());
    let run = |graph: &congest_net::Graph| {
        let mut runtime = SyncRuntime::new(
            graph.clone(),
            NetworkConfig::with_seed(9).track_history(true),
            |v, _| Flood::new(v == 0),
        );
        let rounds = runtime.run_until_halt(10_000).unwrap();
        let history = runtime.network().round_history().to_vec();
        (rounds, runtime.metrics(), history)
    };
    let (rounds, metrics, history) = run(&implicit);
    assert_eq!(
        (rounds, metrics, history.clone()),
        run(&csr),
        "flood diverged between backends"
    );
    // And both reproduce the golden.
    assert_eq!((rounds, metrics.classical_messages), (7, 384));
    assert_eq!(history.len(), 7);
    // GHS (driver-based, message-heavy) on the smallest torus: the implicit
    // and materialized runs must agree in full.
    let torus = topology::torus(4, 4).unwrap();
    assert!(torus.is_implicit());
    let torus_csr = torus.materialize();
    let protocol = GhsLe::new();
    let a = protocol.run(&torus, 5).unwrap();
    let b = protocol.run(&torus_csr, 5).unwrap();
    assert_eq!(
        a.cost.metrics, b.cost.metrics,
        "GHS diverged between backends"
    );
    assert_eq!(a.outcome, b.outcome);
    assert!(a.succeeded());
}

/// A fixed non-uniform 32-state vector for the measurement-stream pins: the
/// values are arbitrary but deterministic, so the golden outcome sequences
/// below depend only on the CDF build and the shim PRNG streams.
fn golden_measurement_state() -> StateVector {
    let amplitudes: Vec<Complex> = (0..32)
        .map(|k: i64| Complex::new((k * k % 13 - 6) as f64, (k % 5) as f64 / 2.0))
        .collect();
    StateVector::from_amplitudes(amplitudes).expect("non-zero golden state")
}

#[test]
fn measurement_streams_are_pinned() {
    // Golden values captured on the SoA state-vector representation in this
    // PR. The CDF accumulation order (strictly ascending basis index) is an
    // invariant of `StateVector::sampler` — see the quantum-sim crate docs —
    // so any change to these streams means the SoA CDF build is no longer
    // bit-stable (or the shim PRNG changed) and must be deliberate.
    let state = golden_measurement_state();
    let mut rng = StdRng::seed_from_u64(7);
    let singles: Vec<usize> = (0..12).map(|_| state.measure(&mut rng)).collect();
    assert_eq!(
        singles,
        vec![0, 5, 22, 13, 31, 14, 22, 9, 31, 1, 3, 5],
        "single-shot measure stream diverged"
    );
    let mut rng = StdRng::seed_from_u64(11);
    assert_eq!(
        state.sample_many(12, &mut rng),
        vec![27, 26, 31, 19, 8, 21, 4, 0, 25, 12, 21, 12],
        "cached sample_many stream diverged"
    );
    // The cached-CDF binary search and the linear scan must stay outcome-
    // identical on a shared RNG stream (bit-stability of the CDF build).
    let sampler = state.sampler();
    let mut rng_scan = StdRng::seed_from_u64(13);
    let mut rng_cdf = StdRng::seed_from_u64(13);
    for _ in 0..64 {
        assert_eq!(state.measure(&mut rng_scan), sampler.sample(&mut rng_cdf));
    }
}

#[test]
fn distinct_seeds_change_randomized_runs() {
    // Sanity check that the determinism above is not vacuous (i.e. the
    // protocols actually consume randomness).
    let graph = topology::complete(64).unwrap();
    let protocol = QuantumLe::with_parameters(KChoice::Optimal, AlphaChoice::Fixed(0.25));
    let a = protocol.run(&graph, 1).unwrap();
    let b = protocol.run(&graph, 2).unwrap();
    assert_ne!(
        (a.cost.total_messages(), a.cost.metrics.total_bits),
        (b.cost.total_messages(), b.cost.metrics.total_bits),
        "different seeds produced identical traffic — suspicious"
    );
}
