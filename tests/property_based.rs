//! Property-based tests (proptest) over the workspace's core invariants.

use congest_net::{topology, Graph, Network, NetworkConfig};
use proptest::prelude::*;
use qle::algorithms::{QuantumGeneralLe, QuantumLe};
use qle::candidate::{sample_candidates_seeded, satisfies_fact_c2};
use qle::{AlphaChoice, KChoice, LeaderElection};
use quantum_sim::grover::{statevector_success_probability, success_probability};
use quantum_sim::johnson::JohnsonGraph;
use quantum_sim::{Complex, StateVector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// A random normalised AoS amplitude vector — the naive-reference input for
/// the SoA kernel properties.
fn random_amplitudes(dim: usize, seed: u64) -> Vec<Complex> {
    let mut rng = StdRng::seed_from_u64(seed);
    loop {
        let amps: Vec<Complex> = (0..dim)
            .map(|_| Complex::new(rng.gen::<f64>() * 2.0 - 1.0, rng.gen::<f64>() * 2.0 - 1.0))
            .collect();
        let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
        if norm > 1e-6 {
            return amps.into_iter().map(|a| a.scale(1.0 / norm)).collect();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every generated topology is a valid CONGEST network: connected, with
    /// symmetric ports and consistent degree/edge counts.
    #[test]
    fn topologies_are_valid_networks(n in 8usize..48, seed in 0u64..500) {
        let graphs: Vec<Graph> = vec![
            topology::complete(n).unwrap(),
            topology::cycle(n.max(3)).unwrap(),
            topology::star(n).unwrap(),
            topology::erdos_renyi_connected(n, 0.2, seed).unwrap(),
            topology::random_regular(if n % 2 == 0 { n } else { n + 1 }, 4, seed).unwrap(),
        ];
        for g in graphs {
            prop_assert!(g.is_connected());
            let degree_sum: usize = (0..g.node_count()).map(|v| g.degree(v)).sum();
            prop_assert_eq!(degree_sum, 2 * g.edge_count());
            for v in 0..g.node_count() {
                for (port, u) in g.neighbors(v).enumerate() {
                    prop_assert_eq!(g.neighbor_through_port(v, port).unwrap(), u);
                    prop_assert!(g.are_adjacent(u, v));
                }
            }
        }
    }

    /// The analytic Grover success probability matches the state-vector
    /// simulator for every small instance.
    #[test]
    fn grover_formula_matches_statevector(dim in 2usize..40, marked_count in 0usize..6, iters in 0u64..8) {
        let marked: Vec<usize> = (0..marked_count.min(dim)).collect();
        let exact = statevector_success_probability(dim, &marked, iters).unwrap();
        let analytic = success_probability(marked.len() as f64 / dim as f64, iters);
        prop_assert!((exact - analytic).abs() < 1e-8);
    }

    /// The SoA phase-oracle and diffusion kernels match a naive scalar
    /// reference to 1e-12 on random states (dims straddle the 8-lane chunk
    /// boundary).
    #[test]
    fn soa_oracle_and_diffusion_match_naive_reference(
        dim in 1usize..130,
        seed in 0u64..1000,
        modulus in 1usize..7,
    ) {
        let amps = random_amplitudes(dim, seed);
        let mut state = StateVector::from_amplitudes(amps.clone()).unwrap();
        let marked = |x: usize| x.is_multiple_of(modulus);
        state.apply_phase_oracle(marked);
        let mut reference = amps;
        for (x, a) in reference.iter_mut().enumerate() {
            if marked(x) {
                *a = -*a;
            }
        }
        for (x, want) in reference.iter().enumerate() {
            prop_assert!(state.amplitude(x).approx_eq(*want, 1e-12));
        }
        state.apply_diffusion();
        let mean = reference
            .iter()
            .fold(Complex::ZERO, |acc, a| acc + *a)
            .scale(1.0 / dim as f64);
        for (x, a) in reference.iter().enumerate() {
            let want = mean.scale(2.0) - *a;
            prop_assert!(state.amplitude(x).approx_eq(want, 1e-12));
        }
    }

    /// The SoA reflection, inner-product, and fused success/norm kernels
    /// match naive scalar references to 1e-12 on random state pairs.
    #[test]
    fn soa_reflection_and_inner_product_match_naive_reference(
        dim in 1usize..130,
        seed in 0u64..1000,
        modulus in 1usize..7,
    ) {
        let amps = random_amplitudes(dim, seed);
        let axis_amps = random_amplitudes(dim, seed ^ 0xA5A5_A5A5);
        let state = StateVector::from_amplitudes(amps.clone()).unwrap();
        let axis = StateVector::from_amplitudes(axis_amps.clone()).unwrap();

        // Inner product ⟨axis|state⟩ against the sequential scalar sum.
        let overlap = axis.inner_product(&state).unwrap();
        let mut naive_overlap = Complex::ZERO;
        for (a, s) in axis_amps.iter().zip(&amps) {
            naive_overlap += a.conj() * *s;
        }
        prop_assert!(overlap.approx_eq(naive_overlap, 1e-12));

        // Reflection 2|a⟩⟨a| − I against the naive update.
        let mut reflected = state.clone();
        reflected.apply_reflection_about(&axis).unwrap();
        for (x, (a, s)) in axis_amps.iter().zip(&amps).enumerate() {
            let want = (*a * naive_overlap).scale(2.0) - *s;
            prop_assert!(reflected.amplitude(x).approx_eq(want, 1e-12));
        }

        // Fused success/norm against naive filtered sums.
        let marked = |x: usize| x.is_multiple_of(modulus);
        let (success, norm) = state.success_and_norm(marked);
        let naive_success: f64 = amps
            .iter()
            .enumerate()
            .filter(|(x, _)| marked(*x))
            .map(|(_, a)| a.norm_sqr())
            .sum();
        let naive_norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        prop_assert!((success - naive_success).abs() < 1e-12);
        prop_assert!((norm - naive_norm).abs() < 1e-12);
    }

    /// Johnson graph neighbours are always valid vertices at Hamming
    /// distance exactly one (in subset terms).
    #[test]
    fn johnson_neighbors_are_adjacent(n in 4usize..14, k in 1usize..5, seed in 0u64..1000) {
        let k = k.min(n - 1);
        let johnson = JohnsonGraph::new(n, k).unwrap();
        let mut rng = rand::SeedableRng::seed_from_u64(seed);
        let subset = johnson.random_subset(&mut rng);
        let (next, _, _) = johnson.random_neighbor(&subset, &mut rng).unwrap();
        prop_assert!(johnson.are_adjacent(&subset, &next));
        prop_assert_eq!(next.len(), k);
    }

    /// Message metering is consistent: total messages equal classical plus
    /// quantum, and every delivered message was sent.
    #[test]
    fn network_metrics_are_consistent(n in 4usize..32, sends in 1usize..40, seed in 0u64..100) {
        let graph = topology::complete(n).unwrap();
        let mut net: Network<u64> = Network::new(graph, NetworkConfig::with_seed(seed));
        let mut sent = 0;
        for i in 0..sends {
            let from = i % n;
            let to = (i + 1 + i / n) % n;
            if from != to && net.send(from, to, i as u64).is_ok() {
                sent += 1;
            }
            net.advance_round();
        }
        let metrics = net.metrics();
        prop_assert_eq!(metrics.classical_messages, sent);
        prop_assert_eq!(metrics.total_messages(), metrics.classical_messages + metrics.quantum_messages);
        prop_assert!(metrics.rounds >= sends as u64);
    }

    /// The CONGEST edge-busy check — dense pages for low-degree senders, the
    /// round-tagged sparse set for high-degree ones, escalation between
    /// them — accepts and rejects exactly what a plain set of
    /// `(from, port, round)` triples does, over random degrees, sends,
    /// broadcasts, round advances and skipped rounds.
    #[test]
    fn edge_busy_matches_a_reference_set(n in 2usize..300, ops in 1usize..3000, seed in 0u64..1000) {
        let graph = if seed % 2 == 0 {
            topology::complete(n).unwrap()
        } else {
            topology::star(n).unwrap()
        };
        let mut net: Network<u64> = Network::new(graph.clone(), NetworkConfig::with_seed(seed));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut used: HashSet<(usize, usize, u64)> = HashSet::new();
        let mut round = 0u64;
        for _ in 0..ops {
            let draw: f64 = rng.gen();
            // A few busy senders, so single nodes send many messages per
            // round and cross their escalation thresholds.
            let v = if rng.gen_bool(0.8) { rng.gen_range(0..n.min(2)) } else { rng.gen_range(0..n) };
            let degree = graph.degree(v);
            if draw < 0.005 {
                net.advance_round();
                round += 1;
            } else if draw < 0.007 {
                let skip = rng.gen_range(1..5);
                net.advance_round();
                net.skip_rounds(skip);
                round += 1 + skip;
            } else if draw < 0.01 {
                let got = net.broadcast(v, 0).is_ok();
                let busy_port = (0..degree).find(|&p| used.contains(&(v, p, round)));
                let sent_ports = busy_port.unwrap_or(degree);
                used.extend((0..sent_ports).map(|p| (v, p, round)));
                prop_assert_eq!(got, busy_port.is_none());
            } else {
                let port = if rng.gen_bool(0.3) { rng.gen_range(0..degree.min(8)) } else { rng.gen_range(0..degree + 1) };
                let got = match net.send_through_port(v, port, 0) {
                    Ok(()) => "ok",
                    Err(congest_net::Error::EdgeBusy { .. }) => "busy",
                    Err(congest_net::Error::PortOutOfRange { .. }) => "range",
                    Err(e) => panic!("unexpected error {e:?}"),
                };
                let expected = if port >= degree {
                    "range"
                } else if used.insert((v, port, round)) {
                    "ok"
                } else {
                    "busy"
                };
                prop_assert_eq!(got, expected);
            }
        }
    }

    /// Candidate sampling satisfies Fact C.2 for (essentially) every seed.
    #[test]
    fn candidate_sampling_respects_fact_c2(seed in 0u64..2000) {
        let candidates = sample_candidates_seeded(512, seed);
        prop_assert!(satisfies_fact_c2(512, &candidates));
    }

    /// `port_to` on the CSR graph agrees with a naive linear scan of the
    /// adjacency, and the O(1) reverse-port table agrees with `port_to`, on
    /// random graphs.
    #[test]
    fn csr_port_lookup_matches_naive_scan(n in 4usize..40, seed in 0u64..500) {
        let g = topology::erdos_renyi_connected(n, 0.25, seed).unwrap();
        for v in 0..g.node_count() {
            // Naive scan over v's neighbour list.
            let scan_port = |target: usize| -> Option<usize> {
                g.neighbors(v).position(|u| u == target)
            };
            for u in 0..g.node_count() {
                prop_assert_eq!(g.port_to(v, u), scan_port(u));
            }
            for p in 0..g.degree(v) {
                let e = g.edge_id(v, p);
                let u = g.edge_target(e);
                prop_assert_eq!(g.port_to(u, v), Some(g.reverse_port(e)));
                prop_assert_eq!(g.reverse_edge(g.reverse_edge(e)), e);
            }
        }
        // Out-of-range nodes never resolve to a port.
        prop_assert_eq!(g.port_to(g.node_count(), 0), None);
        prop_assert_eq!(g.port_to(0, g.node_count()), None);
    }

    /// Every implicit structured family is indistinguishable from its
    /// materialized CSR twin through the public `Graph` API: same neighbour
    /// order, same edge-id layout, and `edge_id ∘ reverse_port` round-trips —
    /// the contract that makes runs byte-identical across backends. Sizes include the odd and degenerate ends (K_2, the
    /// two-node star, C_3, Q_1, the smallest 3×3 torus).
    #[test]
    fn implicit_backends_match_materialized_csr(
        n in 2usize..40,
        d in 1u32..7,
    ) {
        let graphs: Vec<Graph> = vec![
            topology::complete(n).unwrap(),
            topology::star(n).unwrap(),
            topology::cycle(n.max(3)).unwrap(),
            topology::hypercube(d).unwrap(),
            topology::torus(n.clamp(3, 9), (n / 2).clamp(3, 9)).unwrap(),
        ];
        for g in graphs {
            prop_assert!(g.is_implicit());
            let csr = g.materialize();
            prop_assert!(!csr.is_implicit());
            let nodes = g.node_count();
            prop_assert_eq!(nodes, csr.node_count());
            prop_assert_eq!(g.edge_count(), csr.edge_count());
            for v in 0..nodes {
                prop_assert_eq!(g.degree(v), csr.degree(v));
                prop_assert_eq!(g.first_edge_id(v), csr.first_edge_id(v));
                prop_assert_eq!(g.neighbors(v).to_vec(), csr.neighbors(v).to_vec());
                for p in 0..g.degree(v) {
                    let e = g.edge_id(v, p);
                    prop_assert_eq!(e, csr.edge_id(v, p));
                    let u = g.edge_target(e);
                    prop_assert_eq!(u, csr.edge_target(e));
                    let rp = g.reverse_port(e);
                    prop_assert_eq!(rp, csr.reverse_port(e));
                    prop_assert_eq!(rp, g.reverse_port_at(v, p));
                    // Round-trip: the reverse port leads straight back.
                    prop_assert_eq!(g.edge_target(g.edge_id(u, rp)), v);
                }
            }
            prop_assert_eq!(g.first_edge_id(nodes), csr.first_edge_id(nodes));
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// QuantumLE elects exactly one leader for random sizes and seeds (the
    /// failure probability at these parameters is far below the case count).
    #[test]
    fn quantum_le_always_elects_exactly_one_leader(n in 24usize..80, seed in 0u64..10_000) {
        let graph = topology::complete(n).unwrap();
        let run = QuantumLe::with_parameters(KChoice::Optimal, AlphaChoice::HighProbability)
            .run(&graph, seed)
            .unwrap();
        prop_assert!(run.succeeded());
        prop_assert_eq!(run.outcome.leaders().len(), 1);
    }

    /// QuantumGeneralLE elects a unique leader on random connected graphs.
    #[test]
    fn general_le_elects_unique_leader_on_random_graphs(n in 12usize..40, seed in 0u64..10_000) {
        let graph = topology::erdos_renyi_connected(n, 0.15, seed).unwrap();
        let run = QuantumGeneralLe::new().run(&graph, seed).unwrap();
        prop_assert!(run.succeeded());
    }
}
