//! The million-node acceptance tests for the implicit-topology data plane:
//! structured families at `n = 2^20` must run real protocol workloads with
//! peak graph + round-state memory **O(n + active)** — not the O(E) (for
//! `K_n`: terabytes) that materialized CSR adjacency would cost.
//!
//! The shared tracking allocator (`tests/support`) keeps **thread-local**
//! current/peak byte counters, so the concurrently running tests in this
//! binary measure only their own thread's allocations (the round engine
//! allocates exclusively on the driving thread).
//!
//! The ceilings below are per-node budgets with headroom (roughly 2× the
//! measured footprint; about 1.2× for the two `K_{2^20}` workloads, whose
//! footprint is dominated by fixed per-node state), not tight pins: they
//! exist to catch a reintroduced O(E) or O(n · deg) buffer, which
//! overshoots by orders of magnitude, while staying robust to allocator and
//! shim-library drift.

mod support;

use classical_baselines::KppCompleteLe;
use congest_net::programs::Flood;
use congest_net::{topology, Network, NetworkConfig, SyncRuntime};
use qle::algorithms::QuantumLe;
use qle::LeaderElection;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[global_allocator]
static ALLOCATOR: support::TrackingAllocator = support::TrackingAllocator;

/// Runs `body` with byte tracking on, returning `(result, peak_bytes)`.
fn measured<R>(body: impl FnOnce() -> R) -> (R, u64) {
    let (out, m) = support::measured(body);
    (out, m.peak_bytes)
}

const MILLION: usize = 1 << 20;

/// A maximal-degree broadcast on the *complete* graph at 2^20 nodes: the
/// topology whose CSR adjacency alone would be ~8 TiB (2^40 directed edges).
/// The implicit backend makes the graph O(1) and the round O(n + messages):
/// one stamp page for the sender, one pending entry and one inbox slot per
/// recipient.
#[test]
fn million_node_complete_broadcast_stays_lean() {
    let ((), peak) = measured(|| {
        let graph = topology::complete(MILLION).unwrap();
        assert_eq!(graph.degree(0), MILLION - 1);
        let mut net: Network<u64> = Network::new(graph, NetworkConfig::with_seed(7));
        net.broadcast(0, 42).unwrap();
        net.advance_round();
        assert_eq!(net.metrics().classical_messages, (MILLION - 1) as u64);
        // Spot-check delivery at both ends of the id range (checking all n
        // inboxes is O(n) and fine, but adds nothing).
        assert_eq!(net.inbox(1), &[(0, 0, 42)]);
        assert_eq!(net.inbox(MILLION - 1), &[(0, 0, 42)]);
    });
    // Budget: ~250 B/node covers the per-node state (inbox Vec headers +
    // one-message buffers, RNG streams, stamp-page pointers, dirty list)
    // plus the sender's one full stamp page and the pending buffer. An
    // O(E) = O(n²) buffer would need terabytes and trips this instantly.
    let budget = 250 * MILLION as u64;
    assert!(
        peak <= budget,
        "peak {peak} bytes exceeds O(n + active) budget {budget}"
    );
}

/// Every node of implicit `K_{2^20}` sends one message to a seeded random
/// neighbour in the same round: 2^20 distinct senders of degree 2^20 − 1.
/// A dense stamp page per sender would need 8 MiB per node (8 TiB in
/// total); the sparse edge-busy set holds one slot per message instead.
#[test]
fn million_node_complete_many_senders_stay_lean() {
    let (delivered, peak) = measured(|| {
        let graph = topology::complete(MILLION).unwrap();
        let mut net: Network<u64> = Network::new(graph, NetworkConfig::with_seed(11));
        let mut rng = StdRng::seed_from_u64(11);
        for v in 0..MILLION {
            let port = rng.gen_range(0..MILLION - 1);
            net.send_through_port(v, port, v as u64).unwrap();
        }
        net.advance_round();
        assert_eq!(net.metrics().classical_messages, MILLION as u64);
        (0..MILLION).map(|v| net.inbox(v).len()).sum::<usize>()
    });
    assert_eq!(delivered, MILLION);
    // Budget: ~300 B/node, the single broadcast's 250 B/node plus room for
    // the sparse set: one busy-pair slot and one sender-count slot per
    // message (16 B each at load ≤ 1/2). Measured about 240 B/node.
    let budget = 300 * MILLION as u64;
    assert!(
        peak <= budget,
        "peak {peak} bytes exceeds O(n + active) budget {budget}"
    );
}

/// The paper's `QuantumLE` and its classical baseline `KppCompleteLe` on
/// `K_{2^17}`, past the sizes the E1 sweep reaches. Each candidate's
/// referees reply once, so without the sparse edge-busy set every replying
/// referee would cost a full stamp page (1 MiB each, 12–15 GB in total).
/// Release-only: each protocol runs for about a second in release mode.
#[test]
#[ignore = "heavyweight (K_2^17 protocol runs); CI runs it in release"]
fn paper_protocols_run_on_complete_2_17() {
    let n = 1 << 17;
    let graph = topology::complete(n).unwrap();
    let protocols: [&dyn LeaderElection; 2] = [&QuantumLe::new(), &KppCompleteLe::new()];
    for protocol in protocols {
        let (run, peak) = measured(|| protocol.run(&graph, 1).unwrap());
        assert!(run.succeeded(), "{} failed to elect", protocol.name());
        // Budget: 1 KiB/node (128 MiB) covers the per-node network state,
        // the protocol's per-node arrays and the referee traffic. Measured
        // about 220 B/node for QuantumLE and 450 B/node for KPP.
        let budget = 1024 * n as u64;
        assert!(
            peak <= budget,
            "{}: peak {peak} bytes exceeds budget {budget}",
            protocol.name()
        );
    }
}

/// A full fault-oblivious flood over the *star* at 2^20 nodes, driven by the
/// real round engine (`SyncRuntime`, sequential path): covers every node,
/// and peak memory stays linear in n even though the centre's stamp page and
/// the two full-traffic rounds are maximal.
#[test]
fn million_node_star_flood_covers_and_stays_lean() {
    let (runtime, peak) = measured(|| {
        let graph = topology::star(MILLION).unwrap();
        let mut runtime = SyncRuntime::new(graph, NetworkConfig::with_seed(3), |v, _| {
            Flood::new(v == 0)
        });
        let rounds = runtime.run_until_halt(64).unwrap();
        // Centre → all leaves, leaves ack-broadcast back, everyone halts.
        assert!(rounds <= 8, "star flood took {rounds} rounds");
        runtime
    });
    let covered = (0..MILLION)
        .filter(|&v| runtime.programs()[v].has_token())
        .count();
    assert_eq!(covered, MILLION, "flood must reach every node");
    assert!(
        runtime.metrics().classical_messages >= 2 * (MILLION as u64 - 1),
        "token out plus echo back"
    );
    // Budget: ~400 B/node — per-node program + inbox + RNG + outbox scratch
    // and both directions' stamp pages (star has m = n − 1, so O(m) traffic
    // is O(n) here by construction).
    let budget = 400 * MILLION as u64;
    assert!(
        peak <= budget,
        "peak {peak} bytes exceeds O(n + active) budget {budget}"
    );
}

/// A full flood over the 20-dimensional hypercube: 2^20 nodes, ~10.5M
/// undirected edges, every directed edge eventually active — the heavyweight
/// tier exercised in CI's release-mode large-n smoke job (`--include-ignored`).
/// Here "active" genuinely is Θ(E), so the budget scales with the traffic,
/// not the node count; the point pinned is that *graph* storage stays O(1)
/// and nothing quadratic sneaks in.
#[test]
#[ignore = "heavyweight (tens of millions of messages); CI runs it in release"]
fn million_node_hypercube_flood_completes() {
    let (runtime, peak) = measured(|| {
        let graph = topology::hypercube(20).unwrap();
        let mut runtime = SyncRuntime::new(graph, NetworkConfig::with_seed(5), |v, _| {
            Flood::new(v == 0)
        });
        let rounds = runtime.run_until_halt(64).unwrap();
        assert!(
            (20..=24).contains(&rounds),
            "hypercube flood took {rounds} rounds (diameter 20)"
        );
        runtime
    });
    let covered = (0..MILLION)
        .filter(|&v| runtime.programs()[v].has_token())
        .count();
    assert_eq!(covered, MILLION, "flood must reach every node");
    // Each covered node broadcasts once — 2E sends — plus at most one extra
    // announcement round from the source.
    let messages = runtime.metrics().classical_messages;
    assert!(
        (20 * MILLION as u64..=20 * MILLION as u64 + 40).contains(&messages),
        "unexpected message count {messages}"
    );
    // Budget: stamp pages (8 B × 20 per node) + peak-round pending/inbox
    // buffers (a diameter-step frontier's sends), comfortably linear in the
    // active edge set. 2 KiB/node ≈ 2 GiB total with headroom.
    let budget = 2048 * MILLION as u64;
    assert!(
        peak <= budget,
        "peak {peak} bytes exceeds O(n + active) budget {budget}"
    );
}
