//! Proves the acceptance criterion of the CSR refactor: steady-state rounds
//! of the CONGEST round engine perform **zero heap allocation** — including
//! with the telemetry layer compiled in but off (the default), which is the
//! telemetry sidecar's zero-cost-when-absent guarantee.
//!
//! The shared tracking allocator (`tests/support`) wraps the system
//! allocator with per-thread counters; after a warm-up phase (buffer
//! capacities growing to their steady state), a window of several hundred
//! message-carrying rounds must allocate nothing. Tracking is per-thread,
//! so the other tests in this binary cannot pollute the window.

mod support;

use congest_net::{
    topology, NetworkConfig, NodeProgram, Outbox, Port, RoundContext, SchedulerSpec, SyncRuntime,
};

#[global_allocator]
static ALLOCATOR: support::TrackingAllocator = support::TrackingAllocator;

/// A program that broadcasts a token every round and never halts: every
/// directed edge carries a message every round, exercising the send path,
/// CONGEST enforcement, delivery, and the inbox/outbox buffers at full load.
#[derive(Debug)]
struct Chatter;

impl NodeProgram for Chatter {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut RoundContext<'_>, outbox: &mut Outbox<u64>) {
        outbox.send_all(ctx.degree, ctx.round);
    }

    fn on_round(
        &mut self,
        ctx: &mut RoundContext<'_>,
        _incoming: &[(Port, u64)],
        outbox: &mut Outbox<u64>,
    ) {
        outbox.send_all(ctx.degree, ctx.round);
    }

    fn halted(&self) -> bool {
        false
    }
}

#[test]
fn steady_state_rounds_do_not_allocate() {
    let graph = topology::random_regular(64, 4, 3).unwrap();
    let mut runtime = SyncRuntime::new(graph, NetworkConfig::with_seed(5), |_, _| Chatter);
    // Telemetry is compiled into this engine but must stay off by default:
    // the zero-allocation window below is also the pin that the telemetry
    // branch on the barrier path costs nothing when the sidecar is absent.
    assert!(!runtime.network().telemetry_enabled());
    runtime.start().unwrap();
    // Warm-up: let every buffer (pending, inboxes, scratch, outbox) reach
    // its steady-state capacity.
    for _ in 0..50 {
        runtime.step().unwrap();
    }
    let ((), m) = support::measured(|| {
        for _ in 0..300 {
            runtime.step().unwrap();
        }
    });
    assert_eq!(
        m.allocations, 0,
        "steady-state rounds allocated {} times; the round engine must be allocation-free",
        m.allocations
    );
    // The run above really did carry traffic: 64 nodes × degree 4 × 350+
    // rounds.
    assert!(runtime.metrics().classical_messages > 64 * 4 * 300);
}

#[test]
fn steady_state_scheduler_rounds_do_not_allocate() {
    // Event mode is the same runtime with a scheduler installed: its barrier
    // takes the slow delivery path, which must be allocation-free too.
    let graph = topology::random_regular(64, 4, 3).unwrap();
    let mut runtime = SyncRuntime::new(graph, NetworkConfig::with_seed(5), |_, _| Chatter);
    runtime.set_scheduler(&SchedulerSpec::synchronous());
    assert!(runtime.network().scheduler_active());
    runtime.start().unwrap();
    for _ in 0..50 {
        runtime.step().unwrap();
    }
    let ((), m) = support::measured(|| {
        for _ in 0..300 {
            runtime.step().unwrap();
        }
    });
    assert_eq!(
        m.allocations, 0,
        "steady-state scheduler rounds allocated {} times",
        m.allocations
    );
    assert!(runtime.metrics().classical_messages > 64 * 4 * 300);
}

/// A program on a high-degree graph that sends on a few rotating ports per
/// round: every send goes through the sparse edge-busy set (too few per
/// round to escalate to a dense page), whose capacity must be reused.
#[derive(Debug)]
struct Whisper;

impl NodeProgram for Whisper {
    type Msg = u64;

    fn on_start(&mut self, _ctx: &mut RoundContext<'_>, outbox: &mut Outbox<u64>) {
        outbox.send(0, 0);
    }

    fn on_round(
        &mut self,
        ctx: &mut RoundContext<'_>,
        _incoming: &[(Port, u64)],
        outbox: &mut Outbox<u64>,
    ) {
        for i in 0..3 {
            let port = ctx.node + ctx.round as usize * 7 + i * 31;
            outbox.send(port % ctx.degree, ctx.round);
        }
    }

    fn halted(&self) -> bool {
        false
    }
}

#[test]
fn steady_state_sparse_edge_busy_rounds_do_not_allocate() {
    let graph = topology::complete(128).unwrap();
    let mut runtime = SyncRuntime::new(graph, NetworkConfig::with_seed(5), |_, _| Whisper);
    runtime.start().unwrap();
    for _ in 0..50 {
        runtime.step().unwrap();
    }
    let ((), m) = support::measured(|| {
        for _ in 0..300 {
            runtime.step().unwrap();
        }
    });
    assert_eq!(
        m.allocations, 0,
        "steady-state sparse rounds allocated {} times",
        m.allocations
    );
    assert!(runtime.metrics().classical_messages > 128 * 3 * 300);
}

/// The tracker's peak-bytes gauge plugs into the telemetry sidecar's
/// optional `peak_bytes` field: it rides in the wall (non-deterministic)
/// half of the report, renders in the JSONL schema as a number, and never
/// leaks into the deterministic projection.
#[test]
fn peak_bytes_feeds_the_telemetry_report() {
    let graph = topology::random_regular(32, 4, 7).unwrap();
    let (mut report, m) = support::measured(|| {
        let mut runtime = SyncRuntime::new(graph, NetworkConfig::with_seed(9), |_, _| Chatter);
        runtime.enable_telemetry();
        runtime.start().unwrap();
        for _ in 0..20 {
            runtime.step().unwrap();
        }
        runtime.take_telemetry().expect("telemetry was enabled")
    });
    assert!(m.peak_bytes > 0, "the run surely allocated something");
    assert_eq!(
        report.wall.peak_bytes, None,
        "engine leaves the field unset"
    );
    report.wall.peak_bytes = Some(m.peak_bytes);
    let line = report.to_jsonl("peak-bytes-cell");
    assert!(
        line.contains(&format!("\"peak_bytes\":{}", m.peak_bytes)),
        "peak bytes must render in the wall half: {line}"
    );
    assert!(
        !report
            .deterministic_jsonl("peak-bytes-cell")
            .contains("peak_bytes"),
        "peak bytes must stay out of the deterministic projection"
    );
}
