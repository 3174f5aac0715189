//! # congest-net
//!
//! A deterministic, single-process simulator of the synchronous **CONGEST**
//! message-passing model of distributed computing (Peleg, 2000), as used by
//! the paper *Quantum Communication Advantage for Leader Election and
//! Agreement* (PODC 2025).
//!
//! The model implemented here (paper, Section 2.1):
//!
//! * The network is an undirected connected graph `G = (V, E)` of `n` nodes.
//! * Computation advances in synchronous rounds. In every round each node may
//!   send at most one message of `O(log n)` bits per incident edge, receive
//!   the messages sent to it in the same round, and perform local computation.
//! * Nodes are anonymous and start in the clean-network (KT0) state: each node
//!   only knows its own ports, numbered `0..deg(v)`, one per incident edge.
//! * Every node has a private, unbiased source of random bits; optionally the
//!   whole network shares a global coin (used only by the agreement protocol
//!   of Section 6).
//!
//! The crate provides:
//!
//! * [`Graph`] and a library of topology generators ([`topology`]),
//! * a metered [`Network`] handle through which protocols send messages and
//!   advance rounds (all message/round accounting lives here, including the
//!   separate *quantum* message meter of Section 3.1 of the paper),
//! * an actor-style synchronous [`runtime`] for protocols written as per-node
//!   state machines, with reference programs in [`programs`],
//! * random-walk machinery and mixing-time estimation ([`walks`]).
//!
//! # Performance architecture
//!
//! The simulator's data plane is built so that a steady-state round performs
//! **zero heap allocation**, and sends from low-degree nodes no hashing.
//! Three design decisions carry this, and each comes with an invariant the
//! rest of the crate relies on:
//!
//! ## 1. Dual-backend graph with a closed-form reverse-port map
//!
//! [`Graph`] hides one of two adjacency backends behind a single API.
//! Random/irregular topologies store flat `offsets` / `neighbors` arrays
//! (compressed sparse row) plus a precomputed `rev_port` table. Structured
//! families (complete, star, cycle, hypercube, torus) store only their
//! *parameters* and compute `neighbor(v, p)`, `edge_id(v, p)` and
//! `reverse_port` from closed forms — a million-node `K_n` is a few bytes,
//! not the ~8 TiB its CSR adjacency would occupy. [`Graph::materialize`]
//! produces the CSR twin with the identical neighbour order, port numbering
//! and edge-id layout, so fault-free runs are byte-identical across backends.
//!
//! **Invariant:** for every edge id `e = edge_id(v, p)` with target `u`,
//! `neighbor(u, reverse_port(e)) == v`, and
//! `reverse_edge(reverse_edge(e)) == e` — on *both* backends. Consequently
//! the arrival port of a message is an O(1) lookup (array read or closed
//! form) at send time; nothing on the delivery path ever scans or searches
//! an adjacency list. (`port_to(v, u)` for arbitrary pairs remains
//! `O(log deg)` / `O(1)` and is off the hot path.)
//!
//! ## 2. Round-stamped edge usage, sized by traffic
//!
//! The CONGEST one-message-per-directed-edge rule is enforced by round
//! stamps held in one of two places. A sender of degree at most 64 gets a
//! dense *stamp page* on its first send: `deg(v)` round stamps, one per
//! port, and a port is busy iff its stamp equals the current `round_stamp`.
//! A higher-degree sender instead records its busy `(from, port)` pairs in
//! one open-addressed set owned by the network, whose slots are tagged with the
//! round that wrote them; once it sends more than `max(64, deg/16)` messages
//! in one round it escalates to a dense page, and the pairs it already used
//! that round are copied into the page. A broadcast, and a runtime outbox
//! flush large enough to escalate, get the page directly. A node that never
//! sends costs one null pointer, so stamp state is O(n) pointers plus the
//! peak number of sparse sends in one round plus the escalated pages: a
//! one-message referee reply on an implicit `K_n` costs one set slot, not
//! an `8·(n − 1)`-byte page. Advancing a round just increments
//! `round_stamp`.
//!
//! **Invariant:** `round_stamp` is strictly monotone (`advance_round` adds 1,
//! `skip_rounds(r)` adds `r`), so a stamp or set tag written in an earlier
//! round can never compare equal again — stale pages and slots need no
//! clearing, and the set keeps its capacity across rounds. At any moment a
//! node's busy ports for the current round live in exactly one place (its
//! page if it has one, else the set), so accept/reject decisions do not
//! depend on the representation.
//!
//! ## 3. Double-buffered inboxes and outboxes
//!
//! [`Network`] owns one reusable `pending` buffer and one inbox `Vec` per
//! node (cleared via a dirty list, capacity retained).
//! [`SyncRuntime`] owns its delivery and outbox
//! scratch and rotates inbox storage through [`Network::swap_inbox`], so
//! driving `n` programs allocates nothing once capacities have warmed up;
//! halted nodes with empty inboxes are skipped outright.
//!
//! **Invariant:** buffers are only ever `clear()`ed or `swap()`ed on the
//! round path — any code that `take`s, drops, or reallocates one of them in
//! steady state is a regression (the `network_core` bench and the
//! determinism suite in the workspace root guard this).
//!
//! ## 4. Fault injection at the barrier
//!
//! A [`FaultPlan`] (seeded per-message drops, per-link outage windows,
//! per-link latency, crash-stop nodes, and crash-recovery windows) can be
//! installed on any network ([`Network::set_fault_plan`]). All fault
//! decisions are made inside [`Network::advance_round`] in **delivery
//! order** — the order the runtime's node loop sent them in — so for a
//! fixed plan a faulty run is exactly as reproducible as a fault-free one.
//! Dropped messages count as
//! sent (the sender paid for them) and are tallied separately in
//! [`Metrics::dropped_messages`]; crashed nodes are skipped by the runtime
//! and counted in [`Metrics::crashed_nodes`]. An optional
//! round-stamped [trace sink](Network::enable_trace) records every fault
//! event, which is what the scenario engine's replay mode re-verifies.
//!
//! Latency faults make the delivery queue **span rounds**: delayed messages
//! are parked on a heap keyed by `(due round, delivery-order sequence
//! number)` and drained at their due barrier in that order. Both the park
//! decision and the sequence number are assigned in delivery order, so the
//! cross-round drain order is reproducible too (pinned by the fault-plane
//! suite's latency goldens and property tests).
//!
//! Beyond the benign classes, the plan models an **adversary**: Byzantine
//! windows ([`FaultPlan::byzantine`]) in which a node's surviving outgoing
//! messages are rewritten through the [`Payload::mutate`] hook — each
//! message drawing independently from a dedicated, salted PRNG stream, so a
//! lying node can *equivocate* (send different corruptions per port in the
//! same round) — and adversarial drop scheduling
//! ([`FaultPlan::adversarial_drops`]), which strikes up to `k` *frontier*
//! messages per round (first uses of a directed link in the run) instead of
//! sampling uniformly. Both are judged at the same barrier in the same
//! delivery order, mutation draws and strike selections consume their own
//! streams (never the drop lottery's), and mutation is the **only** code
//! path that rewrites a payload — so adversarial runs stay byte-identical
//! across re-runs, and [`Metrics::mutated_messages`]
//! plus the `MessageMutated`/`MessageEquivocated` trace events make every
//! lie observable.
//!
//! Faults are **protocol-visible**, not just metric-visible:
//! [`runtime::RoundContext::failed_neighbors`] is a perfect failure
//! detector fed by the fault clock, and
//! [`runtime::NodeProgram::on_recover`] is invoked (instead of the round
//! callback) when a crash-recovery window ends, so node programs can
//! implement genuinely fault-tolerant variants —
//! [`programs::FloodFt`] is the reference example for omission faults,
//! [`programs::FloodBft`] (checksum-tagged tokens, bounded retransmission)
//! the one for Byzantine mutation.
//!
//! **Invariant:** without an installed plan, delivery takes the untouched
//! fast path of §3 — and installing an *empty* plan is byte-identical to
//! installing none (pinned by the workspace fault-plane suite).
//!
//! ## 5. The event-driven execution mode for partial synchrony
//!
//! Beside the round-synchronous model, the [`event`] module provides a
//! deterministic **discrete-event** mode: the same [`SyncRuntime`] drives
//! the same unmodified [`NodeProgram`]s while a scheduler adversary
//! ([`SchedulerSpec`], installed via [`SyncRuntime::set_scheduler`] or
//! [`Network::set_scheduler`]) chooses a delivery delay in `0..=bound` for
//! every message — at the barrier, in delivery order, from a dedicated
//! salted PRNG stream, generalising the latency heap of §4 into a global
//! event heap keyed by `(due time, seq)`. Under the `synchronous` scheduler
//! event mode reproduces the round model **byte-for-byte** (metrics and
//! history) by construction, since both run one per-node loop; the full
//! execution-model contract — clock semantics, the scheduler catalogue, the
//! equivalence theorem, and the replay guarantee — lives in
//! `docs/EXECUTION_MODELS.md` in the repository root.
//!
//! **Invariant:** scheduler decisions are made only at the barrier in
//! delivery order and consume only the scheduler's own stream, so an
//! event-mode run replays exactly, like every other execution (pinned by
//! the workspace `event_mode` suite).
//!
//! ## 6. The telemetry sidecar
//!
//! The [`telemetry`] module provides an **opt-in** observability layer:
//! per-round phase spans (node-step, barrier-merge, fault-judge,
//! scheduler-oracle) and deterministic log2-bucket histograms (messages
//! per round, inbox sizes, and — in event mode — heap depth and scheduler
//! skew). It is enabled per run via [`Network::enable_telemetry`] (or the
//! runtime wrapper) and
//! harvested with [`Network::take_telemetry`] into a [`TelemetryReport`].
//!
//! **Invariant (determinism boundary):** telemetry lives strictly *outside*
//! the determinism domain. Wall-clock readings go only into the report's
//! segregated [`telemetry::WallTelemetry`] half; the
//! [`telemetry::DeterministicTelemetry`] half is derived exclusively from
//! barrier-merged quantities and is byte-identical on every re-run.
//! Telemetry never touches [`Metrics`], round history, the fault trace, or
//! any PRNG stream, and when it is off (the default) the steady-state round
//! path performs no allocations and no timing calls — one predictable
//! branch per barrier, pinned by the workspace zero-allocation suite. The
//! full schema and the `experiments --profile` walkthrough live in
//! `docs/OBSERVABILITY.md` in the repository root.
//!
//! `docs/ARCHITECTURE.md` in the repository root consolidates this section
//! with the scenario-engine and state-vector architecture notes into one
//! narrative; treat the invariants stated here as the authoritative ones
//! for this crate.
//!
//! # Example
//!
//! ```
//! use congest_net::{topology, Network, NetworkConfig};
//!
//! # fn main() -> Result<(), congest_net::Error> {
//! let graph = topology::complete(8)?;
//! let mut net: Network<u64> = Network::new(graph, NetworkConfig::with_seed(7));
//! net.send(0, 3, 42)?;
//! net.advance_round();
//! // Deliveries carry (sender, arrival port, payload); in K_8 node 3's
//! // port 0 leads back to node 0.
//! assert_eq!(net.inbox(3), &[(0, 0, 42)]);
//! assert_eq!(net.metrics().classical_messages, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod busy;
pub mod error;
pub mod event;
pub mod fault;
pub mod graph;
pub mod message;
pub mod metrics;
pub mod network;
pub mod programs;
pub mod runtime;
pub mod telemetry;
pub mod topology;
pub mod walks;

pub use error::Error;
pub use event::{ExecMode, SchedulerKind, SchedulerSpec};
pub use fault::{
    ByzantineWindow, CrashPoint, DropCause, FaultPlan, LinkLatency, LinkOutage, TraceEvent,
};
pub use graph::{EdgeId, Graph, Neighbors, NodeId, Port};
pub use message::Payload;
pub use metrics::{Metrics, RoundReport};
pub use network::{Delivery, Network, NetworkConfig};
pub use runtime::{NodeProgram, Outbox, RoundContext, SyncRuntime};
pub use telemetry::{DeterministicTelemetry, Log2Histogram, Phase, TelemetryReport, WallTelemetry};
