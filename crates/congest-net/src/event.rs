//! The deterministic discrete-event execution mode for partial synchrony.
//!
//! The round-synchronous engine ([`SyncRuntime`](crate::runtime::SyncRuntime))
//! realises the paper's Section 2.1 model: every message sent in round `r` is
//! delivered at the barrier of round `r`. Partially-synchronous and
//! asynchronous executions — where leader-election lower bounds actually
//! bite — need an *adversarial scheduler* that may hold a message back, as
//! long as it respects a declared delivery bound. This module provides that
//! mode without touching the protocols: the same unmodified
//! [`NodeProgram`]s run under an
//! [`EventRuntime`] whose network carries a [`SchedulerSpec`] — a pluggable,
//! seeded delivery-delay policy consulted at the barrier, in delivery order,
//! for every message the fault plane lets through.
//!
//! # Execution model (the contract, in brief)
//!
//! * **Virtual time** is the round clock: one barrier = one tick. A message
//!   sent at time `t` and skewed by `δ ∈ [0, bound]` matures at time
//!   `t + δ` on the network's global event heap, keyed by
//!   `(due time, delivery-order seq)` — the same heap (and the same
//!   sequence-number stream) that link-latency faults use, so fault delays
//!   and scheduler skews share one total order.
//! * **Per-node logical clocks** count activations: a node's clock ticks
//!   every time one of its callbacks (`on_start` / `on_round` /
//!   `on_recover`) runs. Crashed or skipped (halted, empty-inbox) nodes do
//!   not tick.
//! * **Determinism**: each scheduler draws from a dedicated PRNG stream
//!   (`plan seed ⊕ "SCHEDULE"` salt — like the fault plane's `BYZ_MUTA` /
//!   `ADV_DROP` streams), consulted only at the barrier in delivery order,
//!   so identical `(spec, seed, scheduler)` produce byte-identical metrics,
//!   history, and trace for every shard count.
//! * **Equivalence theorem**: under [`SchedulerKind::Synchronous`] the
//!   policy returns `δ = 0` for every message and consumes no randomness,
//!   so the event engine reproduces the round engine's metrics and history
//!   *byte-for-byte* (pinned by the workspace `event_mode` suite).
//!
//! `docs/EXECUTION_MODELS.md` in the repository root is the authoritative
//! long-form statement of this contract, including the scheduler adversary
//! catalogue and the replay guarantee.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::Error;
use crate::fault::{FaultPlan, TraceEvent};
use crate::graph::{Graph, NodeId, Port};
use crate::metrics::Metrics;
use crate::network::{Delivery, Network, NetworkConfig};
use crate::runtime::{NodeProgram, Outbox, RoundContext};
use crate::telemetry::{elapsed_nanos, TelemetryReport};

/// Seed salt for the dedicated scheduler stream, so installing a scheduler
/// never perturbs the node, drop, mutation, or adversary streams (the same
/// convention as the fault plane's `BYZ_MUTA` / `ADV_DROP` salts).
const SCHEDULER_STREAM_SALT: u64 = 0x5343_4845_4455_4c45; // "SCHEDULE"

/// The scheduler adversary families the event engine ships.
///
/// Every policy is a deterministic function of the spec's seed and the
/// barrier delivery order; none observes payloads or protocol state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Every message is delivered at the barrier of its send round
    /// (`δ = 0`, no randomness). Under this policy the event engine is
    /// byte-identical to the round engine — the equivalence theorem of
    /// `docs/EXECUTION_MODELS.md`.
    Synchronous,
    /// Delays cycle deterministically through `0..=bound` in delivery
    /// order, starting from a seeded initial phase drawn once from the
    /// scheduler stream.
    RoundRobin,
    /// Every message draws an independent uniform delay in `0..=bound`
    /// from the scheduler stream.
    LatencySkew,
    /// Every message is held for the full bound (`δ = bound`, no
    /// randomness) — the canonical bound-saturating partial-synchrony
    /// adversary.
    WorstCase,
}

impl SchedulerKind {
    /// All scheduler kinds, in catalogue order.
    pub const ALL: [SchedulerKind; 4] = [
        SchedulerKind::Synchronous,
        SchedulerKind::RoundRobin,
        SchedulerKind::LatencySkew,
        SchedulerKind::WorstCase,
    ];

    /// The stable textual name used by the `.scn` grammar and the trace
    /// format.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Synchronous => "synchronous",
            SchedulerKind::RoundRobin => "round-robin",
            SchedulerKind::LatencySkew => "latency-skew",
            SchedulerKind::WorstCase => "worst-case",
        }
    }

    /// Parses a scheduler name as emitted by [`name`](SchedulerKind::name).
    #[must_use]
    pub fn parse(text: &str) -> Option<SchedulerKind> {
        SchedulerKind::ALL.into_iter().find(|k| k.name() == text)
    }
}

/// A complete scheduler configuration: which adversary, its delay bound,
/// and the seed of its dedicated PRNG stream.
///
/// Constructed with the per-kind constructors and installed either directly
/// ([`Network::set_scheduler`](crate::Network::set_scheduler)) or through an
/// [`EventRuntime`]; the scenario engine's `.scn` grammar spells it
/// `scheduler = ["name", bound, seed]`.
///
/// # Example
///
/// ```
/// use congest_net::{SchedulerKind, SchedulerSpec};
///
/// // An adversary that skews each message independently by 0..=3 rounds.
/// let skew = SchedulerSpec::latency_skew(3, 42);
/// assert_eq!(skew.kind, SchedulerKind::LatencySkew);
/// assert_eq!((skew.bound, skew.seed), (3, 42));
///
/// // The synchronous policy needs no bound and no seed: it is the round
/// // engine expressed as a (degenerate) scheduler.
/// let sync = SchedulerSpec::synchronous();
/// assert_eq!(sync.bound, 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerSpec {
    /// The adversary family.
    pub kind: SchedulerKind,
    /// The inclusive delay bound: every chosen delay is in `0..=bound`.
    pub bound: u64,
    /// Seed of the dedicated scheduler PRNG stream (salted, so it never
    /// collides with node or fault streams). Unused by the deterministic
    /// `synchronous` / `worst-case` policies but carried for a uniform
    /// `.scn` spelling.
    pub seed: u64,
}

impl SchedulerSpec {
    /// The synchronous scheduler: `δ = 0` for every message, no randomness.
    #[must_use]
    pub fn synchronous() -> Self {
        SchedulerSpec {
            kind: SchedulerKind::Synchronous,
            bound: 0,
            seed: 0,
        }
    }

    /// A round-robin adversary cycling delays through `0..=bound` from a
    /// seeded initial phase.
    ///
    /// ```
    /// use congest_net::SchedulerSpec;
    /// let spec = SchedulerSpec::round_robin(2, 7);
    /// assert_eq!(spec.bound, 2);
    /// ```
    #[must_use]
    pub fn round_robin(bound: u64, seed: u64) -> Self {
        SchedulerSpec {
            kind: SchedulerKind::RoundRobin,
            bound,
            seed,
        }
    }

    /// A latency-skew adversary drawing an independent uniform delay in
    /// `0..=bound` per message.
    ///
    /// ```
    /// use congest_net::SchedulerSpec;
    /// let spec = SchedulerSpec::latency_skew(4, 11);
    /// assert_eq!(spec.bound, 4);
    /// ```
    #[must_use]
    pub fn latency_skew(bound: u64, seed: u64) -> Self {
        SchedulerSpec {
            kind: SchedulerKind::LatencySkew,
            bound,
            seed,
        }
    }

    /// The worst-case adversary: every message is held for the full bound.
    ///
    /// ```
    /// use congest_net::SchedulerSpec;
    /// let spec = SchedulerSpec::worst_case(5);
    /// assert_eq!(spec.bound, 5);
    /// ```
    #[must_use]
    pub fn worst_case(bound: u64) -> Self {
        SchedulerSpec {
            kind: SchedulerKind::WorstCase,
            bound,
            seed: 0,
        }
    }
}

/// Which execution engine drives a protocol run: the round-synchronous
/// engine, or the discrete-event engine under a scheduler adversary.
///
/// This is the value `qle::RunOptions::mode` carries through the scenario
/// stack; [`ExecMode::Round`] is the default everywhere, so existing specs
/// and call sites are unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// The round-synchronous engine (`SyncRuntime`), the paper's model.
    #[default]
    Round,
    /// The discrete-event engine ([`EventRuntime`]) under the given
    /// scheduler adversary.
    Event(SchedulerSpec),
}

/// The live scheduler installed on a [`Network`]: the policy plus its
/// dedicated PRNG stream, round-robin cursor, and virtual clock (advanced in
/// lockstep with the round/fault clocks).
#[derive(Debug)]
pub(crate) struct SchedulerState {
    kind: SchedulerKind,
    bound: u64,
    /// The dedicated salted stream; `Some` only for [`SchedulerKind::LatencySkew`]
    /// (the only policy that draws per message).
    rng: Option<StdRng>,
    /// Round-robin cursor; its initial value is the seeded phase.
    cursor: u64,
    /// The scheduler clock: the time whose sends the next barrier judges.
    /// Starts at 0 and advances with every barrier and skipped round,
    /// exactly like the fault clock.
    pub(crate) clock: u64,
    /// Sum of all chosen delays (exposed for diagnostics/tests).
    pub(crate) total_skew: u64,
}

impl SchedulerState {
    pub(crate) fn new(spec: &SchedulerSpec) -> Self {
        let rng = (spec.kind == SchedulerKind::LatencySkew && spec.bound > 0)
            .then(|| StdRng::seed_from_u64(spec.seed ^ SCHEDULER_STREAM_SALT));
        let cursor = if spec.kind == SchedulerKind::RoundRobin && spec.bound > 0 {
            // The initial phase is the stream's single draw for this policy;
            // afterwards the cycle is purely arithmetic.
            let mut phase = StdRng::seed_from_u64(spec.seed ^ SCHEDULER_STREAM_SALT);
            phase.gen_range(0..=spec.bound)
        } else {
            0
        };
        SchedulerState {
            kind: spec.kind,
            bound: spec.bound,
            rng,
            cursor,
            clock: 0,
            total_skew: 0,
        }
    }

    /// The delivery delay for the next message, in barrier delivery order.
    /// `0` means "deliver at this barrier" — exactly the round-synchronous
    /// behaviour, which is why the synchronous policy (always 0, no RNG)
    /// reproduces the round engine byte-for-byte.
    pub(crate) fn delay(&mut self) -> u64 {
        let delay = match self.kind {
            SchedulerKind::Synchronous => 0,
            SchedulerKind::WorstCase => self.bound,
            SchedulerKind::RoundRobin => {
                if self.bound == 0 {
                    0
                } else {
                    let d = self.cursor % (self.bound + 1);
                    self.cursor += 1;
                    d
                }
            }
            SchedulerKind::LatencySkew => match self.rng.as_mut() {
                Some(rng) => rng.gen_range(0..=self.bound),
                None => 0,
            },
        };
        self.total_skew += delay;
        delay
    }
}

/// Drives `n` instances of a [`NodeProgram`] under the discrete-event
/// engine: the same callbacks, inbox translation, and halting rule as
/// [`SyncRuntime`](crate::runtime::SyncRuntime), but with delivery skewed by
/// the installed scheduler adversary and per-node logical clocks counting
/// activations.
///
/// The event engine always executes **sequentially**, regardless of the
/// network's shard configuration — like the `Network`-direct protocol
/// drivers — so "byte-identical for every shard count" holds trivially for
/// event-mode runs, and the deterministic barrier merge keeps the delivery
/// order (and thus every scheduler decision) identical to what a sharded
/// send sequence would produce.
///
/// # Example
///
/// ```
/// use congest_net::programs::Flood;
/// use congest_net::{topology, EventRuntime, NetworkConfig, SchedulerSpec};
///
/// # fn main() -> Result<(), congest_net::Error> {
/// let graph = topology::cycle(8)?;
/// let mut runtime = EventRuntime::new(
///     graph,
///     NetworkConfig::with_seed(7),
///     SchedulerSpec::worst_case(2),
///     |v, _| Flood::new(v == 0),
/// );
/// let time = runtime.run(1_000)?;
/// assert!(runtime.all_halted());
/// // Holding every message for 2 extra ticks stretches the flood beyond
/// // the cycle's synchronous completion time.
/// assert!(time > 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct EventRuntime<P: NodeProgram> {
    net: Network<P::Msg>,
    programs: Vec<P>,
    /// Global virtual time: the number of barriers executed (1 tick each).
    time: u64,
    /// Per-node logical clocks: activation counts (see the module docs).
    local_clocks: Vec<u64>,
    /// Reusable buffers, mirroring the sequential `SyncRuntime` scratch.
    inbox_scratch: Vec<Delivery<P::Msg>>,
    incoming: Vec<(Port, P::Msg)>,
    outbox: Outbox<P::Msg>,
    flush_scratch: Vec<(Port, P::Msg)>,
}

impl<P: NodeProgram> EventRuntime<P> {
    /// Creates an event runtime over `graph` under `scheduler`,
    /// instantiating each node's program with `init(node, degree)` — the
    /// same KT0 initialisation contract as
    /// [`SyncRuntime::new`](crate::runtime::SyncRuntime::new).
    #[must_use]
    pub fn new(
        graph: Graph,
        config: NetworkConfig,
        scheduler: SchedulerSpec,
        mut init: impl FnMut(NodeId, usize) -> P,
    ) -> Self {
        let programs: Vec<P> = (0..graph.node_count())
            .map(|v| init(v, graph.degree(v)))
            .collect();
        let mut net = Network::new(graph, config);
        net.set_scheduler(&scheduler);
        let n = programs.len();
        EventRuntime {
            net,
            programs,
            time: 0,
            local_clocks: vec![0; n],
            inbox_scratch: Vec::new(),
            incoming: Vec::new(),
            outbox: Outbox::new(),
            flush_scratch: Vec::new(),
        }
    }

    /// Installs a [`FaultPlan`] on the underlying network; call before
    /// [`run`](EventRuntime::run). Fault verdicts are judged first at the
    /// barrier; the scheduler skews only the messages the plan delivers
    /// (fault-delayed messages keep their fault latency — no double skew).
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        self.net.set_fault_plan(plan);
    }

    /// Turns on the network's trace sink (see
    /// [`Network::enable_trace`](crate::Network::enable_trace)); scheduler
    /// decisions surface as `MessageScheduled` events.
    pub fn enable_trace(&mut self) {
        self.net.enable_trace();
    }

    /// Takes the events recorded so far (see
    /// [`Network::take_trace`](crate::Network::take_trace)).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.net.take_trace()
    }

    /// Installs the opt-in telemetry sidecar (see
    /// [`Network::enable_telemetry`](crate::Network::enable_telemetry));
    /// call before [`run`](EventRuntime::run). Event-mode runs additionally
    /// populate the heap-depth and scheduler-skew histograms, sampled at
    /// every barrier. Strictly outside the determinism domain.
    pub fn enable_telemetry(&mut self) {
        self.net.enable_telemetry();
    }

    /// Harvests the telemetry sidecar into a [`TelemetryReport`] (see
    /// [`Network::take_telemetry`](crate::Network::take_telemetry)).
    pub fn take_telemetry(&mut self) -> Option<TelemetryReport> {
        self.net.take_telemetry()
    }

    /// The underlying network (for metric inspection).
    #[must_use]
    pub fn network(&self) -> &Network<P::Msg> {
        &self.net
    }

    /// The per-node programs.
    #[must_use]
    pub fn programs(&self) -> &[P] {
        &self.programs
    }

    /// Cumulative metrics so far.
    #[must_use]
    pub fn metrics(&self) -> Metrics {
        self.net.metrics()
    }

    /// The global virtual time (barriers executed so far).
    #[must_use]
    pub fn time(&self) -> u64 {
        self.time
    }

    /// The per-node logical clocks: how many times each node's callbacks
    /// have run (see the module docs for the tick rule).
    #[must_use]
    pub fn local_clocks(&self) -> &[u64] {
        &self.local_clocks
    }

    /// Runs until every node halts or `max_time` ticks have elapsed.
    /// Returns the virtual time reached (including the start-up tick).
    ///
    /// # Errors
    ///
    /// Propagates network errors (invalid port, oversized message, busy
    /// edge), which indicate a bug in the protocol implementation.
    pub fn run(&mut self, max_time: u64) -> Result<u64, Error> {
        self.start()?;
        while self.time < max_time && !self.all_halted() {
            self.step()?;
        }
        Ok(self.time)
    }

    /// Executes only the start-up callbacks (time-0 sends).
    ///
    /// # Errors
    ///
    /// Propagates network errors from the queued sends.
    pub fn start(&mut self) -> Result<(), Error> {
        debug_assert_eq!(self.time, 0, "start() called twice");
        let shared = self.shared_value();
        let node_step_start = self.net.telemetry_enabled().then(std::time::Instant::now);
        // Same per-node body as the sequential `SyncRuntime::start`, plus
        // the logical-clock tick (no recovery check: a crash-recovery window
        // `[from, until)` needs `from < until`, so nothing recovers at 0).
        for v in 0..self.programs.len() {
            if self.net.node_crashed(v) {
                continue;
            }
            let degree = self.net.graph().degree(v);
            {
                let (rng, faults) = self.net.ctx_parts(v);
                let mut ctx = RoundContext {
                    node: v,
                    degree,
                    round: 0,
                    rng,
                    shared_coin: shared,
                    faults,
                };
                self.programs[v].on_start(&mut ctx, &mut self.outbox);
            }
            self.local_clocks[v] += 1;
            self.flush_outbox(v)?;
        }
        if let Some(start) = node_step_start {
            self.net.record_node_step(elapsed_nanos(start));
        }
        self.net.advance_round();
        self.time = 1;
        Ok(())
    }

    /// Executes one tick: delivery (matured heap entries first, then this
    /// tick's sends as skewed by the scheduler), per-node handlers, sends.
    ///
    /// # Errors
    ///
    /// Propagates network errors from the queued sends.
    pub fn step(&mut self) -> Result<(), Error> {
        let shared = self.shared_value();
        let node_step_start = self.net.telemetry_enabled().then(std::time::Instant::now);
        // Same per-node body as the sequential `SyncRuntime::step`, plus the
        // logical-clock ticks; see the mirroring note on `run_shard_round`.
        for v in 0..self.programs.len() {
            if self.net.node_recovered_this_round(v) {
                let degree = self.net.graph().degree(v);
                {
                    let (rng, faults) = self.net.ctx_parts(v);
                    let mut ctx = RoundContext {
                        node: v,
                        degree,
                        round: self.time,
                        rng,
                        shared_coin: shared,
                        faults,
                    };
                    self.programs[v].on_recover(&mut ctx, &mut self.outbox);
                }
                self.local_clocks[v] += 1;
                if !self.outbox.is_empty() {
                    self.flush_outbox(v)?;
                }
                continue;
            }
            let inbox_empty = self.net.inbox(v).is_empty();
            if inbox_empty && self.programs[v].halted() {
                continue;
            }
            if self.net.node_crashed(v) {
                continue;
            }
            if inbox_empty {
                self.incoming.clear();
            } else {
                self.net.swap_inbox(v, &mut self.inbox_scratch);
                self.incoming.clear();
                self.incoming.extend(
                    self.inbox_scratch
                        .drain(..)
                        .map(|(_, port, msg)| (port, msg)),
                );
            }
            let degree = self.net.graph().degree(v);
            {
                let (rng, faults) = self.net.ctx_parts(v);
                let mut ctx = RoundContext {
                    node: v,
                    degree,
                    round: self.time,
                    rng,
                    shared_coin: shared,
                    faults,
                };
                self.programs[v].on_round(&mut ctx, &self.incoming, &mut self.outbox);
            }
            self.local_clocks[v] += 1;
            if !self.outbox.is_empty() {
                self.flush_outbox(v)?;
            }
        }
        if let Some(start) = node_step_start {
            self.net.record_node_step(elapsed_nanos(start));
        }
        self.net.advance_round();
        self.time += 1;
        Ok(())
    }

    /// Whether every node program has halted, with the same
    /// permanently-down rule as
    /// [`SyncRuntime::all_halted`](crate::runtime::SyncRuntime::all_halted).
    #[must_use]
    pub fn all_halted(&self) -> bool {
        self.programs.iter().enumerate().all(|(v, p)| {
            if self.net.node_crashed(v) {
                self.net.node_permanently_down(v)
            } else {
                p.halted()
            }
        })
    }

    /// Consumes the runtime and returns the programs and final metrics.
    #[must_use]
    pub fn into_parts(self) -> (Vec<P>, Metrics) {
        let metrics = self.net.metrics();
        (self.programs, metrics)
    }

    fn shared_value(&mut self) -> Option<f64> {
        self.net.shared_coin_uniform().ok()
    }

    fn flush_outbox(&mut self, v: NodeId) -> Result<(), Error> {
        std::mem::swap(self.outbox.msgs_mut(), &mut self.flush_scratch);
        self.net.reserve_sends(v, self.flush_scratch.len());
        for (port, msg) in self.flush_scratch.drain(..) {
            self.net.send_through_port(v, port, msg)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::Flood;
    use crate::runtime::SyncRuntime;
    use crate::topology;

    fn sync_flood(n: usize, seed: u64, shards: usize) -> (u64, Metrics, Vec<crate::RoundReport>) {
        let graph = topology::cycle(n).unwrap();
        let mut rt = SyncRuntime::new(
            graph,
            NetworkConfig::with_seed(seed)
                .shards(shards)
                .track_history(true),
            |v, _| Flood::new(v == 0),
        );
        let rounds = rt.run_until_halt(10_000).unwrap();
        let history = rt.network().round_history().to_vec();
        (rounds, rt.metrics(), history)
    }

    fn event_flood(
        n: usize,
        seed: u64,
        spec: SchedulerSpec,
    ) -> (u64, Metrics, Vec<crate::RoundReport>) {
        let graph = topology::cycle(n).unwrap();
        let mut rt = EventRuntime::new(
            graph,
            NetworkConfig::with_seed(seed).track_history(true),
            spec,
            |v, _| Flood::new(v == 0),
        );
        let time = rt.run(10_000).unwrap();
        let history = rt.network().round_history().to_vec();
        (time, rt.metrics(), history)
    }

    #[test]
    fn synchronous_scheduler_matches_round_engine() {
        for seed in [1u64, 7, 23] {
            let sync = sync_flood(24, seed, 1);
            let event = event_flood(24, seed, SchedulerSpec::synchronous());
            assert_eq!(event, sync, "seed = {seed}");
            assert_eq!(event.1.scheduled_messages, 0);
        }
    }

    #[test]
    fn worst_case_stretches_completion_by_the_bound() {
        let sync = sync_flood(16, 3, 1);
        for bound in [1u64, 2, 4] {
            let event = event_flood(16, 3, SchedulerSpec::worst_case(bound));
            // Every hop pays `bound` extra ticks, so completion stretches by
            // a factor of roughly `bound + 1`.
            assert!(
                event.0 >= sync.0 + bound,
                "bound = {bound}: {} vs {}",
                event.0,
                sync.0
            );
            assert!(event.1.scheduled_messages > 0);
            // Skew reorders delivery, never creates or destroys messages.
            assert_eq!(event.1.classical_messages, sync.1.classical_messages);
        }
    }

    #[test]
    fn schedulers_replay_byte_identically() {
        for spec in [
            SchedulerSpec::round_robin(3, 9),
            SchedulerSpec::latency_skew(3, 9),
            SchedulerSpec::worst_case(3),
        ] {
            let a = event_flood(20, 5, spec);
            let b = event_flood(20, 5, spec);
            assert_eq!(a, b, "{spec:?}");
        }
    }

    #[test]
    fn scheduler_seed_changes_latency_skew_behaviour() {
        let a = event_flood(32, 5, SchedulerSpec::latency_skew(5, 1));
        let b = event_flood(32, 5, SchedulerSpec::latency_skew(5, 2));
        // Same message count either way; the schedule (and typically the
        // completion time or history) differs.
        assert_eq!(a.1.classical_messages, b.1.classical_messages);
        assert_ne!((a.0, a.2.clone()), (b.0, b.2.clone()));
    }

    #[test]
    fn round_robin_cycles_through_the_bound() {
        let mut state = SchedulerState::new(&SchedulerSpec::round_robin(2, 4));
        let first: Vec<u64> = (0..6).map(|_| state.delay()).collect();
        // Cycles with period bound + 1 = 3, from a seeded phase.
        assert_eq!(first[0..3], first[3..6]);
        assert!(first.iter().all(|&d| d <= 2));
    }

    #[test]
    fn latency_skew_respects_the_bound() {
        let mut state = SchedulerState::new(&SchedulerSpec::latency_skew(4, 8));
        for _ in 0..200 {
            assert!(state.delay() <= 4);
        }
        assert!(state.total_skew > 0);
    }

    #[test]
    fn local_clocks_count_activations() {
        let graph = topology::cycle(6).unwrap();
        let mut rt = EventRuntime::new(
            graph,
            NetworkConfig::with_seed(2),
            SchedulerSpec::synchronous(),
            |v, _| Flood::new(v == 0),
        );
        rt.run(100).unwrap();
        // Every node was activated at least at start-up; the source keeps
        // its head start.
        assert!(rt.local_clocks().iter().all(|&c| c >= 1));
        assert_eq!(rt.local_clocks().len(), 6);
    }

    #[test]
    fn scheduler_composes_with_fault_latency_without_double_skew() {
        let graph = topology::cycle(12).unwrap();
        let run = |with_sched: bool| {
            let mut rt = EventRuntime::new(
                graph.clone(),
                NetworkConfig::with_seed(3),
                if with_sched {
                    SchedulerSpec::worst_case(1)
                } else {
                    SchedulerSpec::synchronous()
                },
                |v, _| Flood::new(v == 0),
            );
            rt.set_fault_plan(&FaultPlan::new(0).link_latency(0, 1, 4));
            rt.enable_trace();
            rt.run(10_000).unwrap();
            let trace = rt.take_trace();
            (rt.metrics(), trace)
        };
        let (m, trace) = run(true);
        // Fault-delayed messages keep their fault latency and are not also
        // scheduler-parked: the two counters tally disjoint messages.
        assert!(m.delayed_messages > 0);
        assert!(m.scheduled_messages > 0);
        let delayed_events = trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::MessageDelayed { .. }))
            .count() as u64;
        let scheduled_events = trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::MessageScheduled { .. }))
            .count() as u64;
        assert_eq!(delayed_events, m.delayed_messages);
        assert_eq!(scheduled_events, m.scheduled_messages);
    }

    #[test]
    fn scheduler_kind_names_round_trip() {
        for kind in SchedulerKind::ALL {
            assert_eq!(SchedulerKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(SchedulerKind::parse("nonsense"), None);
    }
}
