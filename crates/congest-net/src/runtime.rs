//! An actor-style synchronous runtime for protocols written as per-node state
//! machines.
//!
//! This is the classical "each node runs an instance of the same algorithm"
//! execution model of Section 2.1. Protocols that are naturally expressed as
//! per-round message handlers (the classical baselines, convergecast /
//! broadcast primitives, the Cole–Vishkin matching step of Section 5.4)
//! implement [`NodeProgram`]; the [`SyncRuntime`] drives all `n` instances in
//! lock-step against a metered [`Network`].
//!
//! Addressing is strictly KT0: a program only ever names its own ports, and
//! incoming messages are tagged with the port they arrived on.
//!
//! # Steady-state allocation
//!
//! The runtime owns all of its scratch: one inbox swap buffer, one
//! port-tagged delivery buffer, and one [`Outbox`], each reused for every
//! node in every round. Combined with the network's reusable pending/inbox
//! buffers, a steady-state [`step`](SyncRuntime::step) performs **zero heap
//! allocation** (after buffer capacities have warmed up in the first rounds).
//! Halted nodes with empty inboxes are skipped entirely — they cannot send
//! (their program has terminated) and have nothing to receive, so the round
//! cost is proportional to the *active* part of the network.
//!
//! # Event mode
//!
//! The same runtime executes the discrete-event mode of the
//! [`event`](crate::event) module: [`SyncRuntime::set_scheduler`] installs
//! a scheduler adversary on the network, which then skews deliveries at the
//! barrier. The per-node loop is unchanged, so the synchronous scheduler
//! reproduces the round engine by construction.

use rand::rngs::StdRng;

use crate::error::Error;
use crate::event::SchedulerSpec;
use crate::fault::{FaultPlan, NeighborFaultView, TraceEvent};
use crate::graph::{Graph, NodeId, Port};
use crate::message::Payload;
use crate::metrics::Metrics;
use crate::network::{Delivery, Network, NetworkConfig};
use crate::telemetry::{elapsed_nanos, TelemetryReport};

/// The per-round view a node program gets of its environment.
#[derive(Debug)]
pub struct RoundContext<'a> {
    /// This node's identifier (exposed for tracing; protocols that model an
    /// anonymous network should ignore it and rely on randomness instead).
    pub node: NodeId,
    /// This node's degree, i.e. its number of ports.
    pub degree: usize,
    /// The current round number, starting at 0 for the start-up round.
    pub round: u64,
    /// This node's private random stream.
    pub rng: &'a mut StdRng,
    /// The value of the shared coin this round, if the network has one.
    pub shared_coin: Option<f64>,
    /// The installed fault plan's crash schedule, for the failure-detector
    /// queries below (`None` without a plan).
    pub(crate) faults: Option<NeighborFaultView<'a>>,
}

impl RoundContext<'_> {
    /// Whether the neighbour behind local `port` is currently down, per the
    /// installed fault plan — the **perfect failure detector** the runtime
    /// offers to fault-tolerant protocols: it reports exactly the nodes that
    /// are down *this round* (a node inside its crash-recovery window is
    /// reported down; from its recovery round on it is reported up again).
    /// Always `false` without a fault plan.
    ///
    /// # Panics
    ///
    /// Panics if `port >= degree`.
    #[must_use]
    pub fn neighbor_failed(&self, port: Port) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|f| f.neighbor_failed(port))
    }

    /// The ports whose neighbours are currently down (see
    /// [`neighbor_failed`](RoundContext::neighbor_failed)), in ascending
    /// port order. Empty without a fault plan.
    pub fn failed_neighbors(&self) -> impl Iterator<Item = Port> + '_ {
        (0..self.degree).filter(|&p| self.neighbor_failed(p))
    }
}

/// Messages queued by a node for delivery at the end of the current round.
#[derive(Debug)]
pub struct Outbox<M> {
    msgs: Vec<(Port, M)>,
}

impl<M> Outbox<M> {
    pub(crate) fn new() -> Self {
        Outbox { msgs: Vec::new() }
    }

    /// Queues `msg` to be sent through `port`.
    pub fn send(&mut self, port: Port, msg: M) {
        self.msgs.push((port, msg));
    }

    /// Queues `msg` to every port in `0..degree`. The original message is
    /// moved into the last port, so a broadcast costs `degree - 1` clones,
    /// not `degree`.
    pub fn send_all(&mut self, degree: usize, msg: M)
    where
        M: Clone,
    {
        if degree == 0 {
            return;
        }
        for port in 0..degree - 1 {
            self.msgs.push((port, msg.clone()));
        }
        self.msgs.push((degree - 1, msg));
    }

    /// Number of queued messages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// Whether the outbox is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }
}

/// A per-node state machine driven by the [`SyncRuntime`].
///
/// `Send` is required so a whole run can execute on a worker thread of the
/// pool (seed sweeps and the scenario farm run cells in parallel); programs
/// are per-node protocol state (plain data), so this costs implementors
/// nothing.
///
/// Programs never see *who* mutated a payload: under a Byzantine window
/// ([`FaultPlan::byzantine`](crate::fault::FaultPlan::byzantine)) the fault
/// barrier rewrites a lying node's outgoing messages through
/// [`Payload::mutate`] — the protocol's *wire-corruption model*, the only
/// code path that rewrites payloads. A protocol that wants its control flow
/// to genuinely diverge under mutation implements `mutate` on its message
/// type (conventionally: flip one uniformly-chosen bit of the wire
/// encoding) and detects or mis-adopts the corruption in
/// [`on_round`](NodeProgram::on_round), as
/// [`FloodBft`](crate::programs::FloodBft) does with its checksum tag.
pub trait NodeProgram: Send {
    /// The message type exchanged by this protocol.
    type Msg: Payload;

    /// Called once, before the first round, to let the node send its initial
    /// messages.
    fn on_start(&mut self, ctx: &mut RoundContext<'_>, outbox: &mut Outbox<Self::Msg>);

    /// Called every round with the messages delivered this round (tagged with
    /// the local port they arrived through).
    fn on_round(
        &mut self,
        ctx: &mut RoundContext<'_>,
        incoming: &[(Port, Self::Msg)],
        outbox: &mut Outbox<Self::Msg>,
    );

    /// Called instead of [`on_round`](NodeProgram::on_round) at the node's
    /// recovery round, when the installed
    /// [`FaultPlan`] has a crash-recovery window
    /// for this node (see
    /// [`FaultPlan::crash_recover`](crate::fault::FaultPlan::crash_recover)).
    ///
    /// The node rebooted: whatever this hook leaves in `self` is the state
    /// the node resumes with, and the messages it queues in `outbox` are its
    /// first sends. The default implementation keeps the pre-crash state and
    /// sends nothing — protocols that model a genuine reboot should reset
    /// their fields to the initial state here. The node's inbox is
    /// guaranteed empty at this point: messages that would have been
    /// observed at the recovery round were addressed to the pre-reboot
    /// incarnation and were dropped at the barrier.
    fn on_recover(&mut self, ctx: &mut RoundContext<'_>, outbox: &mut Outbox<Self::Msg>) {
        let _ = (ctx, outbox);
    }

    /// Whether this node has terminated. The runtime stops when every node
    /// has halted (or the round limit is reached).
    ///
    /// A halted node must send nothing and stay halted *as long as its inbox
    /// stays empty* — the runtime relies on this to skip halted nodes whose
    /// inboxes are empty. Receiving a message may legitimately un-halt a
    /// node (fault-tolerant protocols use this to serve retransmission
    /// requests from recovered neighbours).
    fn halted(&self) -> bool;
}

/// Drives `n` instances of a [`NodeProgram`] in synchronous rounds.
#[derive(Debug)]
pub struct SyncRuntime<P: NodeProgram> {
    net: Network<P::Msg>,
    programs: Vec<P>,
    round: u64,
    /// Reusable buffer the per-node inbox is swapped into (capacity rotates
    /// through the network's inbox pool — see [`Network::swap_inbox`]).
    inbox_scratch: Vec<Delivery<P::Msg>>,
    /// Reusable `(arrival port, message)` view handed to programs.
    incoming: Vec<(Port, P::Msg)>,
    /// Reusable outbox handed to programs; drained after each callback.
    outbox: Outbox<P::Msg>,
    /// Reusable drain buffer for flushing the outbox while the network is
    /// borrowed mutably.
    flush_scratch: Vec<(Port, P::Msg)>,
}

impl<P: NodeProgram> SyncRuntime<P> {
    /// Creates a runtime over `graph`, instantiating each node's program with
    /// `init(node, degree)` — the only knowledge a KT0 node starts with.
    #[must_use]
    pub fn new(
        graph: Graph,
        config: NetworkConfig,
        mut init: impl FnMut(NodeId, usize) -> P,
    ) -> Self {
        let programs = (0..graph.node_count())
            .map(|v| init(v, graph.degree(v)))
            .collect();
        SyncRuntime {
            net: Network::new(graph, config),
            programs,
            round: 0,
            inbox_scratch: Vec::new(),
            incoming: Vec::new(),
            outbox: Outbox::new(),
            flush_scratch: Vec::new(),
        }
    }

    /// Installs a [`FaultPlan`] on the underlying network (see
    /// [`Network::set_fault_plan`]); call before [`start`](SyncRuntime::start).
    /// Crashed nodes are skipped, and their traffic is dropped at the
    /// barrier.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        self.net.set_fault_plan(plan);
    }

    /// Installs a scheduler adversary on the underlying network (see
    /// [`Network::set_scheduler`]), which runs the programs in the
    /// discrete-event mode; call before [`start`](SyncRuntime::start).
    /// Fault verdicts are judged first at the barrier; the scheduler skews
    /// only the messages the plan delivers.
    ///
    /// ```
    /// use congest_net::programs::Flood;
    /// use congest_net::{topology, NetworkConfig, SchedulerSpec, SyncRuntime};
    ///
    /// # fn main() -> Result<(), congest_net::Error> {
    /// let graph = topology::cycle(8)?;
    /// let mut runtime =
    ///     SyncRuntime::new(graph, NetworkConfig::with_seed(7), |v, _| Flood::new(v == 0));
    /// runtime.set_scheduler(&SchedulerSpec::worst_case(2));
    /// let time = runtime.run_until_halt(1_000)?;
    /// assert!(runtime.all_halted());
    /// // Holding every message for 2 extra ticks stretches the flood beyond
    /// // the cycle's synchronous completion time.
    /// assert!(time > 5);
    /// # Ok(())
    /// # }
    /// ```
    pub fn set_scheduler(&mut self, spec: &SchedulerSpec) {
        self.net.set_scheduler(spec);
    }

    /// Turns on the network's trace sink (see [`Network::enable_trace`]).
    pub fn enable_trace(&mut self) {
        self.net.enable_trace();
    }

    /// Installs the opt-in telemetry sidecar (see
    /// [`Network::enable_telemetry`]); call before
    /// [`start`](SyncRuntime::start). With telemetry on, each round
    /// additionally records a node-step wall-clock span. Strictly outside
    /// the determinism domain: metrics, history, traces, and RNG streams are
    /// byte-identical with telemetry on or off.
    pub fn enable_telemetry(&mut self) {
        self.net.enable_telemetry();
    }

    /// Harvests the telemetry sidecar into a
    /// [`TelemetryReport`] (see [`Network::take_telemetry`]). `None` if
    /// telemetry was never enabled.
    pub fn take_telemetry(&mut self) -> Option<TelemetryReport> {
        self.net.take_telemetry()
    }

    /// Takes the events recorded so far (see [`Network::take_trace`]).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.net.take_trace()
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

    /// Runs until every node halts or `max_rounds` rounds have elapsed.
    /// Returns the number of rounds executed (including the start-up round).
    ///
    /// # Errors
    ///
    /// Propagates network errors (invalid port, oversized message, busy
    /// edge), which indicate a bug in the protocol implementation.
    pub fn run_until_halt(&mut self, max_rounds: u64) -> Result<u64, Error> {
        self.start()?;
        while self.round < max_rounds && !self.all_halted() {
            self.step()?;
        }
        Ok(self.round)
    }

    /// Executes only the start-up callbacks (round 0 sends).
    ///
    /// # Errors
    ///
    /// Propagates network errors from the queued sends.
    pub fn start(&mut self) -> Result<(), Error> {
        debug_assert_eq!(self.round, 0, "start() called twice");
        self.run_round()
    }

    /// Executes one full round: delivery, per-node handlers, and sends.
    ///
    /// Steady-state this performs no heap allocation and skips halted nodes
    /// with empty inboxes entirely.
    ///
    /// # Errors
    ///
    /// Propagates network errors from the queued sends.
    pub fn step(&mut self) -> Result<(), Error> {
        debug_assert!(self.round > 0, "step() before start()");
        self.run_round()
    }

    /// Whether every node program has halted. A **permanently** crashed
    /// node counts as halted: it executes nothing ever again, so waiting on
    /// its program state would spin
    /// [`run_until_halt`](SyncRuntime::run_until_halt) through the whole
    /// round budget on every crash-stop scenario. A node inside a
    /// crash-recovery window does *not* count as halted — it will
    /// participate again, so the run must continue at least until its
    /// recovery round.
    #[must_use]
    pub fn all_halted(&self) -> bool {
        self.programs.iter().enumerate().all(|(v, p)| {
            if self.net.node_crashed(v) {
                // Down now: final iff it never comes back. The pre-crash
                // program state is irrelevant — a recovering node reboots.
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

    /// Runs every node's callback for the current round (`on_start` in
    /// round 0), then advances the network through the barrier.
    fn run_round(&mut self) -> Result<(), Error> {
        let shared = self.shared_value();
        let node_step_start = self.net.telemetry_enabled().then(std::time::Instant::now);
        for v in 0..self.programs.len() {
            self.step_node(v, shared)?;
        }
        if let Some(start) = node_step_start {
            self.net.record_node_step(elapsed_nanos(start));
        }
        self.net.advance_round();
        self.round += 1;
        Ok(())
    }

    /// The per-node body of every round: recover, skip crashed, skip halted
    /// with an empty inbox, translate the inbox, run the callback, flush.
    #[inline]
    fn step_node(&mut self, v: NodeId, shared_coin: Option<f64>) -> Result<(), Error> {
        // A rebooted node runs `on_recover` instead of the ordinary callback
        // at its recovery round. Its inbox is empty: the barrier dropped
        // everything addressed to the pre-crash incarnation. (No node
        // recovers at round 0, because a crash-recovery window `[from,
        // until)` needs `from < until`.)
        let recovering = self.net.node_recovered_this_round(v);
        if !recovering {
            let inbox_empty = self.net.inbox(v).is_empty();
            // A halted node sends nothing and, with an empty inbox, observes
            // nothing: skip it without touching any buffer. Every node
            // starts, so round 0 skips nobody. This is the common case of a
            // sparse round, so it is tested before the crash check.
            if inbox_empty && self.round > 0 && self.programs[v].halted() {
                return Ok(());
            }
            // A crashed node computes nothing (the barrier keeps its inbox
            // empty).
            if self.net.node_crashed(v) {
                return Ok(());
            }
            if inbox_empty {
                self.incoming.clear();
            } else {
                // Translate (sender, port, msg) deliveries into (receiving
                // port, msg) pairs: KT0 nodes see ports, not identifiers.
                // The arrival port was already resolved at send time.
                self.net.swap_inbox(v, &mut self.inbox_scratch);
                self.incoming.clear();
                self.incoming.extend(
                    self.inbox_scratch
                        .drain(..)
                        .map(|(_, port, msg)| (port, msg)),
                );
            }
        }
        let degree = self.net.graph().degree(v);
        let (rng, faults) = self.net.ctx_parts(v);
        let mut ctx = RoundContext {
            node: v,
            degree,
            round: self.round,
            rng,
            shared_coin,
            faults,
        };
        let program = &mut self.programs[v];
        if recovering {
            program.on_recover(&mut ctx, &mut self.outbox);
        } else if self.round == 0 {
            program.on_start(&mut ctx, &mut self.outbox);
        } else {
            program.on_round(&mut ctx, &self.incoming, &mut self.outbox);
        }
        if self.outbox.is_empty() {
            return Ok(());
        }
        self.flush_outbox(v)
    }

    /// Sends everything queued in the shared outbox on behalf of `v`.
    ///
    /// The outbox contents are swapped into a scratch buffer first so the
    /// network can be borrowed mutably while draining; both buffers are
    /// reused across calls.
    fn flush_outbox(&mut self, v: NodeId) -> Result<(), Error> {
        std::mem::swap(&mut self.outbox.msgs, &mut self.flush_scratch);
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
    use crate::topology;

    #[test]
    fn flooding_terminates_in_diameter_rounds() {
        let graph = topology::cycle(10).unwrap();
        let diameter = graph.diameter() as u64;
        let mut runtime = SyncRuntime::new(graph, NetworkConfig::with_seed(3), |v, _| {
            Flood::new(v == 0)
        });
        let rounds = runtime.run_until_halt(100).unwrap();
        assert!(runtime.all_halted());
        assert!(rounds <= diameter + 2);
        // Flooding sends at most 2 messages per edge.
        assert!(runtime.metrics().classical_messages <= 2 * 10);
    }

    #[test]
    fn run_respects_round_limit() {
        // Nobody ever halts (no node starts with the token).
        let graph = topology::path(4).unwrap();
        let mut runtime =
            SyncRuntime::new(graph, NetworkConfig::with_seed(3), |_, _| Flood::new(false));
        let rounds = runtime.run_until_halt(17).unwrap();
        assert_eq!(rounds, 17);
        assert!(!runtime.all_halted());
    }

    #[test]
    fn into_parts_returns_programs_and_metrics() {
        let graph = topology::complete(4).unwrap();
        let mut runtime = SyncRuntime::new(graph, NetworkConfig::with_seed(3), |v, _| {
            Flood::new(v == 0)
        });
        runtime.run_until_halt(10).unwrap();
        let (programs, metrics) = runtime.into_parts();
        assert_eq!(programs.len(), 4);
        assert!(metrics.classical_messages > 0);
        assert!(metrics.rounds > 0);
    }

    #[test]
    fn shared_coin_is_visible_to_programs_when_configured() {
        #[derive(Debug)]
        struct CoinWatcher {
            saw: Option<f64>,
        }
        impl NodeProgram for CoinWatcher {
            type Msg = bool;
            fn on_start(&mut self, ctx: &mut RoundContext<'_>, _outbox: &mut Outbox<bool>) {
                self.saw = ctx.shared_coin;
            }
            fn on_round(
                &mut self,
                _ctx: &mut RoundContext<'_>,
                _incoming: &[(Port, bool)],
                _outbox: &mut Outbox<bool>,
            ) {
            }
            fn halted(&self) -> bool {
                true
            }
        }
        let graph = topology::complete(3).unwrap();
        let mut runtime = SyncRuntime::new(
            graph,
            NetworkConfig::with_seed(3).shared_coin(true),
            |_, _| CoinWatcher { saw: None },
        );
        runtime.run_until_halt(2).unwrap();
        let coins: Vec<_> = runtime.programs().iter().map(|p| p.saw).collect();
        assert!(coins[0].is_some());
        assert_eq!(coins[0], coins[1]);
        assert_eq!(coins[1], coins[2]);
    }

    #[test]
    fn programs_draw_from_their_private_rng_streams() {
        use rand::Rng;

        // Every node draws from its private stream each round and remembers
        // the draws; they must be exactly node v's stream of a network built
        // from the same seed, which fails loudly if the runtime hands node v
        // another node's stream.
        #[derive(Debug)]
        struct Roller {
            draws: Vec<u64>,
        }
        impl NodeProgram for Roller {
            type Msg = bool;
            fn on_start(&mut self, ctx: &mut RoundContext<'_>, outbox: &mut Outbox<bool>) {
                self.draws.push(ctx.rng.gen());
                outbox.send_all(ctx.degree, true);
            }
            fn on_round(
                &mut self,
                ctx: &mut RoundContext<'_>,
                _incoming: &[(Port, bool)],
                outbox: &mut Outbox<bool>,
            ) {
                self.draws.push(ctx.rng.gen());
                outbox.send_all(ctx.degree, true);
            }
            fn halted(&self) -> bool {
                false
            }
        }
        let graph = topology::cycle(17).unwrap();
        let mut runtime = SyncRuntime::new(graph.clone(), NetworkConfig::with_seed(11), |_, _| {
            Roller { draws: Vec::new() }
        });
        runtime.run_until_halt(6).unwrap();
        let mut reference: Network<bool> = Network::new(graph, NetworkConfig::with_seed(11));
        for (v, program) in runtime.programs().iter().enumerate() {
            let expected: Vec<u64> = (0..6).map(|_| reference.rng(v).gen()).collect();
            assert_eq!(program.draws, expected, "node {v}");
        }
    }

    #[test]
    fn runtime_reports_edge_busy_without_advancing() {
        // A protocol bug (double send on one port) surfaces as `EdgeBusy`.
        #[derive(Debug)]
        struct DoubleSender;
        impl NodeProgram for DoubleSender {
            type Msg = bool;
            fn on_start(&mut self, _ctx: &mut RoundContext<'_>, outbox: &mut Outbox<bool>) {
                outbox.send(0, true);
                outbox.send(0, true);
            }
            fn on_round(
                &mut self,
                _ctx: &mut RoundContext<'_>,
                _incoming: &[(Port, bool)],
                _outbox: &mut Outbox<bool>,
            ) {
            }
            fn halted(&self) -> bool {
                true
            }
        }
        let graph = topology::cycle(8).unwrap();
        let mut runtime = SyncRuntime::new(graph, NetworkConfig::with_seed(1), |_, _| DoubleSender);
        assert!(matches!(runtime.start(), Err(Error::EdgeBusy { .. })));
        // The round aborts at the erroring node, before its barrier.
        assert_eq!(runtime.metrics().rounds, 0);
    }

    #[test]
    fn halted_nodes_with_mail_still_observe_it() {
        // A program that counts deliveries even while "halted": the runtime
        // must not skip a halted node whose inbox is non-empty (its neighbour
        // may have sent in the same round it halted).
        #[derive(Debug)]
        struct Sink {
            sent: bool,
            received: usize,
        }
        impl NodeProgram for Sink {
            type Msg = bool;
            fn on_start(&mut self, ctx: &mut RoundContext<'_>, outbox: &mut Outbox<bool>) {
                if !self.sent {
                    outbox.send_all(ctx.degree, true);
                    self.sent = true;
                }
            }
            fn on_round(
                &mut self,
                _ctx: &mut RoundContext<'_>,
                incoming: &[(Port, bool)],
                _outbox: &mut Outbox<bool>,
            ) {
                self.received += incoming.len();
            }
            fn halted(&self) -> bool {
                true
            }
        }
        let graph = topology::complete(3).unwrap();
        let mut runtime = SyncRuntime::new(graph, NetworkConfig::with_seed(1), |_, _| Sink {
            sent: false,
            received: 0,
        });
        runtime.start().unwrap();
        runtime.step().unwrap();
        // Every node broadcast at start-up, so each received 2 messages
        // despite reporting halted() == true throughout.
        for p in runtime.programs() {
            assert_eq!(p.received, 2);
        }
    }
}
