//! The continuous ordering-invariant oracle.
//!
//! An [`Oracle`] incrementally verifies the paper's delivery guarantees
//! on every observation, not just at test end. It reads plain records
//! through four calls — [`Oracle::on_delivery`], [`Oracle::on_user_event`],
//! [`Oracle::on_ctrl_action`] and [`Oracle::on_barrier_sample`] — so the
//! campaign runner feeds it what the simulated cluster recorded and a UDP
//! test feeds it what its processes received. It checks:
//!
//! 1. **Total order** (§4.1): each receiver delivers messages in strictly
//!    increasing `(timestamp, sender, seq)` order *per service channel*
//!    (best-effort and reliable are separately ordered streams — the
//!    reliable channel's commit barrier lags the best-effort barrier, so
//!    the combined stream interleaves). Because the order key is a total
//!    order, per-receiver monotonicity implies one global order consistent
//!    at all receivers of a channel.
//! 2. **Causality** (§3, eq. 3.1): timestamp order respects happens-before
//!    — a process never sends with a timestamp below one it has already
//!    delivered, and its own send timestamps never regress.
//! 3. **At-most-once**: no `(receiver, order key)` pair is delivered twice
//!    (the campaign workload sends each receiver at most one message per
//!    scattering, registered via [`Oracle::register_send`]).
//! 4. **Restricted failure atomicity** (§5.2): for every registered
//!    reliable scattering, the non-failed receivers deliver all-or-none;
//!    a `Committed` scattering is delivered by every live receiver and a
//!    `Recalled` one by none. Checked in [`Oracle::finalize`] once the
//!    run has drained.
//! 5. **Barrier monotonicity** (§4.1): each endpoint's best-effort and
//!    commit barriers never regress between snapshots.
//!
//! The first violation is kept with a human-readable description; the
//! campaign runner attaches the fault schedule that produced it.

use onepipe_controller::CtrlAction;
use onepipe_core::events::UserEvent;
use onepipe_core::simhost::DeliveryRecord;
use onepipe_types::ids::{NodeId, ProcessId};
use onepipe_types::message::OrderKey;
use onepipe_types::time::Timestamp;
use std::collections::{HashMap, HashSet};

/// Which of the checked invariants was violated.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InvariantKind {
    /// A receiver delivered out of `(ts, sender, seq)` order.
    TotalOrder,
    /// A send's timestamp fell below a timestamp it already observed.
    Causality,
    /// The same `(receiver, order key)` was delivered twice.
    AtMostOnce,
    /// A reliable scattering was partially delivered among live receivers.
    Atomicity,
    /// An endpoint's barrier regressed.
    BarrierMonotonicity,
    /// A controller leader emitted the same recovery decision twice in
    /// one epoch: re-driving an in-flight recovery is only legitimate
    /// from a *new* epoch (failover); within an epoch it is a duplicate.
    CtrlExactlyOnce,
    /// Recovery never completed: the controller still had pending
    /// failures after the run drained (a hung reliable channel).
    RecoveryLiveness,
    /// A stream log's offsets were not dense `0, 1, 2, …` at some
    /// observer (gap, reorder, or duplicate record).
    StreamOrder,
    /// A client's batch sequences did not appear in contiguous order
    /// within its stream (per-client order inside the total order).
    ClientSeqOrder,
    /// Two observers of the same stream disagreed on the record at an
    /// offset (replica/subscriber divergence).
    StreamDivergence,
}

impl std::fmt::Display for InvariantKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            InvariantKind::TotalOrder => "total-order",
            InvariantKind::Causality => "causality",
            InvariantKind::AtMostOnce => "at-most-once",
            InvariantKind::Atomicity => "atomicity",
            InvariantKind::BarrierMonotonicity => "barrier-monotonicity",
            InvariantKind::CtrlExactlyOnce => "ctrl-exactly-once",
            InvariantKind::RecoveryLiveness => "recovery-liveness",
            InvariantKind::StreamOrder => "stream-order",
            InvariantKind::ClientSeqOrder => "client-seq-order",
            InvariantKind::StreamDivergence => "stream-divergence",
        };
        f.write_str(s)
    }
}

/// Identity of one controller decision for per-epoch deduplication.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum CtrlDecision {
    /// `Announce { id, to }` — one per announcement per recipient.
    Announce(u64, ProcessId),
    /// `Resume { at, input }` — one per quarantined input link.
    Resume(NodeId, NodeId),
}

/// One invariant violation, with enough context to debug it.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Which invariant broke.
    pub kind: InvariantKind,
    /// True simulation time of the violating observation (or of
    /// finalization, for atomicity).
    pub at: u64,
    /// Human-readable description of the offending observation.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] t={}ns: {}", self.kind, self.at, self.detail)
    }
}

/// Bookkeeping for one registered scattering.
#[derive(Debug)]
struct ScatterState {
    ts: Timestamp,
    receivers: Vec<ProcessId>,
    delivered: HashSet<ProcessId>,
    reliable: bool,
    committed: bool,
    recalled: bool,
}

/// The invariant oracle. Register every workload send with
/// [`Oracle::register_send`], feed it what the run recorded — before the
/// next send, so causality sees deliveries ahead of the sends they
/// precede — and call [`Oracle::finalize`] after the run has drained.
#[derive(Default)]
pub struct Oracle {
    /// Last delivered order key per `(receiver, reliable-channel)` pair
    /// (total order; the two service channels are separately ordered).
    last_delivered: HashMap<(ProcessId, bool), OrderKey>,
    /// Highest timestamp each process has observed: delivered to it, or
    /// sent by it (causality).
    observed_ts: HashMap<ProcessId, Timestamp>,
    /// Every `(receiver, key)` delivered so far (at-most-once).
    seen: HashSet<(ProcessId, OrderKey)>,
    /// Registered scatterings by `(sender, seq)` (atomicity).
    scatterings: HashMap<(ProcessId, u64), ScatterState>,
    /// Last barrier snapshot per endpoint (monotonicity).
    barriers: HashMap<ProcessId, (Timestamp, Timestamp)>,
    /// Controller decisions seen, keyed by `(epoch, decision identity)`
    /// (exactly-once per epoch).
    ctrl_seen: HashSet<(u64, CtrlDecision)>,
    /// All violations, in observation order (first is authoritative).
    violations: Vec<Violation>,
    /// Count of observations fed to the oracle (diagnostics).
    pub observations: u64,
    finalized: bool,
}

/// Cap on recorded violations — one is authoritative, a few more help
/// debugging, and an unbounded log could swamp a badly broken run.
const MAX_VIOLATIONS: usize = 32;

impl Oracle {
    /// A fresh oracle with no observations.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a workload send so deliveries can be joined back to it.
    /// `receivers` must list each destination at most once (the campaign
    /// workload guarantees this).
    pub fn register_send(
        &mut self,
        at: u64,
        sender: ProcessId,
        seq: u64,
        ts: Timestamp,
        receivers: Vec<ProcessId>,
        reliable: bool,
    ) {
        // Causality, send side: the new timestamp may not fall below
        // anything this process has already sent or delivered.
        if let Some(&prev) = self.observed_ts.get(&sender) {
            if ts < prev {
                self.record(Violation {
                    kind: InvariantKind::Causality,
                    at,
                    detail: format!(
                        "{sender:?} sent seq {seq} with ts {} below its observed ts {}",
                        ts.raw(),
                        prev.raw()
                    ),
                });
            }
        }
        self.bump_observed(sender, ts);
        self.scatterings.insert(
            (sender, seq),
            ScatterState {
                ts,
                receivers,
                delivered: HashSet::new(),
                reliable,
                committed: false,
                recalled: false,
            },
        );
    }

    /// A message was delivered to an application: total order, at-most-once,
    /// the receiver's causal horizon, and atomicity bookkeeping.
    pub fn on_delivery(&mut self, rec: &DeliveryRecord) {
        self.observations += 1;
        let key = rec.msg.order_key();
        // Total order: strictly increasing keys per receiver and channel.
        // (Equal keys are left to the at-most-once check below so one
        // defect does not fire two alarms.)
        let chan = (rec.receiver, rec.reliable);
        if let Some(&last) = self.last_delivered.get(&chan) {
            if key < last {
                self.record(Violation {
                    kind: InvariantKind::TotalOrder,
                    at: rec.at,
                    detail: format!(
                        "{:?} delivered {:?} on the {} channel after already delivering {:?}",
                        rec.receiver,
                        key,
                        if rec.reliable { "reliable" } else { "best-effort" },
                        last
                    ),
                });
            }
        }
        self.last_delivered.entry(chan).and_modify(|k| *k = (*k).max(key)).or_insert(key);
        // At-most-once.
        if !self.seen.insert((rec.receiver, key)) {
            self.record(Violation {
                kind: InvariantKind::AtMostOnce,
                at: rec.at,
                detail: format!("{:?} delivered {key:?} twice", rec.receiver),
            });
        }
        // Causality, delivery side: the receiver has now observed this
        // timestamp; its future sends must stay at or above it.
        self.bump_observed(rec.receiver, rec.msg.ts);
        // Atomicity bookkeeping.
        if let Some(s) = self.scatterings.get_mut(&(rec.msg.src, rec.msg.seq)) {
            s.delivered.insert(rec.receiver);
        }
    }

    /// A user event surfaced on `proc`: `Committed` and `Recalled` settle
    /// the outcome [`finalize`](Self::finalize) judges atomicity by.
    pub fn on_user_event(&mut self, _at: u64, proc: ProcessId, ev: &UserEvent) {
        self.observations += 1;
        match ev {
            UserEvent::Committed { seq, .. } => {
                if let Some(s) = self.scatterings.get_mut(&(proc, *seq)) {
                    s.committed = true;
                }
            }
            UserEvent::Recalled { seq, .. } => {
                if let Some(s) = self.scatterings.get_mut(&(proc, *seq)) {
                    s.recalled = true;
                }
            }
            _ => {}
        }
    }

    /// A controller action passed the epoch fence at its destination;
    /// `epoch` is the Raft term of the leader that emitted it.
    pub fn on_ctrl_action(&mut self, at: u64, epoch: u64, action: &CtrlAction) {
        self.observations += 1;
        // Exactly-once in effect: the harness only reports actions that
        // survived epoch fencing, so within one epoch each decision must
        // appear once. A re-driven decision after failover arrives under
        // a higher epoch and forms a distinct key — that is the intended
        // at-least-once wire / exactly-once effect split.
        let key = match *action {
            CtrlAction::Announce { id, to, .. } => CtrlDecision::Announce(id, to),
            CtrlAction::Resume { at: site, input } => CtrlDecision::Resume(site, input),
        };
        if !self.ctrl_seen.insert((epoch, key)) {
            self.record(Violation {
                kind: InvariantKind::CtrlExactlyOnce,
                at,
                detail: format!("controller decision {key:?} delivered twice in epoch {epoch}"),
            });
        }
    }

    /// A snapshot of one endpoint's `(best-effort, commit)` barrier pair.
    pub fn on_barrier_sample(
        &mut self,
        at: u64,
        proc: ProcessId,
        be: Timestamp,
        commit: Timestamp,
    ) {
        self.observations += 1;
        if let Some(&(pbe, pcommit)) = self.barriers.get(&proc) {
            if be < pbe || commit < pcommit {
                self.record(Violation {
                    kind: InvariantKind::BarrierMonotonicity,
                    at,
                    detail: format!(
                        "{proc:?} barrier regressed: be {} -> {}, commit {} -> {}",
                        pbe.raw(),
                        be.raw(),
                        pcommit.raw(),
                        commit.raw()
                    ),
                });
            }
        }
        self.barriers.insert(proc, (be, commit));
    }

    /// Recovery-liveness check: after a run has fully drained, no failure
    /// handling may still be in flight at the controller (`pending` is
    /// the number of pending failures reported by the harness). A nonzero
    /// count means Resume never reached the switch — the reliable channel
    /// is hung. Call before [`finalize`](Self::finalize) in campaigns
    /// that inject controller faults.
    pub fn check_recovery_liveness(&mut self, at: u64, pending: usize) {
        if pending > 0 {
            self.record(Violation {
                kind: InvariantKind::RecoveryLiveness,
                at,
                detail: format!(
                    "{pending} controller recovery(ies) still pending after the run drained"
                ),
            });
        }
    }

    /// True while no invariant has been violated.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// The first (authoritative) violation, if any.
    pub fn first_violation(&self) -> Option<&Violation> {
        self.violations.first()
    }

    /// All recorded violations (capped).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// End-of-run checks: restricted failure atomicity per registered
    /// reliable scattering, among receivers not in `failed`. Call once,
    /// after the cluster has drained.
    ///
    /// `failed` must contain every process the *controller declared*
    /// failed, not just genuinely crashed ones: a long link flap can
    /// falsely accuse a live sender, and the paper's Failure Discard then
    /// legitimately drops its committed-but-undelivered scatterings
    /// (§5.2 — a declared-failed process is failed by fiat). For such
    /// senders only the all-or-none rule applies; the stronger
    /// `Committed ⇒ all live receivers deliver` promise binds only for
    /// senders that were never declared failed.
    pub fn finalize(&mut self, at: u64, failed: &[ProcessId]) {
        if self.finalized {
            return;
        }
        self.finalized = true;
        let mut keys: Vec<(ProcessId, u64)> = self.scatterings.keys().copied().collect();
        keys.sort();
        for key in keys {
            let s = &self.scatterings[&key];
            if !s.reliable {
                continue;
            }
            let (sender, seq) = key;
            let live: Vec<ProcessId> =
                s.receivers.iter().copied().filter(|r| !failed.contains(r)).collect();
            let got: Vec<ProcessId> =
                live.iter().copied().filter(|r| s.delivered.contains(r)).collect();
            let desc = |what: &str| {
                format!(
                    "reliable scattering {sender:?}/{seq} (ts {}) {what}: \
                     {got}/{live} live receivers delivered",
                    s.ts.raw(),
                    got = got.len(),
                    live = live.len(),
                )
            };
            let bad = if failed.contains(&sender) {
                // Declared-failed sender: Failure Discard may legitimately
                // drop even committed scatterings, but still all-or-none.
                (!got.is_empty() && got.len() != live.len())
                    .then(|| desc("from a failed sender was partially delivered"))
            } else if s.recalled {
                // Recall aborts the scattering: no live receiver delivers.
                (!got.is_empty()).then(|| desc("was recalled but delivered"))
            } else if s.committed {
                // Commit promises delivery at every live receiver.
                (got.len() != live.len()).then(|| desc("was committed but not fully delivered"))
            } else {
                // No outcome observed: still all-or-none among the living.
                (!got.is_empty() && got.len() != live.len())
                    .then(|| desc("was partially delivered"))
            };
            if let Some(detail) = bad {
                self.record(Violation { kind: InvariantKind::Atomicity, at, detail });
            }
        }
    }

    fn record(&mut self, v: Violation) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(v);
        }
    }

    fn bump_observed(&mut self, p: ProcessId, ts: Timestamp) {
        self.observed_ts.entry(p).and_modify(|t| *t = (*t).max(ts)).or_insert(ts);
    }
}

#[cfg(test)]
mod tests {
    //! Oracle self-tests: each checker must fire on a deliberately broken
    //! observation stream, and stay silent on a correct one.

    use super::*;
    use bytes::Bytes;
    use onepipe_types::message::Delivered;

    fn rec(at: u64, receiver: u32, ts: u64, src: u32, seq: u64) -> DeliveryRecord {
        DeliveryRecord {
            at,
            receiver: ProcessId(receiver),
            msg: Delivered {
                ts: Timestamp::from_nanos(ts),
                src: ProcessId(src),
                seq,
                payload: Bytes::from_static(b"x"),
            },
            reliable: true,
        }
    }

    #[test]
    fn clean_run_has_no_violations() {
        let mut o = Oracle::new();
        o.register_send(5, ProcessId(0), 0, Timestamp::from_nanos(10), vec![ProcessId(1)], true);
        o.on_delivery(&rec(20, 1, 10, 0, 0));
        o.on_user_event(
            25,
            ProcessId(0),
            &UserEvent::Committed { ts: Timestamp::from_nanos(10), seq: 0 },
        );
        o.on_barrier_sample(30, ProcessId(1), Timestamp::from_nanos(15), Timestamp::from_nanos(12));
        o.on_barrier_sample(40, ProcessId(1), Timestamp::from_nanos(25), Timestamp::from_nanos(22));
        o.finalize(50, &[]);
        assert!(o.ok(), "unexpected violation: {:?}", o.first_violation());
    }

    #[test]
    fn total_order_checker_fires() {
        let mut o = Oracle::new();
        o.on_delivery(&rec(10, 1, 200, 0, 0));
        o.on_delivery(&rec(20, 1, 100, 0, 1)); // regressing timestamp
        let v = o.first_violation().expect("must fire");
        assert_eq!(v.kind, InvariantKind::TotalOrder);
    }

    #[test]
    fn causality_checker_fires() {
        let mut o = Oracle::new();
        // p1 delivers ts 100, then sends with ts 50: happens-before broken.
        o.on_delivery(&rec(10, 1, 100, 0, 0));
        o.register_send(20, ProcessId(1), 0, Timestamp::from_nanos(50), vec![ProcessId(2)], false);
        let v = o.first_violation().expect("must fire");
        assert_eq!(v.kind, InvariantKind::Causality);
    }

    #[test]
    fn causality_checker_fires_on_sender_clock_regression() {
        let mut o = Oracle::new();
        o.register_send(10, ProcessId(0), 0, Timestamp::from_nanos(100), vec![ProcessId(1)], false);
        o.register_send(20, ProcessId(0), 1, Timestamp::from_nanos(90), vec![ProcessId(1)], false);
        let v = o.first_violation().expect("must fire");
        assert_eq!(v.kind, InvariantKind::Causality);
    }

    #[test]
    fn at_most_once_checker_fires() {
        let mut o = Oracle::new();
        o.register_send(5, ProcessId(0), 0, Timestamp::from_nanos(10), vec![ProcessId(1)], false);
        o.on_delivery(&rec(20, 1, 10, 0, 0));
        o.on_delivery(&rec(21, 1, 10, 0, 0)); // duplicate
        let v = o.first_violation().expect("must fire");
        assert_eq!(v.kind, InvariantKind::AtMostOnce);
    }

    #[test]
    fn atomicity_checker_fires_on_partial_delivery() {
        let mut o = Oracle::new();
        o.register_send(
            5,
            ProcessId(0),
            0,
            Timestamp::from_nanos(10),
            vec![ProcessId(1), ProcessId(2)],
            true,
        );
        o.on_delivery(&rec(20, 1, 10, 0, 0)); // p2 never delivers
        o.finalize(100, &[]);
        let v = o.first_violation().expect("must fire");
        assert_eq!(v.kind, InvariantKind::Atomicity);
    }

    #[test]
    fn atomicity_ignores_failed_receivers() {
        let mut o = Oracle::new();
        o.register_send(
            5,
            ProcessId(0),
            0,
            Timestamp::from_nanos(10),
            vec![ProcessId(1), ProcessId(2)],
            true,
        );
        o.on_delivery(&rec(20, 1, 10, 0, 0));
        o.finalize(100, &[ProcessId(2)]); // p2 crashed: all-or-none holds
        assert!(o.ok(), "unexpected violation: {:?}", o.first_violation());
    }

    #[test]
    fn atomicity_checker_fires_on_recalled_but_delivered() {
        let mut o = Oracle::new();
        let ts = Timestamp::from_nanos(10);
        o.register_send(5, ProcessId(0), 0, ts, vec![ProcessId(1), ProcessId(2)], true);
        o.on_user_event(8, ProcessId(0), &UserEvent::Recalled { ts, seq: 0 });
        o.on_delivery(&rec(20, 1, 10, 0, 0));
        o.on_delivery(&rec(20, 2, 10, 0, 0));
        o.finalize(100, &[]);
        let v = o.first_violation().expect("must fire");
        assert_eq!(v.kind, InvariantKind::Atomicity);
    }

    #[test]
    fn atomicity_checker_fires_on_committed_but_undelivered() {
        let mut o = Oracle::new();
        let ts = Timestamp::from_nanos(10);
        o.register_send(5, ProcessId(0), 0, ts, vec![ProcessId(1)], true);
        o.on_user_event(8, ProcessId(0), &UserEvent::Committed { ts, seq: 0 });
        o.finalize(100, &[]);
        let v = o.first_violation().expect("must fire");
        assert_eq!(v.kind, InvariantKind::Atomicity);
    }

    #[test]
    fn barrier_monotonicity_checker_fires() {
        let mut o = Oracle::new();
        o.on_barrier_sample(
            10,
            ProcessId(3),
            Timestamp::from_nanos(100),
            Timestamp::from_nanos(90),
        );
        o.on_barrier_sample(20, ProcessId(3), Timestamp::from_nanos(50), Timestamp::from_nanos(95));
        let v = o.first_violation().expect("must fire");
        assert_eq!(v.kind, InvariantKind::BarrierMonotonicity);
    }

    #[test]
    fn ctrl_exactly_once_fires_on_same_epoch_duplicate() {
        let mut o = Oracle::new();
        let resume = CtrlAction::Resume { at: NodeId(8), input: NodeId(3) };
        o.on_ctrl_action(10, 1, &resume);
        o.on_ctrl_action(20, 1, &resume); // same decision, same epoch
        let v = o.first_violation().expect("must fire");
        assert_eq!(v.kind, InvariantKind::CtrlExactlyOnce);
    }

    #[test]
    fn ctrl_redrive_in_new_epoch_is_clean() {
        let mut o = Oracle::new();
        let ann = CtrlAction::Announce {
            id: 1,
            to: ProcessId(2),
            failures: vec![(ProcessId(3), Timestamp::from_nanos(5))],
        };
        o.on_ctrl_action(10, 1, &ann);
        o.on_ctrl_action(20, 2, &ann); // failover re-drive: higher epoch
        assert!(o.ok(), "unexpected violation: {:?}", o.first_violation());
    }

    #[test]
    fn recovery_liveness_fires_on_pending() {
        let mut o = Oracle::new();
        o.check_recovery_liveness(100, 0);
        assert!(o.ok());
        o.check_recovery_liveness(200, 2);
        let v = o.first_violation().expect("must fire");
        assert_eq!(v.kind, InvariantKind::RecoveryLiveness);
    }

    #[test]
    fn violation_log_is_capped() {
        let mut o = Oracle::new();
        for i in 0..100u64 {
            // Every second delivery regresses.
            o.on_delivery(&rec(i, 1, 1_000 - (i % 2) * 500, 0, i));
        }
        assert!(!o.ok());
        assert!(o.violations().len() <= MAX_VIOLATIONS);
    }
}
