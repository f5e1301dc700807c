//! The failure-recovery protocol (paper §5.2, Figure 7).
//!
//! The controller consumes **events** (Detect reports from switches and
//! hosts, callback completions from processes) and produces **actions**
//! (failure announcements, resume commands). The state machine is a pure function of the replicated
//! log: events are applied in the order they commit, and nothing in
//! [`ControllerCore::apply`] reads a clock, so every replica that applies
//! the same log reaches the same state (Raft's state-machine contract).
//!
//! Failure model implemented (matching the paper's evaluation):
//! * host / NIC / host-link failure → all processes on the host fail;
//! * ToR switch failure (single-homed racks) → every process in the rack
//!   fails;
//! * core or spine link/switch failure → connectivity survives, **no
//!   process fails**, and the controller only needs to issue Resume so the
//!   commit barrier stops waiting on the dead component.
//!
//! Determine: the first committed report for a component announces it, and
//! its `last_commit` is the component's *failure timestamp*. Later reports
//! only add their dead link to the Resume set. This is the paper's cut
//! rule specialised to tree topologies, where the reporting neighbors
//! always form a cut between the failed component and every correct
//! receiver.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use onepipe_types::ids::{NodeId, ProcessId};
use onepipe_types::time::Timestamp;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Identifies a physical failure domain (a host, a physical switch, ...).
pub type ComponentId = u32;

/// Static description of failure domains, provided by the deployment
/// harness (built from the routing topology).
#[derive(Clone, Debug, Default)]
pub struct FailureDomains {
    /// Which component each logical node belongs to.
    pub component_of: HashMap<NodeId, ComponentId>,
    /// The processes that die when a component dies (empty for fabric
    /// components whose loss does not disconnect any host).
    pub killed_procs: HashMap<ComponentId, Vec<ProcessId>>,
    /// Logical nodes making up each component (for Resume commands).
    pub nodes_of: HashMap<ComponentId, Vec<NodeId>>,
}

impl FailureDomains {
    /// Register a component with its nodes and the processes it kills.
    pub fn add_component(&mut self, id: ComponentId, nodes: Vec<NodeId>, killed: Vec<ProcessId>) {
        for &n in &nodes {
            self.component_of.insert(n, id);
        }
        self.killed_procs.insert(id, killed);
        self.nodes_of.insert(id, nodes);
    }
}

/// Events consumed by the controller (these are what gets written to the
/// replicated log).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CtrlEvent {
    /// A neighbor reported a dead node (Detect step). `last_commit` is the
    /// highest commit barrier the reporter observed from the dead node.
    Detect {
        /// Reporting node.
        reporter: NodeId,
        /// The silent node.
        dead: NodeId,
        /// Last commit barrier heard from it.
        last_commit: Timestamp,
    },
    /// A process finished its failure callback (and any Recall work) for
    /// announcement `announce_id`.
    CallbackComplete {
        /// The announcement being acknowledged.
        announce_id: u64,
        /// The acknowledging process.
        from: ProcessId,
    },
    /// Barrier entry a freshly elected leader writes to its log. Raft only
    /// commits current-term entries directly, so committing this entry is
    /// what commits (and surfaces) every surviving entry from prior terms;
    /// its application is the signal to re-drive in-flight recoveries.
    NewEpoch {
        /// The new leader's term.
        term: u64,
    },
}

/// Actions for the harness / management network to carry out.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CtrlAction {
    /// Broadcast step: tell a correct process about failed processes and
    /// their failure timestamps.
    Announce {
        /// Announcement id (to be echoed in `CallbackComplete`).
        id: u64,
        /// Recipient.
        to: ProcessId,
        /// Failed processes with their failure timestamps.
        failures: Vec<(ProcessId, Timestamp)>,
    },
    /// Resume step: the switch that reported a dead input link removes
    /// exactly that link from its commit-barrier aggregation. Scoping the
    /// removal to the *reported link* matters: a rack cut off by its
    /// uplinks sees every spine as dead, but the spines are healthy and
    /// still carry other pods' commit contributions — removing the spine
    /// node wholesale downstream would inflate the global commit barrier
    /// past live senders' pinned contributions (premature delivery).
    Resume {
        /// The switch that reported the dead link (removal site).
        at: NodeId,
        /// The input link to drop from commit aggregation.
        input: NodeId,
    },
}

/// Where a [`CtrlAction`] must be delivered.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ActionDest {
    /// Deliver to a process (host endpoint).
    Process(ProcessId),
    /// Deliver to the switch that reported the dead link.
    Switch(NodeId),
}

impl CtrlAction {
    /// The single routing rule shared by every transport (sim harness and
    /// UDP controller): Announce goes to a process, Resume goes to the reporting switch. Keeping this here means the
    /// transports cannot drift on recovery semantics.
    pub fn dest(&self) -> ActionDest {
        match self {
            CtrlAction::Announce { to, .. } => ActionDest::Process(*to),
            CtrlAction::Resume { at, .. } => ActionDest::Switch(*at),
        }
    }
}

/// A failure being processed (between Detect and Resume).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PendingFailure {
    /// The failed component.
    pub component: ComponentId,
    /// The first committed report's last-commit — the failure timestamp.
    pub failure_ts: Timestamp,
    /// Announcement id, once broadcast.
    pub announce_id: Option<u64>,
    /// Processes that have completed their callbacks.
    pub completed: BTreeSet<ProcessId>,
    /// Processes whose completion we are waiting for.
    pub expected: BTreeSet<ProcessId>,
    /// Dead input links reported for this component: `(reporter, input)`.
    /// Resume removes exactly these links from commit aggregation.
    pub dead_links: BTreeSet<(NodeId, NodeId)>,
}

/// The controller state machine (runs on the Raft leader).
pub struct ControllerCore {
    domains: FailureDomains,
    correct: BTreeSet<ProcessId>,
    failed: BTreeMap<ProcessId, Timestamp>,
    pending: BTreeMap<ComponentId, PendingFailure>,
    next_announce_id: u64,
    /// Links whose Resume has been emitted: `(reporter, input)`. Kept so a
    /// new leader can re-drive Resume after failover, and so duplicate
    /// Detect reports for an already-resumed link (at-least-once event
    /// delivery) cannot reopen a finished recovery.
    resumed: BTreeSet<(NodeId, NodeId)>,
}

impl ControllerCore {
    /// Create the controller over the given domains and process set.
    pub fn new(domains: FailureDomains, all_procs: impl IntoIterator<Item = ProcessId>) -> Self {
        ControllerCore {
            domains,
            correct: all_procs.into_iter().collect(),
            failed: BTreeMap::new(),
            pending: BTreeMap::new(),
            next_announce_id: 1,
            resumed: BTreeSet::new(),
        }
    }

    /// Processes currently believed correct.
    pub fn correct_processes(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.correct.iter().copied()
    }

    /// All failures announced so far.
    pub fn failures(&self) -> impl Iterator<Item = (ProcessId, Timestamp)> + '_ {
        self.failed.iter().map(|(&p, &t)| (p, t))
    }

    /// Whether a failure is still being processed.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// In-flight failure handling state (telemetry / chaos triage).
    pub fn pending_failures(&self) -> impl Iterator<Item = &PendingFailure> + '_ {
        self.pending.values()
    }

    /// Apply one committed event; returns actions.
    pub fn apply(&mut self, ev: CtrlEvent) -> Vec<CtrlAction> {
        match ev {
            CtrlEvent::Detect { reporter, dead, last_commit } => {
                let Some(&comp) = self.domains.component_of.get(&dead) else {
                    return Vec::new();
                };
                // At-least-once event delivery: a duplicate report for a
                // link we already resumed is stale, not a new failure.
                if self.resumed.contains(&(reporter, dead)) {
                    return Vec::new();
                }
                let entry = self.pending.entry(comp).or_insert_with(|| PendingFailure {
                    component: comp,
                    failure_ts: last_commit,
                    announce_id: None,
                    completed: BTreeSet::new(),
                    expected: BTreeSet::new(),
                    dead_links: BTreeSet::new(),
                });
                entry.dead_links.insert((reporter, dead));
                let mut actions = Vec::new();
                if entry.announce_id.is_none() {
                    actions = self.announce_component(comp);
                }
                actions.extend(self.finish_ready());
                actions
            }
            CtrlEvent::CallbackComplete { announce_id, from } => {
                for p in self.pending.values_mut() {
                    if p.announce_id == Some(announce_id) {
                        p.completed.insert(from);
                    }
                }
                self.finish_ready()
            }
            // Pure log barrier; state is untouched. The replication layer
            // reacts to its commitment (re-drive), not the state machine.
            CtrlEvent::NewEpoch { .. } => Vec::new(),
        }
    }

    /// Determine `comp`'s failure: record its failed processes and emit
    /// the Broadcast actions. Called once per component, on its first
    /// committed report.
    fn announce_component(&mut self, comp: ComponentId) -> Vec<CtrlAction> {
        let mut actions = Vec::new();
        let killed: Vec<ProcessId> = self
            .domains
            .killed_procs
            .get(&comp)
            .cloned()
            .unwrap_or_default()
            .into_iter()
            .filter(|p| self.correct.contains(p))
            .collect();
        let p = self.pending.get_mut(&comp).unwrap();
        let failure_ts = p.failure_ts;
        if killed.is_empty() {
            // Fabric failure: nobody dies, no callbacks needed; go
            // straight to Resume (paper §7.2, "Failure recovery").
            p.announce_id = Some(0);
            p.expected.clear();
        } else {
            let id = self.next_announce_id;
            self.next_announce_id += 1;
            p.announce_id = Some(id);
            for k in &killed {
                self.correct.remove(k);
                self.failed.insert(*k, failure_ts);
            }
            p.expected = self.correct.iter().copied().collect();
            let failures: Vec<(ProcessId, Timestamp)> =
                killed.iter().map(|&k| (k, failure_ts)).collect();
            for &proc in &self.correct {
                actions.push(CtrlAction::Announce { id, to: proc, failures: failures.clone() });
            }
        }
        // A process that has just failed can never complete callbacks for
        // earlier failures; drop it from every pending expectation.
        let correct = self.correct.clone();
        for pending in self.pending.values_mut() {
            pending.expected.retain(|x| correct.contains(x));
        }
        actions
    }

    /// Emit Resume for every pending failure whose callbacks are all in.
    fn finish_ready(&mut self) -> Vec<CtrlAction> {
        let mut actions = Vec::new();
        let ready: Vec<ComponentId> = self
            .pending
            .iter()
            .filter(|(_, p)| p.announce_id.is_some() && p.expected.is_subset(&p.completed))
            .map(|(&c, _)| c)
            .collect();
        for comp in ready {
            let p = self.pending.remove(&comp).unwrap();
            for (at, input) in p.dead_links {
                self.resumed.insert((at, input));
                actions.push(CtrlAction::Resume { at, input });
            }
        }
        actions
    }

    /// Actions a freshly elected leader must re-issue to guarantee every
    /// in-flight recovery makes progress (exactly-once is enforced at the
    /// receivers, which dedupe by announcement id / resumed link):
    /// * re-Announce every announced-but-unfinished failure to the
    ///   processes that have not completed their callbacks, and
    /// * re-send every Resume recorded in the log's history, in case the
    ///   old leader committed the final callback but crashed before the
    ///   Resume action left the building.
    pub fn redrive_actions(&self) -> Vec<CtrlAction> {
        let mut actions = Vec::new();
        for p in self.pending.values() {
            let Some(id) = p.announce_id else { continue };
            if id == 0 {
                continue; // fabric failure: no announcement was sent
            }
            let failures: Vec<(ProcessId, Timestamp)> = self
                .domains
                .killed_procs
                .get(&p.component)
                .map(|ks| ks.iter().filter_map(|k| self.failed.get(k).map(|&t| (*k, t))).collect())
                .unwrap_or_default();
            for &proc in p.expected.difference(&p.completed) {
                actions.push(CtrlAction::Announce { id, to: proc, failures: failures.clone() });
            }
        }
        for &(at, input) in &self.resumed {
            actions.push(CtrlAction::Resume { at, input });
        }
        actions
    }
}

// ---------------------------------------------------------------------------
// Wire codec for CtrlEvent (used as the Raft log entry payload).
// ---------------------------------------------------------------------------

impl CtrlEvent {
    /// Serialize to bytes for the replicated log.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::new();
        match self {
            CtrlEvent::Detect { reporter, dead, last_commit } => {
                b.put_u8(0);
                b.put_u32(reporter.0);
                b.put_u32(dead.0);
                b.put_uint(last_commit.raw(), 6);
            }
            CtrlEvent::CallbackComplete { announce_id, from } => {
                b.put_u8(1);
                b.put_u64(*announce_id);
                b.put_u32(from.0);
            }
            CtrlEvent::NewEpoch { term } => {
                b.put_u8(5);
                b.put_u64(*term);
            }
        }
        b.freeze()
    }

    /// Decode from bytes written by [`encode`](Self::encode).
    pub fn decode(mut buf: Bytes) -> onepipe_types::Result<Self> {
        use onepipe_types::Error;
        if buf.remaining() < 1 {
            return Err(Error::Truncated { needed: 1, got: 0 });
        }
        let tag = buf.get_u8();
        let need = |buf: &Bytes, n: usize| -> onepipe_types::Result<()> {
            if buf.remaining() < n {
                Err(Error::Truncated { needed: n, got: buf.remaining() })
            } else {
                Ok(())
            }
        };
        Ok(match tag {
            0 => {
                need(&buf, 4 + 4 + 6)?;
                CtrlEvent::Detect {
                    reporter: NodeId(buf.get_u32()),
                    dead: NodeId(buf.get_u32()),
                    last_commit: Timestamp::from_raw(buf.get_uint(6)),
                }
            }
            1 => {
                need(&buf, 8 + 4)?;
                CtrlEvent::CallbackComplete {
                    announce_id: buf.get_u64(),
                    from: ProcessId(buf.get_u32()),
                }
            }
            5 => {
                need(&buf, 8)?;
                CtrlEvent::NewEpoch { term: buf.get_u64() }
            }
            other => return Err(Error::BadOpcode(other)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(v: u64) -> Timestamp {
        Timestamp::from_nanos(v)
    }

    fn detect(reporter: u32, dead: u32, last_commit: u64) -> CtrlEvent {
        CtrlEvent::Detect {
            reporter: NodeId(reporter),
            dead: NodeId(dead),
            last_commit: ts(last_commit),
        }
    }

    /// 2 hosts (nodes 0,1) with procs 0,1 — plus a fabric node 10.
    fn domains() -> FailureDomains {
        let mut d = FailureDomains::default();
        d.add_component(0, vec![NodeId(0)], vec![ProcessId(0)]);
        d.add_component(1, vec![NodeId(1)], vec![ProcessId(1)]);
        d.add_component(2, vec![NodeId(10)], vec![]); // core switch
        d
    }

    fn core() -> ControllerCore {
        ControllerCore::new(domains(), [ProcessId(0), ProcessId(1), ProcessId(2)])
    }

    #[test]
    fn host_failure_full_sequence() {
        let mut c = core();
        // The first report announces to the two correct processes, with
        // its last-commit as the failure timestamp.
        let a = c.apply(detect(5, 0, 100));
        let announces: Vec<_> = a
            .iter()
            .filter_map(|x| match x {
                CtrlAction::Announce { id, to, failures } => Some((*id, *to, failures.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(announces.len(), 2);
        for (_, _, fails) in &announces {
            assert_eq!(fails, &vec![(ProcessId(0), ts(100))]);
        }
        let id = announces[0].0;
        // A second reporter adds its link to the Resume set only.
        assert!(c.apply(detect(6, 0, 150)).is_empty());
        // One completion: not yet resumed.
        let a = c.apply(CtrlEvent::CallbackComplete { announce_id: id, from: ProcessId(1) });
        assert!(a.is_empty());
        // Second completion: Resume fires for each reported dead link.
        let a = c.apply(CtrlEvent::CallbackComplete { announce_id: id, from: ProcessId(2) });
        assert_eq!(
            a,
            vec![
                CtrlAction::Resume { at: NodeId(5), input: NodeId(0) },
                CtrlAction::Resume { at: NodeId(6), input: NodeId(0) },
            ]
        );
        assert!(!c.has_pending());
        assert_eq!(c.failures().collect::<Vec<_>>(), vec![(ProcessId(0), ts(100))]);
    }

    #[test]
    fn fabric_failure_resumes_without_announcement() {
        let mut c = core();
        let a = c.apply(detect(5, 10, 42));
        assert_eq!(a, vec![CtrlAction::Resume { at: NodeId(5), input: NodeId(10) }]);
        // Nobody failed.
        assert_eq!(c.failures().count(), 0);
        assert_eq!(c.correct_processes().count(), 3);
    }

    #[test]
    fn unknown_node_ignored() {
        let mut c = core();
        let a = c.apply(detect(5, 99, 1));
        assert!(a.is_empty());
        assert!(!c.has_pending());
    }

    #[test]
    fn late_reports_do_not_raise_announced_failure_ts() {
        let mut c = core();
        c.apply(detect(5, 0, 100)); // announced with ts=100
        c.apply(detect(7, 0, 999));
        assert_eq!(c.failures().collect::<Vec<_>>(), vec![(ProcessId(0), ts(100))]);
    }

    #[test]
    fn double_failure_handled_independently() {
        let mut c = core();
        let mut a = c.apply(detect(5, 0, 10));
        a.extend(c.apply(detect(5, 1, 20)));
        // Component 0 announces to {p1, p2} (p1 not yet processed), then
        // component 1 announces to {p2}: three announcements total, and the
        // now-failed p1 is dropped from every pending expectation so the
        // protocol cannot deadlock waiting for a dead process.
        let announce_count = a.iter().filter(|x| matches!(x, CtrlAction::Announce { .. })).count();
        assert_eq!(announce_count, 3);
        assert_eq!(c.correct_processes().collect::<Vec<_>>(), vec![ProcessId(2)]);
        // p2's completions alone must now finish both failures.
        let mut resumes = Vec::new();
        for id in [1u64, 2u64] {
            resumes.extend(
                c.apply(CtrlEvent::CallbackComplete { announce_id: id, from: ProcessId(2) }),
            );
        }
        assert_eq!(resumes.iter().filter(|a| matches!(a, CtrlAction::Resume { .. })).count(), 2);
        assert!(!c.has_pending());
    }

    #[test]
    fn redrive_reannounces_only_to_incomplete_processes() {
        let mut c = core();
        let a = c.apply(detect(5, 0, 100));
        let id = a
            .iter()
            .find_map(|x| match x {
                CtrlAction::Announce { id, .. } => Some(*id),
                _ => None,
            })
            .unwrap();
        c.apply(CtrlEvent::CallbackComplete { announce_id: id, from: ProcessId(1) });
        // A new leader re-drives: only p2 (incomplete) gets re-announced.
        let redrive = c.redrive_actions();
        assert_eq!(
            redrive,
            vec![CtrlAction::Announce {
                id,
                to: ProcessId(2),
                failures: vec![(ProcessId(0), ts(100))],
            }]
        );
        // Once finished, re-drive re-sends the recorded Resumes instead.
        c.apply(CtrlEvent::CallbackComplete { announce_id: id, from: ProcessId(2) });
        assert_eq!(
            c.redrive_actions(),
            vec![CtrlAction::Resume { at: NodeId(5), input: NodeId(0) }]
        );
    }

    #[test]
    fn duplicate_detect_after_resume_is_ignored() {
        let mut c = core();
        let a = c.apply(detect(5, 10, 42));
        assert_eq!(a.len(), 1, "fabric failure resumes immediately");
        // A retried copy of the same report must not reopen the recovery
        // (that would emit a second Resume for the same link).
        let a = c.apply(detect(5, 10, 42));
        assert!(a.is_empty());
        assert!(!c.has_pending());
    }

    #[test]
    fn event_codec_roundtrip() {
        let events = vec![
            detect(1, 2, 123_456),
            CtrlEvent::CallbackComplete { announce_id: 9, from: ProcessId(3) },
            CtrlEvent::NewEpoch { term: 12 },
        ];
        for ev in events {
            let encoded = ev.encode();
            let decoded = CtrlEvent::decode(encoded).unwrap();
            assert_eq!(decoded, ev);
        }
    }

    #[test]
    fn codec_rejects_garbage() {
        assert!(CtrlEvent::decode(Bytes::new()).is_err());
        assert!(CtrlEvent::decode(Bytes::from_static(&[9, 0, 0])).is_err());
        assert!(CtrlEvent::decode(Bytes::from_static(&[0, 1])).is_err());
        // Tags 2, 3 and 4 are retired.
        for tag in [2, 3, 4] {
            assert!(matches!(
                CtrlEvent::decode(Bytes::copy_from_slice(&[tag, 0, 0, 0, 0])),
                Err(onepipe_types::Error::BadOpcode(t)) if t == tag
            ));
        }
    }
}
