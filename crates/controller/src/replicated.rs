//! Glue between the Raft log and the controller state machine: a
//! replicated, highly-available controller of which exactly one replica
//! (the Raft leader) is active at a time — the deployment shape the paper
//! assumes (§5.2, §6.1) — and the server side of the one control-request
//! protocol: the leader logs a client's request and acks it on commit.

use crate::protocol::{ControllerCore, CtrlAction, CtrlEvent, FailureDomains};
use crate::raft::{RaftConfig, RaftMsg, RaftNode};
use onepipe_types::ids::ProcessId;

/// What one step of a replica hands its driver to send.
pub struct Output<A> {
    /// Raft messages, by destination replica id.
    pub raft: Vec<(u32, RaftMsg)>,
    /// Controller actions; only the leader emits any.
    pub actions: Vec<CtrlAction>,
    /// The leader's commit acks: `(client, seq)` of each request whose
    /// entry committed in this step.
    pub acks: Vec<(A, u64)>,
}

/// One replica of the replicated controller service, whose clients are
/// addressed by `A` (a socket address, a simulated client's index).
///
/// Events are proposed into the Raft log; every replica applies committed
/// events to its [`ControllerCore`] (so any replica can take over with the
/// full state), but only the leader's actions are emitted.
pub struct ReplicatedController<A> {
    raft: RaftNode,
    core: ControllerCore,
    /// Leadership edge detector: when this flips false→true the replica
    /// writes a [`CtrlEvent::NewEpoch`] barrier and prepares to re-drive
    /// in-flight recoveries once that barrier commits; true→false drops
    /// `pending_acks`.
    was_leader: bool,
    /// Requests this leader logged and has not acked yet: `(log index,
    /// client, seq)`, in log order.
    pending_acks: Vec<(u64, A, u64)>,
}

impl<A> ReplicatedController<A> {
    /// Create replica `id` among `peers`.
    pub fn new(
        id: u32,
        peers: Vec<u32>,
        cfg: RaftConfig,
        domains: FailureDomains,
        procs: impl IntoIterator<Item = ProcessId>,
    ) -> Self {
        ReplicatedController {
            raft: RaftNode::new(id, peers, cfg),
            core: ControllerCore::new(domains, procs),
            was_leader: false,
            pending_acks: Vec::new(),
        }
    }

    /// Whether this replica is the active controller.
    pub fn is_leader(&self) -> bool {
        self.raft.is_leader()
    }

    /// Replica id.
    pub fn id(&self) -> u32 {
        self.raft.id()
    }

    /// The controller epoch: the Raft term of this replica. Actions are
    /// tagged with the emitting leader's epoch so receivers can fence off
    /// stale leaders.
    pub fn epoch(&self) -> u64 {
        self.raft.term()
    }

    /// Read access to the underlying state machine.
    pub fn core(&self) -> &ControllerCore {
        &self.core
    }

    /// Read access to the underlying Raft node (its log indexes).
    pub fn raft(&self) -> &RaftNode {
        &self.raft
    }

    /// Request `seq` from `client`, which sends it to every replica: logged
    /// (returns `true`) only when this replica leads, and acked by the step
    /// in which it commits. A repeat is logged again; the state machine
    /// dedupes it.
    pub fn submit(&mut self, client: A, seq: u64, ev: CtrlEvent) -> bool {
        if !self.raft.propose(ev.encode().to_vec()) {
            return false;
        }
        self.pending_acks.push((self.raft.last_log_index(), client, seq));
        true
    }

    /// Advance time: Raft timeouts and heartbeats, then apply whatever
    /// committed.
    pub fn tick(&mut self, now: u64) -> Output<A> {
        let raft = self.raft.tick(now);
        self.step(raft)
    }

    /// Handle a Raft message from a peer replica.
    pub fn on_raft_msg(&mut self, from: u32, msg: RaftMsg, now: u64) -> Output<A> {
        let raft = self.raft.on_message(from, msg, now);
        self.step(raft)
    }

    fn step(&mut self, raft: Vec<(u32, RaftMsg)>) -> Output<A> {
        self.leadership_check();
        let actions = self.drain_committed();
        // Ack-on-commit: an acked request survives any failover.
        let commit = self.raft.commit_index();
        let committed = self.pending_acks.partition_point(|&(index, ..)| index <= commit);
        let acks = self.pending_acks.drain(..committed).map(|(_, a, seq)| (a, seq)).collect();
        Output { raft, actions, acks }
    }

    /// React to leadership edges. On acquiring leadership the replica
    /// writes a [`CtrlEvent::NewEpoch`] barrier whose commitment both
    /// surfaces surviving prior-term entries (Raft commits only
    /// current-term entries directly) and triggers the re-drive of
    /// in-flight recoveries. On losing it, the replica abandons its
    /// un-acked requests: their entries may be overwritten, and the
    /// clients' re-sends reach the new leader.
    fn leadership_check(&mut self) {
        let leading = self.raft.is_leader();
        if leading && !self.was_leader {
            self.raft.propose(CtrlEvent::NewEpoch { term: self.raft.term() }.encode().to_vec());
        } else if !leading && self.was_leader {
            self.pending_acks.clear();
        }
        self.was_leader = leading;
    }

    fn drain_committed(&mut self) -> Vec<CtrlAction> {
        let mut actions = Vec::new();
        let leader = self.raft.is_leader();
        let term = self.raft.term();
        for entry in self.raft.take_committed() {
            let own_term = entry.term == term;
            if let Ok(ev) = CtrlEvent::decode(entry.data.into()) {
                // Re-drive exactly once per leadership: on our own epoch
                // barrier (older barriers replayed during catch-up must
                // not re-emit, or a single epoch would duplicate actions).
                let redrive = leader && matches!(ev, CtrlEvent::NewEpoch { term: t } if t == term);
                let a = self.core.apply(ev);
                if leader {
                    // A surviving prior-term entry (e.g. the old leader's
                    // first Detect for a component) commits *under* our
                    // own barrier; it must mutate state silently, because
                    // the barrier's re-drive re-derives everything still
                    // owed — emitting its actions here too would send the
                    // same decision twice within one epoch.
                    if own_term {
                        actions.extend(a);
                    }
                    if redrive {
                        actions.extend(self.core.redrive_actions());
                    }
                }
            }
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onepipe_types::ids::NodeId;
    use onepipe_types::time::Timestamp;
    use std::collections::VecDeque;

    fn domains() -> FailureDomains {
        let mut d = FailureDomains::default();
        d.add_component(0, vec![NodeId(0)], vec![ProcessId(0)]);
        d.add_component(1, vec![NodeId(1)], vec![ProcessId(1)]);
        d
    }

    /// Replicas whose clients are numbered by `u32`.
    struct Cluster {
        replicas: Vec<ReplicatedController<u32>>,
        inflight: VecDeque<(u32, u32, RaftMsg)>,
        blocked: Vec<bool>,
        now: u64,
        /// `(replica, client, seq)` of every ack emitted.
        acks: Vec<(usize, u32, u64)>,
    }

    impl Cluster {
        fn new(n: u32) -> Self {
            let cfg = RaftConfig { election_timeout: 1_000, heartbeat_interval: 200 };
            let replicas = (0..n)
                .map(|i| {
                    let peers = (0..n).filter(|&p| p != i).collect();
                    ReplicatedController::new(
                        i,
                        peers,
                        cfg,
                        domains(),
                        [ProcessId(0), ProcessId(1), ProcessId(2)],
                    )
                })
                .collect();
            Cluster {
                replicas,
                inflight: VecDeque::new(),
                blocked: vec![false; n as usize],
                now: 0,
                acks: Vec::new(),
            }
        }

        /// Queue a replica's Raft traffic and record its acks; hand back
        /// its actions.
        fn take(&mut self, from: usize, out: Output<u32>) -> Vec<CtrlAction> {
            for (to, m) in out.raft {
                self.inflight.push_back((from as u32, to, m));
            }
            self.acks.extend(out.acks.into_iter().map(|(client, seq)| (from, client, seq)));
            out.actions
        }

        fn run(&mut self, dt: u64) -> Vec<CtrlAction> {
            let mut actions = Vec::new();
            let end = self.now + dt;
            while self.now < end {
                self.now += 100;
                for i in 0..self.replicas.len() {
                    if self.blocked[i] {
                        continue;
                    }
                    let out = self.replicas[i].tick(self.now);
                    actions.extend(self.take(i, out));
                }
                while let Some((from, to, m)) = self.inflight.pop_front() {
                    if self.blocked[from as usize] || self.blocked[to as usize] {
                        continue;
                    }
                    let out = self.replicas[to as usize].on_raft_msg(from, m, self.now);
                    actions.extend(self.take(to as usize, out));
                }
            }
            actions
        }

        fn leader(&self) -> usize {
            self.replicas
                .iter()
                .enumerate()
                .position(|(i, r)| r.is_leader() && !self.blocked[i])
                .unwrap()
        }
    }

    #[test]
    fn replicated_failure_handling_end_to_end() {
        let mut c = Cluster::new(3);
        c.run(10_000);
        let leader = c.leader();
        assert!(c.replicas[leader].submit(
            0,
            0,
            CtrlEvent::Detect {
                reporter: NodeId(5),
                dead: NodeId(0),
                last_commit: Timestamp::from_nanos(42),
            }
        ));
        let actions = c.run(60_000);
        // The leader announced to the two correct processes.
        let announces: Vec<_> =
            actions.iter().filter(|a| matches!(a, CtrlAction::Announce { .. })).collect();
        assert_eq!(announces.len(), 2);
        // Every replica applied the committed event.
        for r in &c.replicas {
            assert_eq!(
                r.core().failures().collect::<Vec<_>>(),
                vec![(ProcessId(0), Timestamp::from_nanos(42))]
            );
        }
    }

    #[test]
    fn replicated_matches_standalone_state_machine() {
        // The same committed event sequence must produce the same state
        // whether applied directly to a ControllerCore or through a
        // single-replica ReplicatedController.
        let events = vec![
            CtrlEvent::Detect {
                reporter: NodeId(5),
                dead: NodeId(0),
                last_commit: Timestamp::from_nanos(42),
            },
            CtrlEvent::CallbackComplete { announce_id: 1, from: ProcessId(1) },
        ];
        // Standalone.
        let mut core = ControllerCore::new(domains(), [ProcessId(0), ProcessId(1), ProcessId(2)]);
        for ev in &events {
            core.apply(ev.clone());
        }
        // Replicated, single node (instant commit).
        let mut rep = ReplicatedController::<u32>::new(
            0,
            vec![],
            RaftConfig { election_timeout: 1_000, heartbeat_interval: 200 },
            domains(),
            [ProcessId(0), ProcessId(1), ProcessId(2)],
        );
        rep.tick(5_000); // elect itself
        assert!(rep.is_leader());
        for ev in &events {
            assert!(rep.submit(0, 0, ev.clone()));
        }
        rep.tick(30_000);
        assert_eq!(core.failures().collect::<Vec<_>>(), rep.core().failures().collect::<Vec<_>>());
        assert_eq!(
            core.correct_processes().collect::<Vec<_>>(),
            rep.core().correct_processes().collect::<Vec<_>>()
        );
    }

    #[test]
    fn failover_redrives_in_flight_recovery_exactly_once() {
        let mut c = Cluster::new(3);
        c.run(10_000);
        let old = c.leader();
        assert!(c.replicas[old].submit(
            0,
            0,
            CtrlEvent::Detect {
                reporter: NodeId(5),
                dead: NodeId(0),
                last_commit: Timestamp::from_nanos(42),
            }
        ));
        // Let the report commit (which announces it), and let one of the
        // two survivors complete its callback.
        let actions = c.run(60_000);
        let id = actions
            .iter()
            .find_map(|a| match a {
                CtrlAction::Announce { id, .. } => Some(*id),
                _ => None,
            })
            .expect("old leader announced");
        assert!(c.replicas[old].submit(
            0,
            0,
            CtrlEvent::CallbackComplete { announce_id: id, from: ProcessId(1) }
        ));
        c.run(2_000);
        // Kill the old leader mid-recovery.
        c.blocked[old] = true;
        let actions = c.run(30_000);
        let new = c.leader();
        assert_ne!(new, old, "a different replica took over");
        let new_epoch = c.replicas[new].epoch();
        // The new leader re-announced, but only to the survivor that had
        // not completed (p2) — p1's completion committed before failover.
        let reannounces: Vec<_> = actions
            .iter()
            .filter_map(|a| match a {
                CtrlAction::Announce { id: i, to, .. } if *i == id => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(reannounces, vec![ProcessId(2)]);
        // The last completion now finishes recovery: exactly one Resume.
        assert!(c.replicas[new].submit(
            0,
            0,
            CtrlEvent::CallbackComplete { announce_id: id, from: ProcessId(2) }
        ));
        let actions = c.run(10_000);
        let resumes = actions.iter().filter(|a| matches!(a, CtrlAction::Resume { .. })).count();
        assert_eq!(resumes, 1, "exactly one Resume in epoch {new_epoch}");
        // Every live replica converged on the failure.
        for (i, r) in c.replicas.iter().enumerate() {
            if i == old {
                continue;
            }
            assert_eq!(
                r.core().failures().collect::<Vec<_>>(),
                vec![(ProcessId(0), Timestamp::from_nanos(42))]
            );
            assert!(!r.core().has_pending());
        }
    }

    #[test]
    fn catchup_entries_do_not_duplicate_redrive_within_one_epoch() {
        // The old leader replicates a component's first Detect — the entry
        // that announces it — to the followers, but dies before the commit
        // index reaches them. The entry then commits *under* the new
        // leader's NewEpoch barrier — applying it must not emit
        // announcements on top of the barrier's re-drive, or one epoch
        // delivers every decision twice.
        let mut c = Cluster::new(3);
        c.run(10_000);
        let old = c.leader();
        assert!(c.replicas[old].submit(
            0,
            0,
            CtrlEvent::Detect {
                reporter: NodeId(5),
                dead: NodeId(0),
                last_commit: Timestamp::from_nanos(42),
            }
        ));
        // Step until the survivors hold the Detect appended but not yet
        // committed (leader_commit piggybacks on the *next* heartbeat), a
        // window of up to one heartbeat interval — then crash the leader.
        let target = c.replicas[old].raft.last_log_index();
        let mut steps = 0;
        while !(0..3).filter(|&i| i != old).all(|i| {
            let raft = &c.replicas[i].raft;
            raft.last_log_index() >= target && raft.commit_index() < target
        }) {
            c.run(100);
            steps += 1;
            assert!(steps < 100, "missed the appended-but-uncommitted window");
        }
        c.blocked[old] = true;
        let actions = c.run(60_000);
        let new = c.leader();
        assert_ne!(new, old, "a different replica took over");
        // Everything after the crash happens in the new leader's single
        // epoch: each (id, recipient) announcement must appear exactly once.
        let mut seen = std::collections::HashSet::new();
        let mut announced = 0;
        for a in &actions {
            if let CtrlAction::Announce { id, to, .. } = a {
                announced += 1;
                assert!(
                    seen.insert((*id, *to)),
                    "Announce({id}, {to:?}) duplicated within epoch {}",
                    c.replicas[new].epoch()
                );
            }
        }
        assert_eq!(announced, 2, "the new leader must announce to both correct processes");
    }

    #[test]
    fn lagging_replica_assigns_the_leaders_announcement_ids() {
        // Announcement ids are state: a replica that applies the same log
        // later must assign the same ones.
        let mut c = Cluster::new(3);
        c.run(10_000);
        let leader = c.leader();
        let lagging = (0..3).find(|&i| i != leader).unwrap();
        c.blocked[lagging] = true;
        for dead in [1, 0] {
            assert!(c.replicas[leader].submit(
                0,
                0,
                CtrlEvent::Detect {
                    reporter: NodeId(5),
                    dead: NodeId(dead),
                    last_commit: Timestamp::from_nanos(42),
                }
            ));
        }
        c.run(60_000);
        c.blocked[lagging] = false;
        c.run(60_000);
        let ids = |r: &ReplicatedController<u32>| {
            r.core().pending_failures().map(|p| (p.component, p.announce_id)).collect::<Vec<_>>()
        };
        assert_eq!(ids(&c.replicas[leader]), ids(&c.replicas[lagging]));
    }

    #[test]
    fn follower_rejects_submission() {
        let mut c = Cluster::new(3);
        c.run(10_000);
        let leader = c.leader();
        let follower = (0..3).find(|&i| i != leader).unwrap();
        assert!(!c.replicas[follower].submit(
            0,
            0,
            CtrlEvent::CallbackComplete { announce_id: 1, from: ProcessId(1) }
        ));
    }

    #[test]
    fn only_the_leader_acks_a_request_and_only_once_it_commits() {
        let mut c = Cluster::new(3);
        c.run(10_000);
        let leader = c.leader();
        let ev = CtrlEvent::CallbackComplete { announce_id: 1, from: ProcessId(1) };
        // Every replica hears the request; only the leader logs it.
        for i in 0..3 {
            assert_eq!(c.replicas[i].submit(7, 1, ev.clone()), i == leader);
        }
        // Logged is not committed: a step before the followers have
        // replicated the entry acks nothing.
        let out = c.replicas[leader].tick(c.now);
        assert!(out.acks.is_empty());
        c.take(leader, out);
        let index = c.replicas[leader].raft.last_log_index();
        while c.replicas[leader].raft.commit_index() < index {
            assert_eq!(c.acks, [], "acked before commit");
            c.run(100);
        }
        assert_eq!(c.acks, [(leader, 7, 1)]);
        c.run(10_000);
        assert_eq!(c.acks, [(leader, 7, 1)], "acked once");
    }

    #[test]
    fn a_deposed_leader_drops_its_unacked_requests() {
        let mut c = Cluster::new(3);
        c.run(10_000);
        let old = c.leader();
        // The leader logs a request, then is cut off before replicating it.
        let ev = CtrlEvent::CallbackComplete { announce_id: 1, from: ProcessId(1) };
        assert!(c.replicas[old].submit(7, 1, ev));
        c.blocked[old] = true;
        c.run(30_000);
        assert_ne!(c.leader(), old, "a different replica took over");
        // Back on the network it learns the new term, and its entry is
        // overwritten: no replica ever acks the request.
        c.blocked[old] = false;
        c.run(30_000);
        assert!(!c.replicas[old].is_leader());
        assert!(c.replicas[old].pending_acks.is_empty());
        assert_eq!(c.acks, []);
    }
}
