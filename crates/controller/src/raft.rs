//! A compact Raft implementation for controller replication.
//!
//! Implements the core of the Raft consensus algorithm (Ongaro &
//! Ousterhout, ATC'14 — reference \[80\] of the paper): randomized leader
//! election, log replication and quorum commitment. Omissions relative to
//! full Raft, acceptable for a controller whose membership is fixed at
//! deployment: no membership changes, no snapshots/compaction, no
//! persistence (a restarted replica rejoins empty, which is safe as long
//! as a quorum of the original members stays up).
//!
//! The node is sans-io: [`RaftNode::tick`] and [`RaftNode::on_message`]
//! return `(peer, message)` pairs for the harness to deliver.

/// Role of a replica.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RaftRole {
    /// Follows a leader; becomes candidate on election timeout.
    Follower,
    /// Campaigning for leadership.
    Candidate,
    /// The active replica; the 1Pipe controller logic runs here.
    Leader,
}

/// One replicated log entry (opaque command bytes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogEntry {
    /// Term in which the entry was appended.
    pub term: u64,
    /// Opaque command (the controller serializes [`CtrlEvent`]s here).
    ///
    /// [`CtrlEvent`]: crate::protocol::CtrlEvent
    pub data: Vec<u8>,
}

/// Raft wire messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RaftMsg {
    /// Candidate requesting a vote.
    RequestVote {
        /// Candidate's term.
        term: u64,
        /// Index of candidate's last log entry.
        last_log_index: u64,
        /// Term of candidate's last log entry.
        last_log_term: u64,
    },
    /// Vote response.
    Vote {
        /// Voter's current term.
        term: u64,
        /// Whether the vote was granted.
        granted: bool,
    },
    /// Log replication / heartbeat.
    Append {
        /// Leader's term.
        term: u64,
        /// Index of the entry preceding `entries`.
        prev_log_index: u64,
        /// Term of that entry.
        prev_log_term: u64,
        /// New entries (empty for heartbeat).
        entries: Vec<LogEntry>,
        /// Leader's commit index.
        leader_commit: u64,
    },
    /// Replication response.
    AppendResp {
        /// Follower's term.
        term: u64,
        /// Whether the append matched.
        ok: bool,
        /// Highest log index stored on the follower (valid when `ok`).
        match_index: u64,
    },
}

/// Timing configuration (nanoseconds).
#[derive(Clone, Copy, Debug)]
pub struct RaftConfig {
    /// Base election timeout; each replica adds a deterministic stagger.
    pub election_timeout: u64,
    /// Leader heartbeat interval (must be ≪ election timeout).
    pub heartbeat_interval: u64,
}

impl Default for RaftConfig {
    fn default() -> Self {
        // Management networks are millisecond-scale; these defaults keep
        // failover around 10-20 ms of simulated time.
        RaftConfig { election_timeout: 5_000_000, heartbeat_interval: 1_000_000 }
    }
}

/// A single Raft replica.
pub struct RaftNode {
    id: u32,
    peers: Vec<u32>,
    cfg: RaftConfig,
    role: RaftRole,
    term: u64,
    voted_for: Option<u32>,
    log: Vec<LogEntry>,
    commit_index: u64,
    applied_index: u64,
    votes: usize,
    /// Leader state: next index to send to each peer.
    next_index: Vec<u64>,
    /// Leader state: highest replicated index on each peer.
    match_index: Vec<u64>,
    election_deadline: u64,
    heartbeat_due: u64,
}

impl RaftNode {
    /// Create replica `id` in a cluster with the given peers (excluding
    /// itself).
    pub fn new(id: u32, peers: Vec<u32>, cfg: RaftConfig) -> Self {
        let n = peers.len();
        let mut node = RaftNode {
            id,
            peers,
            cfg,
            role: RaftRole::Follower,
            term: 0,
            voted_for: None,
            log: Vec::new(),
            commit_index: 0,
            applied_index: 0,
            votes: 0,
            next_index: vec![1; n],
            match_index: vec![0; n],
            election_deadline: 0,
            heartbeat_due: 0,
        };
        node.reset_election_deadline(0);
        node
    }

    /// Replica id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Current role.
    pub fn role(&self) -> RaftRole {
        self.role
    }

    /// Current term.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// Whether this replica currently believes it is the leader.
    pub fn is_leader(&self) -> bool {
        self.role == RaftRole::Leader
    }

    /// Committed log length.
    pub fn commit_index(&self) -> u64 {
        self.commit_index
    }

    /// Index of the last log entry (committed or not).
    pub fn last_log_index(&self) -> u64 {
        self.log.len() as u64
    }

    /// Deterministic per-replica election stagger: replica ids spread
    /// their timeouts so elections rarely collide (a substitute for the
    /// randomized timeout of full Raft that keeps the simulation
    /// reproducible).
    fn stagger(&self) -> u64 {
        (self.id as u64 + 1) * (self.cfg.election_timeout / 4)
    }

    fn reset_election_deadline(&mut self, now: u64) {
        self.election_deadline = now + self.cfg.election_timeout + self.stagger();
    }

    fn last_log_term(&self) -> u64 {
        self.log.last().map(|e| e.term).unwrap_or(0)
    }

    fn term_at(&self, index: u64) -> u64 {
        if index == 0 {
            0
        } else {
            self.log[(index - 1) as usize].term
        }
    }

    fn become_follower(&mut self, term: u64, now: u64) {
        self.term = term;
        self.role = RaftRole::Follower;
        self.voted_for = None;
        self.reset_election_deadline(now);
    }

    fn quorum(&self) -> usize {
        self.peers.len().div_ceil(2) + 1
    }

    /// Propose a command. Only valid on the leader; returns `false` (and
    /// drops the command) otherwise.
    pub fn propose(&mut self, data: Vec<u8>) -> bool {
        if self.role != RaftRole::Leader {
            return false;
        }
        self.log.push(LogEntry { term: self.term, data });
        // Single-node cluster commits immediately.
        if self.peers.is_empty() {
            self.commit_index = self.last_log_index();
        }
        true
    }

    /// Entries committed since the last call (in order).
    pub fn take_committed(&mut self) -> Vec<LogEntry> {
        let mut out = Vec::new();
        while self.applied_index < self.commit_index {
            out.push(self.log[self.applied_index as usize].clone());
            self.applied_index += 1;
        }
        out
    }

    /// Advance time; returns messages to deliver.
    pub fn tick(&mut self, now: u64) -> Vec<(u32, RaftMsg)> {
        let mut out = Vec::new();
        match self.role {
            RaftRole::Leader => {
                if now >= self.heartbeat_due {
                    self.heartbeat_due = now + self.cfg.heartbeat_interval;
                    for i in 0..self.peers.len() {
                        out.push((self.peers[i], self.append_for(i)));
                    }
                }
            }
            RaftRole::Follower | RaftRole::Candidate => {
                if now >= self.election_deadline {
                    self.term += 1;
                    self.role = RaftRole::Candidate;
                    self.voted_for = Some(self.id);
                    self.votes = 1;
                    self.reset_election_deadline(now);
                    if self.votes >= self.quorum() {
                        self.become_leader(now, &mut out);
                    } else {
                        for &p in &self.peers {
                            out.push((
                                p,
                                RaftMsg::RequestVote {
                                    term: self.term,
                                    last_log_index: self.last_log_index(),
                                    last_log_term: self.last_log_term(),
                                },
                            ));
                        }
                    }
                }
            }
        }
        out
    }

    fn become_leader(&mut self, now: u64, out: &mut Vec<(u32, RaftMsg)>) {
        self.role = RaftRole::Leader;
        self.heartbeat_due = now + self.cfg.heartbeat_interval;
        let next = self.last_log_index() + 1;
        for i in 0..self.peers.len() {
            self.next_index[i] = next;
            self.match_index[i] = 0;
        }
        for i in 0..self.peers.len() {
            out.push((self.peers[i], self.append_for(i)));
        }
    }

    fn append_for(&self, peer_idx: usize) -> RaftMsg {
        let next = self.next_index[peer_idx];
        let prev_log_index = next - 1;
        let prev_log_term = self.term_at(prev_log_index);
        let entries = self.log[(next - 1) as usize..].to_vec();
        RaftMsg::Append {
            term: self.term,
            prev_log_index,
            prev_log_term,
            entries,
            leader_commit: self.commit_index,
        }
    }

    /// Handle a message from `from`; returns messages to deliver.
    pub fn on_message(&mut self, from: u32, msg: RaftMsg, now: u64) -> Vec<(u32, RaftMsg)> {
        let mut out = Vec::new();
        match msg {
            RaftMsg::RequestVote { term, last_log_index, last_log_term } => {
                if term > self.term {
                    self.become_follower(term, now);
                }
                let log_ok = (last_log_term, last_log_index)
                    >= (self.last_log_term(), self.last_log_index());
                let granted = term == self.term
                    && log_ok
                    && (self.voted_for.is_none() || self.voted_for == Some(from));
                if granted {
                    self.voted_for = Some(from);
                    self.reset_election_deadline(now);
                }
                out.push((from, RaftMsg::Vote { term: self.term, granted }));
            }
            RaftMsg::Vote { term, granted } => {
                if term > self.term {
                    self.become_follower(term, now);
                } else if self.role == RaftRole::Candidate && term == self.term && granted {
                    self.votes += 1;
                    if self.votes >= self.quorum() {
                        self.become_leader(now, &mut out);
                    }
                }
            }
            RaftMsg::Append { term, prev_log_index, prev_log_term, entries, leader_commit } => {
                if term > self.term || (term == self.term && self.role == RaftRole::Candidate) {
                    self.become_follower(term, now);
                }
                if term < self.term {
                    out.push((
                        from,
                        RaftMsg::AppendResp { term: self.term, ok: false, match_index: 0 },
                    ));
                    return out;
                }
                self.reset_election_deadline(now);
                // Consistency check.
                if prev_log_index > self.last_log_index()
                    || (prev_log_index > 0 && self.term_at(prev_log_index) != prev_log_term)
                {
                    out.push((
                        from,
                        RaftMsg::AppendResp { term: self.term, ok: false, match_index: 0 },
                    ));
                    return out;
                }
                // Append, truncating any conflicting suffix. What this
                // Append covered ends at `last_new`; a longer local log may
                // still hold a stale suffix the leader never sent, so only
                // `last_new` may be reported as replicated or committed
                // (Raft's rule, Ongaro & Ousterhout Fig. 2).
                let last_new = prev_log_index + entries.len() as u64;
                let mut idx = prev_log_index;
                for e in entries {
                    idx += 1;
                    if (idx as usize) <= self.log.len() {
                        if self.log[(idx - 1) as usize].term != e.term {
                            self.log.truncate((idx - 1) as usize);
                            self.log.push(e);
                        }
                    } else {
                        self.log.push(e);
                    }
                }
                if leader_commit > self.commit_index {
                    self.commit_index = self.commit_index.max(leader_commit.min(last_new));
                }
                out.push((
                    from,
                    RaftMsg::AppendResp { term: self.term, ok: true, match_index: last_new },
                ));
            }
            RaftMsg::AppendResp { term, ok, match_index } => {
                if term > self.term {
                    self.become_follower(term, now);
                    return out;
                }
                if self.role != RaftRole::Leader || term < self.term {
                    return out;
                }
                let Some(i) = self.peers.iter().position(|&p| p == from) else {
                    return out;
                };
                if ok {
                    self.match_index[i] = self.match_index[i].max(match_index);
                    self.next_index[i] = self.match_index[i] + 1;
                    self.advance_commit();
                } else {
                    self.next_index[i] = self.next_index[i].saturating_sub(1).max(1);
                    out.push((from, self.append_for(i)));
                }
            }
        }
        out
    }

    /// Leader: advance commit index to the highest quorum-replicated entry
    /// of the current term.
    fn advance_commit(&mut self) {
        for n in ((self.commit_index + 1)..=self.last_log_index()).rev() {
            if self.term_at(n) != self.term {
                continue;
            }
            let replicas = 1 + self.match_index.iter().filter(|&&m| m >= n).count();
            if replicas >= self.quorum() {
                self.commit_index = n;
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// A toy synchronous network of Raft replicas with controllable
    /// partitions.
    struct Cluster {
        nodes: Vec<RaftNode>,
        inflight: VecDeque<(u32, u32, RaftMsg)>,
        blocked: Vec<bool>,
        now: u64,
    }

    impl Cluster {
        fn new(n: u32) -> Self {
            let cfg = RaftConfig { election_timeout: 1_000, heartbeat_interval: 200 };
            let nodes = (0..n)
                .map(|i| {
                    let peers = (0..n).filter(|&p| p != i).collect();
                    RaftNode::new(i, peers, cfg)
                })
                .collect();
            Cluster { nodes, inflight: VecDeque::new(), blocked: vec![false; n as usize], now: 0 }
        }

        /// Advance time by `dt`, delivering all messages synchronously.
        fn run(&mut self, dt: u64, step: u64) {
            let end = self.now + dt;
            while self.now < end {
                self.now += step;
                for i in 0..self.nodes.len() {
                    if self.blocked[i] {
                        continue;
                    }
                    for (to, msg) in self.nodes[i].tick(self.now) {
                        self.inflight.push_back((i as u32, to, msg));
                    }
                }
                while let Some((from, to, msg)) = self.inflight.pop_front() {
                    if self.blocked[from as usize] || self.blocked[to as usize] {
                        continue;
                    }
                    let replies = self.nodes[to as usize].on_message(from, msg, self.now);
                    for (rt, rm) in replies {
                        self.inflight.push_back((to, rt, rm));
                    }
                }
            }
        }

        fn leaders(&self) -> Vec<u32> {
            self.nodes
                .iter()
                .enumerate()
                .filter(|(i, n)| n.is_leader() && !self.blocked[*i])
                .map(|(i, _)| i as u32)
                .collect()
        }
    }

    #[test]
    fn single_node_self_elects_and_commits() {
        let mut c = Cluster::new(1);
        c.run(5_000, 100);
        assert_eq!(c.leaders(), vec![0]);
        assert!(c.nodes[0].propose(b"x".to_vec()));
        assert_eq!(c.nodes[0].take_committed().len(), 1);
    }

    #[test]
    fn three_nodes_elect_exactly_one_leader() {
        let mut c = Cluster::new(3);
        c.run(10_000, 100);
        assert_eq!(c.leaders().len(), 1);
    }

    #[test]
    fn log_replicates_to_quorum_and_commits_everywhere() {
        let mut c = Cluster::new(3);
        c.run(10_000, 100);
        let leader = c.leaders()[0] as usize;
        assert!(c.nodes[leader].propose(b"cmd1".to_vec()));
        assert!(c.nodes[leader].propose(b"cmd2".to_vec()));
        c.run(2_000, 100);
        for n in &mut c.nodes {
            let committed = n.take_committed();
            assert_eq!(committed.len(), 2, "replica {} missing entries", n.id());
            assert_eq!(committed[0].data, b"cmd1");
            assert_eq!(committed[1].data, b"cmd2");
        }
    }

    #[test]
    fn leader_failure_triggers_failover() {
        let mut c = Cluster::new(3);
        c.run(10_000, 100);
        let old = c.leaders()[0];
        c.blocked[old as usize] = true;
        c.run(20_000, 100);
        let new_leaders = c.leaders();
        assert_eq!(new_leaders.len(), 1);
        assert_ne!(new_leaders[0], old);
        // Old leader steps down when it rejoins.
        c.blocked[old as usize] = false;
        c.run(10_000, 100);
        assert_eq!(c.leaders().len(), 1);
    }

    #[test]
    fn committed_entries_survive_failover() {
        let mut c = Cluster::new(5);
        c.run(20_000, 100);
        let old = c.leaders()[0] as usize;
        assert!(c.nodes[old].propose(b"durable".to_vec()));
        c.run(2_000, 100);
        c.blocked[old] = true;
        c.run(30_000, 100);
        let new = c.leaders()[0] as usize;
        assert_ne!(new, old);
        assert!(c.nodes[new].propose(b"after".to_vec()));
        c.run(5_000, 100);
        let committed = c.nodes[new].take_committed();
        let datas: Vec<&[u8]> = committed.iter().map(|e| e.data.as_slice()).collect();
        assert!(datas.contains(&b"durable".as_slice()));
        assert!(datas.contains(&b"after".as_slice()));
        // "durable" must precede "after".
        let i = datas.iter().position(|d| *d == b"durable").unwrap();
        let j = datas.iter().position(|d| *d == b"after").unwrap();
        assert!(i < j);
    }

    #[test]
    fn follower_rejects_stale_term() {
        let mut n = RaftNode::new(0, vec![1], RaftConfig::default());
        n.term = 5;
        let out = n.on_message(
            1,
            RaftMsg::Append {
                term: 3,
                prev_log_index: 0,
                prev_log_term: 0,
                entries: vec![],
                leader_commit: 0,
            },
            0,
        );
        assert!(matches!(out[0].1, RaftMsg::AppendResp { ok: false, term: 5, .. }));
    }

    #[test]
    fn propose_on_follower_fails() {
        let mut n = RaftNode::new(0, vec![1, 2], RaftConfig::default());
        assert!(!n.propose(b"nope".to_vec()));
    }

    #[test]
    fn vote_denied_for_shorter_log() {
        let mut n = RaftNode::new(0, vec![1], RaftConfig::default());
        n.log.push(LogEntry { term: 1, data: vec![] });
        n.term = 1;
        let out = n.on_message(
            1,
            RaftMsg::RequestVote { term: 2, last_log_index: 0, last_log_term: 0 },
            0,
        );
        assert!(matches!(out[0].1, RaftMsg::Vote { granted: false, .. }));
    }
}
