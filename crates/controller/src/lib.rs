//! The highly-available network controller of reliable 1Pipe (§5.2).
//!
//! The paper relies on an SDN-style controller that is "replicated using
//! Paxos or Raft, so it is highly available, and only one controller is
//! active at any time". This crate provides the whole replicated
//! deployment, sans-io:
//!
//! * [`raft`] — a compact Raft implementation (leader election, log
//!   replication, commitment) replicating controller decisions;
//! * [`protocol`] — the failure-recovery state machine executing the
//!   paper's Detect → Determine → Broadcast → Discard/Recall → Callback →
//!   Resume sequence (Figure 7), plus the message-forwarding fallback and
//!   receiver-recovery records;
//! * [`replicated`] — the glue: every replica applies the committed event
//!   log to an identical state machine, only the Raft leader emits
//!   actions, and a freshly elected leader *re-drives* in-flight
//!   recoveries (re-Announce to incomplete processes, re-Resume recorded
//!   links) rather than restarting them;
//! * [`wire`] — management-plane framing ([`MgmtFrame`]): events, epoch-
//!   tagged actions, Raft traffic, the host retry protocol
//!   (Req/Ack/Redirect), and forwarded datagrams;
//! * [`retry`] — the capped-exponential-backoff policy hosts use for
//!   control requests (bounded attempts, no silent drop).
//!
//! # Epochs and fencing
//!
//! Every [`CtrlAction`] leaves the controller tagged with the emitting
//! leader's Raft term — its **epoch**. Receivers keep the highest epoch
//! seen and drop actions from lower epochs, fencing off a deposed leader
//! that has not yet noticed its demotion. Within one epoch the leader
//! emits each action at most once; across epochs, receivers deduplicate
//! (endpoints by announcement id, switches by already-removed input), so
//! failover re-drives are *at-least-once on the wire, exactly-once in
//! effect*.
//!
//! # Degradation contract under controller outage
//!
//! The controller sits only on the recovery path. While no quorum (or no
//! leader) exists, best-effort traffic keeps flowing — beacons and the
//! data path never touch the controller — but recovery stalls, so
//! reliable sends that need a failed component Resumed stall with it.
//! Once a leader is (re-)elected, retried reports and requests drain into
//! the new log and recovery completes. Clients must therefore retry
//! ([`RetryPolicy`]) instead of fire-and-forget.

#![warn(missing_docs)]

pub mod protocol;
pub mod raft;
pub mod replicated;
pub mod retry;
pub mod wire;

pub use protocol::{
    ActionDest, ComponentId, ControllerCore, CtrlAction, CtrlEvent, FailureDomains, PendingFailure,
};
pub use raft::{RaftConfig, RaftMsg, RaftNode, RaftRole};
pub use replicated::ReplicatedController;
pub use retry::RetryPolicy;
pub use wire::MgmtFrame;

/// Controller replicas per deployment (§5.2: "replicated using Paxos or
/// Raft"): the smallest Raft group that survives the loss of one.
pub const REPLICAS: usize = 3;
