//! Total-order broadcast baselines compared against 1Pipe in Figure 8:
//!
//! * [`sequencer`] — a centralized sequencer, either on a programmable
//!   switch (Eris/NetChain style, "SwitchSeq") or on a host NIC
//!   ("HostSeq"). All broadcasts detour through the sequencer, which
//!   stamps a global sequence number and fans copies out; it is both a
//!   processing and a bandwidth bottleneck.
//! * [`token`] — token-passing total order (Totem style): only the token
//!   holder may broadcast, stamping messages from the token's global
//!   counter.
//! * [`lamport`] — Lamport logical timestamps with periodic timestamp
//!   exchange: receivers deliver a message once every process's last
//!   reported timestamp exceeds it. This is also the "receiver-side
//!   aggregation" ablation of in-network barrier aggregation.
//!
//! All baselines run over the same [`onepipe-netsim`] substrate as 1Pipe,
//! with plain forwarding switches ([`plain::PlainSwitch`]) instead of
//! barrier-aggregating ones. Each scheme's host embeds one
//! [`host::HostBase`] (its processes, the staggered open-loop workload,
//! the send cap and the probe) and adds only its ordering logic; one
//! builder, [`host::world`], places them on a topology, and one probe
//! ([`measure`]) turns a run into [`RunMetrics`], the type 1Pipe's own
//! runs report too.
//!
//! [`onepipe-netsim`]: ../onepipe_netsim/index.html

#![warn(missing_docs)]

pub mod host;
pub mod lamport;
pub mod measure;
pub mod plain;
pub mod sequencer;
pub mod token;

pub use host::{fat_tree_for, world, HostBase};
pub use measure::{BroadcastProbe, RunMetrics};
pub use plain::PlainSwitch;
