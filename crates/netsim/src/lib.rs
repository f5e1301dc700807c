//! Deterministic discrete-event simulator of a data center network.
//!
//! This crate is the testbed substitute for the paper's 32-server,
//! 10-switch RoCEv2 cluster (§7.1). It models exactly the properties that
//! 1Pipe's correctness and performance rest on:
//!
//! * **FIFO links** — packets on a directed link are delivered in the order
//!   they were serialized (constant propagation delay + monotone
//!   serialization times). Barrier aggregation (paper §4.1) relies only on
//!   this hop-by-hop FIFO property.
//! * **DAG routing** — multi-rooted tree topology where each physical
//!   switch is split into an *uplink* and *downlink* logical switch
//!   (paper Figure 3), with ECMP up-down routing.
//! * **Queueing** — per-link output queues with finite buffers, tail drop
//!   and ECN marking, so congestion experiments (Figure 12) are meaningful.
//! * **Faults** — per-link random loss (corruption-style), scheduled link
//!   and node failures, for Figures 9b, 10 and 15b.
//!
//! The engine is deterministic: identical seeds and inputs produce
//! identical event sequences.
//!
//! Node behaviours (switch barrier logic, host endpoints, background
//! traffic) plug in through the [`NodeLogic`] trait.

#![warn(missing_docs)]

pub mod engine;
pub mod link;
pub mod pcap;
pub mod sched;
pub mod stats;
pub mod topology;
pub mod trace;
pub mod traffic;

pub use engine::{Ctx, NodeLogic, Sim, SimPacket};
pub use link::{Link, LinkParams};
pub use pcap::PcapWriter;
pub use stats::Stats;
pub use topology::{FatTreeParams, NodeRole, Topology};
pub use trace::{TraceRecord, Tracer, TracerHandle};
