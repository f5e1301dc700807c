//! In-network processing for 1Pipe: hierarchical barrier aggregation.
//!
//! Implements the paper's three switch incarnations (§6.2):
//!
//! * [`Incarnation::Chip`] — a programmable switching chip (Tofino-style):
//!   every 1Pipe packet updates the barrier register of its input link and
//!   has its barrier fields rewritten to the switch-wide minimum on egress
//!   (eq. 4.1). Beacons are generated only on idle output links.
//! * [`Incarnation::SwitchCpu`] — a commodity chip + switch CPU: data
//!   packets are forwarded untouched; only beacons carry barrier
//!   information, recomputed periodically by the CPU with a processing
//!   delay, and sent on *every* output link each interval.
//! * [`Incarnation::HostDelegate`] — beacon processing offloaded to an
//!   end-host representative; same structure as the switch CPU but with a
//!   different (often smaller, via RDMA) processing delay plus the
//!   switch↔host round trip.
//!
//! All three live in one transport-neutral [`SwitchCore`] (`switch.rs`):
//! it reads no clock and does no I/O, and everything it sends, every
//! timer it arms and every dead input it reports goes through a
//! [`SwitchWire`]. This crate has no transport in it: `onepipe-core`'s
//! `SwitchNode` wraps the core for both drivers, the simulator's
//! `SwitchLogic` (`core/src/simswitch.rs`) and the UDP soft switch in
//! `onepipe-udp`, the chip of a one-rack loopback cluster.
//!
//! The core also implements the decentralized failure detection of §4.2:
//! an input link that carries neither data nor beacons for a timeout
//! (the simulator: 10 beacon intervals) is removed from the best-effort
//! minimum and reported through [`SwitchWire::dead_input`]; the
//! controller later calls [`SwitchCore::remove_commit_input`] (the
//! Resume step of §5.2) to unblock the commit barrier as well.

#![warn(missing_docs)]

pub mod barrier;
pub mod switch;

pub use barrier::BarrierAggregator;
pub use switch::{Incarnation, SwitchConfig, SwitchCore, SwitchWire};
