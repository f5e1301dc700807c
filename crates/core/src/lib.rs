//! # lib1pipe — the 1Pipe endpoint library
//!
//! Implements the end-host side of 1Pipe (paper §6.1): the programming API
//! of Table 1, timestamping, send/receive buffering, receiver-side
//! reordering against barrier timestamps, the best-effort service, the
//! reliable service's two-phase commit, flow/congestion control, and the
//! process side of failure recovery.
//!
//! The centerpiece, [`Endpoint`], is a *sans-io* state machine in the
//! smoltcp tradition: it never touches sockets, clocks or timers itself.
//! Callers feed it local-clock readings and incoming datagrams, and drain
//! outgoing datagrams, deliveries and user events:
//!
//! ```text
//!   app ──send_unreliable/send_reliable──▶ ┌──────────┐ ──poll_transmit──▶ wire
//!   wire ──handle_datagram───────────────▶ │ Endpoint │ ──recv_*─────────▶ app
//!   beacons ──on_barrier─────────────────▶ └──────────┘ ──poll_event─────▶ app
//! ```
//!
//! One layer up, [`runtime`] packages everything a 1Pipe *host* does —
//! endpoint pumping, app-hook dispatch, beacon emission with its
//! flush-before-beacon invariant — and hands everything it produces
//! (packets, deliveries, user events, controller requests) to its driver
//! through the [`runtime::Wire`] trait. Two drivers exist: [`simhost`]
//! plugs hosts into the deterministic network simulator, and
//! `onepipe-udp` runs the same runtime over real UDP sockets. [`harness`]
//! assembles a complete simulated cluster — topology, switches,
//! endpoints, controller — and is what the experiments and examples
//! build on.

#![warn(missing_docs)]

pub mod config;
pub mod conn;
pub mod endpoint;
pub mod events;
pub mod frag;
pub mod harness;
pub mod reorder;
pub mod runtime;
pub mod simhost;

pub use config::{DeliveryMode, EndpointConfig};
pub use endpoint::Endpoint;
pub use events::UserEvent;
pub use harness::{Cluster, ClusterConfig};
pub use runtime::{AppHook, HostRuntime, SendQueue, Wire};
