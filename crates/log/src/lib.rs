//! # onepipe-log — multi-tenant ordered pub/sub log on 1Pipe
//!
//! A sharded log service in the Embarcadero mold: each tenant owns a
//! stream, clients submit batches stamped with a monotonic per-client
//! sequence, and shard servers append in 1Pipe delivery order while a
//! per-client *sequence gate* (hold-and-release, duplicate drop)
//! guarantees every client's batch order inside the global total order.
//! The network *is* the ordering layer: replicas of a stream receive
//! appends as one reliable scattering and converge without running any
//! replication protocol of their own.
//!
//! The crate is the service and nothing else: traffic enters only
//! through [`LogService::submit`], and load generators and fault
//! campaigns live with their callers (`onepipe_chaos::log` runs the
//! shard-crash campaign).
//!
//! Modules:
//! * [`gate`] — the gap-enforcement state machine, used per client by
//!   the shards and per stream (keyed by offset) by the subscribers,
//! * [`shard`] — per-stream record logs over the gates (pure, reused by
//!   the cross-transport conformance test),
//! * [`proto`] — wire formats (append / ack+credit / subscribe / record
//!   push / snapshot chunk / fetch),
//! * [`service`] — the [`AppHook`] tying clients, shard replicas, and
//!   subscribers together (credit backpressure, fan-out, replay,
//!   failover).
//!
//! [`AppHook`]: onepipe_core::simhost::AppHook

#![warn(missing_docs)]

pub mod gate;
pub mod proto;
pub mod service;
pub mod shard;

pub use gate::{ClientGate, Offered, Run};
pub use service::{LogConfig, LogService, ReplicaGroup};
pub use shard::{Record, ShardState};
