//! Applications built on 1Pipe, reproducing §7.3 of the paper:
//!
//! * [`kvs`] — a distributed transactional key-value store (Figure 14),
//!   with 1Pipe scattering transactions, a FaRM-style OCC baseline and a
//!   non-transactional upper bound, under uniform and YCSB-zipfian keys.
//! * [`tpcc`] — TPC-C New-Order/Payment as independent transactions with
//!   replication (Figure 15), Eris-style over reliable scatterings,
//!   against two-phase locking and OCC baselines.
//! * [`hashtable`] — a replicated remote hash table exercising fence
//!   removal and replica reads (Figure 16).
//! * [`storage`] — Ceph-style storage replication: 1-RTT parallel
//!   replication vs a sequential primary-backup chain (§7.3.4).
//!
//! All applications implement [`AppHook`] and run inside the simulated
//! cluster ([`onepipe_core::harness::Cluster`]). They share one
//! closed-loop client/server skeleton, the private `rpc` module: the
//! in-flight table (ids, the ack countdown, completion into
//! [`TxnRecord`]s, the closed-loop refill, timed-out ids in id order, and
//! a primary's wait for its backups' acks), the hold-back queue the host
//! tick drains (server-CPU replies, retry backoffs, disk writes) and the
//! `[tag u8][id u64]` frame header. Each application keeps its own
//! protocol: its phases, tags, message bodies and replica state.
//!
//! [`AppHook`]: onepipe_core::simhost::AppHook

#![warn(missing_docs)]

pub mod hashtable;
pub mod kvs;
pub mod metrics;
mod rpc;
pub mod storage;
pub mod tpcc;
pub mod workload;

pub use metrics::{ByKey, TenantCounters, TenantTable, TxnMetrics, TxnRecord};
pub use workload::{Arrival, OpenLoop};
