//! Chaos testing for 1Pipe: seeded fault campaigns plus a continuous
//! ordering-invariant oracle.

pub mod cli;
pub mod log;
pub mod oracle;
pub mod runner;
pub mod schedule;
pub mod shrink;
pub mod streams;

pub use oracle::{InvariantKind, Oracle, Violation};
pub use runner::{run_campaign, run_with_schedule, CampaignConfig, CampaignReport, SeedOutcome};
pub use schedule::{Fault, FaultBudget, FaultEvent, FaultSchedule};
pub use shrink::shrink;
pub use streams::StreamOrderOracle;
