//! Sweep orchestration for the ROP reproduction: persistent, resumable,
//! fault-isolated experiment execution, and the `rop-sweep` CLI.
//!
//! The simulation crates stay declarative — an experiment is a list of
//! [`rop_sim_system::runner::SweepJob`]s handed to a
//! [`rop_sim_system::runner::SweepExecutor`]. This crate supplies the
//! production executor:
//!
//! * [`pool`] — a work-stealing worker pool sized to the machine, with
//!   `catch_unwind` fault isolation and a bounded retry budget, so one
//!   poisoned job never aborts a sweep;
//! * [`store`] — an append-only JSONL results store keyed by each job's
//!   content hash; an interrupted sweep resumes by skipping every job
//!   already recorded `ok` (failed jobs are retried);
//! * [`executor`] — [`executor::StoreExecutor`] gluing the two together
//!   (plus [`executor::PlanExecutor`] for dry enumeration);
//! * [`lease`] — lease-based job claiming over a second append-only
//!   log, so N independent processes (`rop-sweep run --join`) drain one
//!   store together: epoch-fenced claims, progress heartbeats, and
//!   counter-based (never wall-clock) expiry with deterministic
//!   split-brain resolution;
//! * [`progress`] — live completed/failed/remaining, throughput, ETA and
//!   per-worker telemetry;
//! * [`cli`] — the `rop-sweep` command (`run`, `resume`, `status`,
//!   `diff`, `export`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod executor;
mod jsonl;
pub mod lease;
pub mod pool;
pub mod progress;
pub mod store;

pub use executor::{job_id, ExecStats, Failure, PlanExecutor, StoreExecutor};
pub use lease::{
    lease_lock_path, lease_log_path, resolve_leases, ClaimDecision, CommitOutcome, HeartbeatGuard,
    JobLease, LeaseConfig, LeaseHooks, LeaseKind, LeaseLog, LeaseManager, LeaseRecord, LeaseView,
    LeaseViolation, StalenessTracker,
};
pub use pool::{run_jobs, JobOutcome, PoolConfig, Supervisor};
pub use progress::{Progress, ProgressSnapshot};
pub use store::{RealIo, Record, Status, Store, StoreContents, StoreIo};
