//! Full-system simulator and experiment harness for the ROP reproduction.
//!
//! This crate assembles the substrate crates into runnable systems —
//! trace-driven cores ([`rop_cpu`]) → shared LLC ([`rop_cache`]) → memory
//! controller with optional ROP ([`rop_memctrl`]) → cycle-level DDR4
//! ([`rop_dram`]) — and implements one experiment module per table/figure
//! of the paper's evaluation (see DESIGN.md's experiment index).
//!
//! The simulation runs everything on the 800 MHz memory clock with a
//! fast-forward loop: when every core is stalled and the controller
//! reports no work before cycle `t`, the clock jumps straight to `t`.
//! Runs are *fixed-work*: each core executes a target instruction count
//! (as the paper does with its 1-billion-instruction SPEC slices), so
//! execution-time differences show up in both IPC and energy.

#![forbid(unsafe_code)]

pub mod audit;
pub mod config;
pub mod engine;
pub mod engine_stats;
pub mod experiments;
pub mod metrics;
pub mod openloop;
pub mod runner;
pub mod system;
pub mod wheel;

pub use audit::{AuditSummary, Auditor, AuditorConfig, Violation};
pub use config::{OpenLoopSpec, SystemConfig, SystemKind};
pub use metrics::{CoreMetrics, LatencyHistogram, OpenLoopMetrics, RunMetrics};
pub use openloop::OpenLoopSystem;
pub use runner::{
    parallel_map, run_single, AuditingExecutor, LocalExecutor, MemoExecutor, RunSpec,
    SweepExecutor, SweepJob,
};
pub use system::System;

/// Memory-clock cycle.
pub type Cycle = u64;
