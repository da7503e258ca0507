//! DDR4 memory controller with optional Refresh-Oriented Prefetching.
//!
//! This crate assembles the paper's Figure 5: a conventional controller
//! (transaction queues, FR-FCFS command scheduling, batched writes, an
//! auto-refresh Refresh Manager) plus the four ROP additions — Pattern
//! Profiler, Prefetcher, SRAM Buffer and Rank-aware Mapping — wired into
//! the refresh path:
//!
//! * when a rank's refresh falls due, requests queued for that rank are
//!   **drained** first (as in Mukundan et al.), and ROP's engine is asked
//!   for a prefetch decision;
//! * prefetch requests go to a dedicated queue and are issued before the
//!   refresh starts, opportunistically alongside drained demand requests
//!   (row hits first);
//! * while the rank is frozen (`tRFC`), read arrivals consult the SRAM
//!   buffer: hits complete in 3 cycles, misses wait for the refresh;
//! * when the refresh completes the buffer is flushed (ranks take turns
//!   using it) and the per-refresh hit statistics drive the engine's
//!   Training/Observing transitions.
//!
//! The controller also hosts the *measurement instrumentation* used by the
//! paper's §III analysis (Figures 2–4, Table I): an always-on
//! [`analysis::RefreshAnalysis`] per rank that classifies every refresh
//! by its before/after window activity at 1×/2×/4× window lengths.

#![forbid(unsafe_code)]

pub mod address;
pub mod analysis;
pub mod config;
pub mod controller;
pub mod mechanism;
pub mod refresh;
pub mod request;
mod scheduler;

pub use address::{AddressMapping, DecodedAddr, MappingScheme};
pub use analysis::{RefreshAnalysis, RefreshAnalysisReport};
pub use config::{MechanismKind, MemCtrlConfig, ELASTIC_MAX_DEBT};
pub use controller::{Completion, MemController, MemCtrlStats};
pub use mechanism::{Mechanism, RefreshMechanism, RefreshScope, RetentionBins, RoundShape};
pub use refresh::{RefreshManager, RefreshState};
pub use request::MemRequest;

/// Memory-clock cycle (same unit as `rop-dram`).
pub type Cycle = u64;
