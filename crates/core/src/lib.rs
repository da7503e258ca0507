//! Refresh-Oriented Prefetching (ROP) — the paper's contribution.
//!
//! ROP lives in the memory controller and revives the memory system during
//! *frozen cycles*: the `tRFC`-long windows in which an all-bank refresh
//! locks a rank. Before each refresh it prefetches the cache lines that
//! are likely to be read during the refresh into a small fully-associative
//! SRAM buffer, so those reads are serviced from SRAM instead of stalling.
//!
//! The crate mirrors the paper's architecture (Figure 5):
//!
//! * [`profiler::PatternProfiler`] — observes request activity in windows
//!   before (`B`) and during (`A`) each refresh over a training period and
//!   emits the conditional probabilities `λ = P{A>0 | B>0}` and
//!   `β = P{A=0 | B=0}` (Equations 1 and 2);
//! * [`prediction::PredictionTable`] — a VLDP-derived, per-bank table of
//!   1-, 2- and 3-delta patterns with frequencies (Figure 6);
//! * [`prefetcher::Prefetcher`] — converts table contents into prefetch
//!   candidates, apportioning SRAM capacity across banks by Equation 3;
//! * [`buffer::SramBuffer`] — the fully-associative staging buffer with
//!   the paper's CACTI-derived latency/energy parameters (Table III);
//! * [`throttle::ProbabilisticThrottle`] — the λ/β Bernoulli gate;
//! * [`engine::RopEngine`] — the Training → Observing → Prefetching state
//!   machine tying everything together, driven by controller events.
//!
//! The crate is deliberately independent of the DRAM model: the controller
//! (in `rop-memctrl`) feeds it access notifications and refresh timing and
//! executes the prefetch requests it emits.

#![forbid(unsafe_code)]

pub mod buffer;
pub mod config;
pub mod engine;
pub mod prediction;
pub mod prefetcher;
pub mod profiler;
pub mod throttle;

pub use buffer::SramBuffer;
pub use config::RopConfig;
pub use engine::{AccessWindow, EngineStats, PhaseTransition, RopEngine, RopPhase};
pub use prediction::{PredictionEntry, PredictionTable};
pub use prefetcher::{PrefetchCandidate, Prefetcher};
pub use profiler::{PatternProfiler, ProfileOutcome, RefreshCategory};
pub use throttle::ProbabilisticThrottle;

/// Memory-clock cycle (same unit as `rop-dram`).
pub type Cycle = u64;
