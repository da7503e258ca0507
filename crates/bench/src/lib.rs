//! Benchmark-harness crate.
//!
//! * `src/bin/repro.rs` — the reproduction driver: one sub-command per
//!   table/figure of the paper (run `repro help`);
//! * `src/bin/perf_gate.rs` — the engine-throughput regression gate over
//!   the canonical workload shapes in [`perf`];
//! * `benches/` — Criterion microbenches of the hot simulator components
//!   and of event-driven vs per-cycle engine throughput.
//!
//! This library only hosts shared helpers for those targets.

#![forbid(unsafe_code)]

pub mod perf;
