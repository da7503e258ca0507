//! Static analysis for the ROP reproduction.
//!
//! Four passes, all runnable before a single simulated cycle:
//!
//! 1. [`config`] — a declarative constraint checker over resolved
//!    memory-controller configurations (DRAM timing + geometry + ROP
//!    knobs), each rule a plain predicate evaluated once per concrete
//!    job config. Wired, with pass 4, into [`pre_run_gate`], the
//!    fail-fast pre-run gate of `repro` and `rop-sweep run` (`--no-lint`
//!    bypasses).
//! 2. [`rop`] — a bounded exhaustive search over clones of the *real*
//!    `rop_core::RopEngine` under an adversarial window/statistics/coin
//!    oracle: every paper-mandated state has a witness, the §IV-C
//!    hit-rate fallback fires exactly when a recomputation says so,
//!    λ/β stay in [0, 1], and Prefetching and Training stay reachable.
//! 3. [`srclint`] — a self-contained token-level determinism and
//!    robustness lint over the workspace's library sources, with an
//!    inline `// rop-lint: allow(<rule>)` escape hatch and a
//!    checked-in, ratcheting baseline.
//! 4. [`mech`] — a bounded exhaustive model checker that drives the
//!    *real* refresh-mechanism zoo (AllBank/DARP/SARP/RAIDR) through
//!    an abstract memory system under an adversarial demand oracle,
//!    proving the JEDEC postpone budget, retention recurrence, tRFC
//!    scoping and refresh liveness over every interleaving — and
//!    replaying any counterexample through the dynamic `Auditor`.
//!
//! The `rop-lint` binary exposes these as `check-config`, `verify-rop`,
//! `src` and `verify-mech` subcommands.

#![forbid(unsafe_code)]

pub mod config;
pub mod explore;
pub mod gate;
pub mod mech;
pub mod rop;
pub mod srclint;

pub use config::{lint_config, lint_grid, lint_jobs, GridReport, Violation};
pub use gate::pre_run_gate;
pub use mech::{check_mechanism, MechCheckConfig, MechReport, MechUnderTest, Mutation};
pub use rop::{check_rop, RopReport};
pub use srclint::{compare, scan_workspace, Finding, SrcReport};
