//! Static analysis for the ROP reproduction.
//!
//! Four passes, all runnable before a single simulated cycle:
//!
//! 1. [`config`] — a declarative constraint checker over resolved
//!    memory-controller configurations (DRAM timing + geometry + ROP
//!    knobs), with interval arithmetic so a whole sweep grid can be
//!    vetted symbolically. Wired as the fail-fast pre-run gate in
//!    `repro` and `rop-sweep run` (`--no-lint` bypasses).
//! 2. [`fsm`] — an exhaustive model checker over the discretized
//!    Training/Observing/Prefetching throttle + profiler state space:
//!    reachability of every paper-mandated state, no dead states, no
//!    livelocks, and the §IV-C hit-rate fallback edge present from
//!    every degraded Observing state.
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
//! The `rop-lint` binary exposes these as `check-config`, `fsm`,
//! `src` and `verify-mech` subcommands.

#![forbid(unsafe_code)]

pub mod config;
pub mod explore;
pub mod fsm;
pub mod interval;
pub mod mech;
pub mod srclint;

pub use config::{lint_config, lint_grid, lint_jobs, GridReport, Violation};
pub use fsm::{build_rop_fsm, check_fsm, Fsm, FsmReport};
pub use mech::{check_mechanism, MechCheckConfig, MechReport, MechUnderTest, Mutation};
pub use srclint::{compare, scan_workspace, Finding, SrcReport};
