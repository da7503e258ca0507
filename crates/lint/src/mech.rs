//! Pass 4 — `verify-mech`: bounded exhaustive model checking of the
//! refresh-mechanism zoo against an abstract retention/timing spec.
//!
//! The checker drives the **real** [`RefreshMechanism`] implementations
//! from `rop-memctrl` — not a re-model — through a small abstract
//! memory system: 1–2 ranks × 2–4 banks, time quantized to a tREFI
//! sub-lattice, and a nondeterministic demand oracle that chooses a
//! busy/idle bit per refresh slot (plus DARP's write-drain mode flag)
//! at every decision point. Exploring *all* oracle choices from the
//! initial state enumerates every adversarial interleaving of
//! `poll_due` / `on_refresh_issued` / `on_refresh_skipped` /
//! `on_bank_activity` the controller seam can produce, up to a depth
//! bound. Visited states are hashed ([`crate::explore::fingerprint`])
//! after canonicalization: all clocks are folded to *deltas* against
//! `now`, monotonic counters are reduced modulo their period, and
//! slots within a rank are sorted (bank-permutation symmetry), so the
//! reachable quotient is finite and the search hits a fixpoint.
//!
//! Invariants (stable IDs, catalogued in DESIGN.md §17):
//!
//! * `mech-postpone` — no refresh issues later than `max_postpone`
//!   (itself ≤ the 8×tREFI JEDEC budget) past the start of its drain;
//!   under a debt-postponing mechanism (Elastic) the owed-refresh debt
//!   also stays within the bound the dynamic [`Auditor`] enforces
//!   ([`AuditorConfig::debt_bound`]).
//! * `mech-retention` — every row keeps being recharged inside its
//!   retention window: schedules advance in exact tREFI steps, SARP's
//!   rotation revisits each subarray within `subarrays` rounds and
//!   never names a subarray that does not exist, and RAIDR's 64/128/
//!   256 ms bins are each covered within their round budget.
//! * `mech-trfc` — issued refresh commands carry the full tRFC /
//!   tRFCpb / tRFCsa lock duration for their scope (RAIDR scaled
//!   rounds: 1..=tRFC) and never overlap on a rank's refresh engine.
//! * `mech-liveness` — from every reachable state some refresh is
//!   eventually issuable (no demand-starvation livelock); sound under
//!   truncation because depth-capped frontier states are assumed live.
//! * `mech-replay` — a safety counterexample is not just a path: it is
//!   re-executed into a [`TraceEvent`] sequence and fed to the dynamic
//!   [`Auditor`], which must independently flag it. This closes the
//!   static↔dynamic loop — the two checkers vouch for each other.
//!
//! Seeded mutations ([`Mutation`]) wrap a real mechanism with one
//! plausible bug each (per zoo member) and must all produce
//! Auditor-confirmed counterexamples; they are the checker's own
//! regression suite.

use std::collections::VecDeque;
use std::fmt;

use rop_dram::TimingParams;
use rop_events::{Cycle, EventSink, TraceEvent};
use rop_memctrl::mechanism::{AllBank, Darp, Elastic, Raidr, Sarp};
use rop_memctrl::{
    MechanismKind, RefreshManager, RefreshMechanism, RefreshScope, RefreshState, RoundShape,
};
use rop_sim_system::{Auditor, AuditorConfig};

use crate::explore::{fingerprint, SearchGraph, VisitedSet};

/// A mechanism the checker can clone at every search node. Blanket-
/// implemented for every `Clone` [`RefreshMechanism`], so the zoo (and
/// any future member) is coverable without per-type glue.
pub trait MechUnderTest: RefreshMechanism {
    /// Clones the mechanism behind the trait object.
    fn clone_box(&self) -> Box<dyn MechUnderTest>;
}

impl<T: RefreshMechanism + Clone + 'static> MechUnderTest for T {
    fn clone_box(&self) -> Box<dyn MechUnderTest> {
        Box::new(self.clone())
    }
}

/// The DRAM timing every gate check runs on (DDR4-1600).
fn gate_timing() -> TimingParams {
    TimingParams::ddr4_1600_8gb()
}

/// RAIDR at its gate parameters: a fixed retention-profile seed and a
/// shortest-bin period of two tREFI.
fn gate_raidr() -> MechanismKind {
    MechanismKind::Raidr {
        seed: 0x5241_4944, // "RAID"
        bin_period: 2 * gate_timing().t_refi(),
    }
}

/// Every zoo member `verify-mech` covers, at its gate parameters, in
/// gate order. Members are told apart by [`MechanismKind::label`].
pub fn zoo() -> [MechanismKind; 6] {
    [
        MechanismKind::AllBank { per_bank: false },
        MechanismKind::AllBank { per_bank: true },
        MechanismKind::Elastic,
        MechanismKind::Darp,
        MechanismKind::Sarp,
        gate_raidr(),
    ]
}

/// The zoo member named `label` (a CLI name).
pub fn parse_mechanism(label: &str) -> Option<MechanismKind> {
    zoo().into_iter().find(|k| k.label() == label)
}

/// The distinct zoo members a job set will build, in gate order — the
/// coverage the pre-sweep verify-mech gate needs.
pub fn mechanisms_in_jobs(jobs: &[rop_sim_system::runner::SweepJob]) -> Vec<MechanismKind> {
    let present: Vec<&str> = jobs
        .iter()
        .map(|j| crate::config::resolve_ctrl(j).mechanism.label())
        .collect();
    zoo()
        .into_iter()
        .filter(|k| present.contains(&k.label()))
        .collect()
}

/// Pre-sweep gate: bounded exhaustive check of every distinct zoo
/// member `jobs` will build. `Ok` carries the per-mechanism reports
/// for logging; `Err` the rendered failures.
pub fn gate_jobs(jobs: &[rop_sim_system::runner::SweepJob]) -> Result<Vec<MechReport>, String> {
    let mut reports = Vec::new();
    let mut failures = String::new();
    for kind in mechanisms_in_jobs(jobs) {
        let report = check_mechanism(&MechCheckConfig::gate(kind));
        if !report.ok() {
            failures.push_str(&report.render());
        }
        reports.push(report);
    }
    if failures.is_empty() {
        Ok(reports)
    } else {
        Err(failures)
    }
}

/// Seeded bugs in the zoo: each wraps (or re-parameterises) the *real*
/// mechanism and perturbs exactly one behaviour. All five must yield
/// Auditor-confirmed counterexamples — they are the mutation self-test
/// the CI gate runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// AllBank issues REF commands with a 1-cycle lock: the rank is
    /// declared refreshed after a token pulse (`mech-trfc`).
    ShortRef,
    /// DARP drops its pull-in bookkeeping: a pulled-in round is
    /// treated as already-covered and issues a truncated token REFpb
    /// instead of the full tRFCpb lock (`mech-trfc`).
    TruncatedPullIn,
    /// SARP rotates over `subarrays + 1` positions: one round per lap
    /// names a subarray that does not exist, refreshing no real rows
    /// (`mech-retention`).
    RotateOverflow,
    /// RAIDR widens its skip predicate to 4× the configured stride:
    /// only every fourth cover round actually refreshes, so the 64 ms
    /// bin overshoots its deadline (`mech-retention`).
    WidenedSkip,
    /// Elastic ignores its debt cap: a rank that never goes idle never
    /// pays, and its debt grows past the bound (`mech-postpone`).
    UncappedDebt,
}

impl Mutation {
    /// Every seeded mutation, in gate order.
    pub const ALL: [Mutation; 5] = [
        Mutation::ShortRef,
        Mutation::TruncatedPullIn,
        Mutation::RotateOverflow,
        Mutation::WidenedSkip,
        Mutation::UncappedDebt,
    ];

    /// The zoo member this mutation perturbs.
    pub fn target(self) -> MechanismKind {
        match self {
            Mutation::ShortRef => MechanismKind::AllBank { per_bank: false },
            Mutation::TruncatedPullIn => MechanismKind::Darp,
            Mutation::RotateOverflow => MechanismKind::Sarp,
            Mutation::WidenedSkip => gate_raidr(),
            Mutation::UncappedDebt => MechanismKind::Elastic,
        }
    }

    /// CLI name.
    pub fn label(self) -> &'static str {
        match self {
            Mutation::ShortRef => "short-ref",
            Mutation::TruncatedPullIn => "truncated-pull-in",
            Mutation::RotateOverflow => "rotate-overflow",
            Mutation::WidenedSkip => "widened-skip",
            Mutation::UncappedDebt => "uncapped-debt",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Mutation> {
        Mutation::ALL.into_iter().find(|m| m.label() == s)
    }
}

/// Everything one `verify-mech` run needs: the mechanism (and optional
/// seeded mutation), the abstract system shape, timing, and search
/// bounds.
#[derive(Debug, Clone)]
pub struct MechCheckConfig {
    /// Zoo member under test, with its parameters (RAIDR's seed and
    /// shortest-bin period, a multiple of tREFI).
    pub kind: MechanismKind,
    /// Seeded bug to inject, for the mutation self-test.
    pub mutation: Option<Mutation>,
    /// Ranks in the abstract system.
    pub ranks: usize,
    /// Banks per rank (slots per rank under per-bank scope).
    pub banks_per_rank: usize,
    /// Subarrays per bank (SARP rotation length).
    pub subarrays: usize,
    /// DRAM timing the abstract environment and the replay Auditor
    /// share; `t_refi`/`t_rfc*` are read from here.
    pub timing: TimingParams,
    /// Drain-before-refresh postpone budget (cycles); must stay within
    /// the 8×tREFI JEDEC budget and on the decision lattice.
    pub max_postpone: Cycle,
    /// RAIDR rows per rank in the abstract retention profile.
    pub raidr_rows: usize,
    /// Depth bound: decision steps explored from the initial state.
    pub max_steps: usize,
    /// Safety valve on distinct canonical states.
    pub max_states: usize,
}

impl MechCheckConfig {
    /// The CI gate configuration for one zoo member: DDR4-1600 timing,
    /// two ranks for the per-rank mechanisms (stagger interleaving),
    /// one rank × four banks for the per-bank ones (sibling
    /// interactions), depth generous enough that the canonical state
    /// space closes well before the bound.
    pub fn gate(kind: MechanismKind) -> Self {
        let timing = gate_timing();
        let ranks = match kind.scope() {
            RefreshScope::PerRank => 2,
            RefreshScope::PerBank => 1,
        };
        MechCheckConfig {
            kind,
            mutation: None,
            ranks,
            banks_per_rank: 4,
            subarrays: 4,
            timing,
            max_postpone: 2 * timing.t_refi(),
            raidr_rows: 256,
            max_steps: 400,
            max_states: 500_000,
        }
    }

    /// The gate configuration for a seeded mutation (shape of the
    /// mutation's target mechanism).
    pub fn mutated(m: Mutation) -> Self {
        let mut cfg = Self::gate(m.target());
        cfg.mutation = Some(m);
        cfg
    }
}

/// One invariant violation found by the search.
#[derive(Debug, Clone)]
pub struct MechViolation {
    /// Stable invariant ID (`mech-postpone`, `mech-retention`,
    /// `mech-trfc`, `mech-liveness`).
    pub invariant: &'static str,
    /// Model cycle at which the invariant broke.
    pub cycle: Cycle,
    /// Human-readable description with observed and required values.
    pub message: String,
    /// Oracle-choice sequence reproducing the violation from the
    /// initial state (one choice per decision step).
    pub path: Vec<usize>,
}

impl fmt::Display for MechViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] at cycle {}: {} (path: {} steps)",
            self.invariant,
            self.cycle,
            self.message,
            self.path.len()
        )
    }
}

/// The counterexample re-executed as a concrete trace and re-validated
/// by the dynamic [`Auditor`] (`mech-replay`).
#[derive(Debug, Clone)]
pub struct MechReplay {
    /// The replayable event sequence.
    pub events: Vec<TraceEvent>,
    /// Invariants the Auditor flagged on replay.
    pub auditor_invariants: Vec<&'static str>,
    /// True when the Auditor independently confirmed the violation.
    pub confirmed: bool,
    /// The Auditor's full report (for artifacts).
    pub report: String,
}

/// Outcome of one `verify-mech` run.
#[derive(Debug)]
pub struct MechReport {
    /// Zoo member checked.
    pub kind: MechanismKind,
    /// Seeded mutation, when this was a self-test run.
    pub mutation: Option<Mutation>,
    /// Distinct canonical states visited.
    pub states: usize,
    /// Transitions explored.
    pub transitions: usize,
    /// Deepest decision step expanded.
    pub depth: usize,
    /// True when the search closed (fixpoint) within the bounds; false
    /// means some frontier states were cut off at `max_steps` /
    /// `max_states` and the verdict is bounded, not exhaustive.
    pub complete: bool,
    /// Reachable states from which no refresh is ever issuable.
    pub livelocks: usize,
    /// First invariant violation, if any.
    pub violation: Option<MechViolation>,
    /// Counterexample replay through the Auditor, when a safety
    /// violation was found.
    pub replay: Option<MechReplay>,
}

impl MechReport {
    /// True when every invariant held over the explored space.
    pub fn ok(&self) -> bool {
        self.violation.is_none() && self.livelocks == 0
    }

    /// One-screen summary for the CLI.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let name = match self.mutation {
            Some(m) => format!("{}+{}", self.kind.label(), m.label()),
            None => self.kind.label().to_string(),
        };
        let closure = if self.complete {
            "fixpoint"
        } else {
            "depth-bounded"
        };
        out.push_str(&format!(
            "verify-mech {name}: {} states, {} transitions, {} at depth {}\n",
            self.states, self.transitions, closure, self.depth
        ));
        match &self.violation {
            None => out
                .push_str("  OK: mech-postpone mech-retention mech-trfc mech-liveness all hold\n"),
            Some(v) => {
                out.push_str(&format!("  FAIL {v}\n"));
                match &self.replay {
                    Some(r) => {
                        let verdict = if r.confirmed {
                            "confirmed"
                        } else {
                            "NOT confirmed"
                        };
                        out.push_str(&format!(
                            "  mech-replay: {} events, Auditor {} ({})\n",
                            r.events.len(),
                            verdict,
                            r.auditor_invariants.join(", ")
                        ));
                    }
                    None => out.push_str("  (liveness counterexamples have no replay)\n"),
                }
            }
        }
        out
    }
}

/// Derived environment constants, fixed for one run.
struct Env {
    ranks: usize,
    slots: usize,
    slots_per_rank: usize,
    banks_per_rank: usize,
    per_bank: bool,
    subarrays: usize,
    t_refi: Cycle,
    t_rfc: Cycle,
    t_rfc_pb: Cycle,
    t_rfc_sa: Cycle,
    max_postpone: Cycle,
    quantum: Cycle,
    /// RAIDR rounds per shortest-bin period, when binning is on.
    raidr_stride: Option<u64>,
    /// Oracle choices per decision step.
    choices: usize,
    /// Owed-refresh bound, for a debt-postponing mechanism.
    debt_bound: Option<u64>,
}

impl Env {
    fn new(cfg: &MechCheckConfig) -> Env {
        let per_bank = cfg.kind.scope() == RefreshScope::PerBank;
        let slots = if per_bank {
            cfg.ranks * cfg.banks_per_rank
        } else {
            cfg.ranks
        };
        let t_refi = cfg.timing.t_refi();
        // The decision lattice: fine enough that every slot's stagger
        // offset and the postpone deadline land exactly on it (so a
        // clean forced issue is never observed late), coarse enough
        // that any refresh completes before the next decision point.
        let quantum = t_refi / slots.max(4) as u64;
        assert!(quantum > 0 && t_refi.is_multiple_of(quantum));
        // Stagger offsets and the postpone deadline must land on the
        // lattice, or a clean forced issue would be observed late.
        assert!((t_refi / slots as u64).is_multiple_of(quantum));
        assert!(cfg.max_postpone.is_multiple_of(quantum));
        assert!(cfg.timing.t_rfc() <= quantum, "tRFC must fit one quantum");
        assert!(cfg.subarrays <= 8, "fingerprint packs 8-bit lanes");
        let raidr_stride = match cfg.kind {
            MechanismKind::Raidr { bin_period, .. } => {
                assert!(bin_period.is_multiple_of(t_refi));
                Some(bin_period / t_refi)
            }
            _ => None,
        };
        // The write-drain flag only changes DARP's pull-in window;
        // branching on it elsewhere doubles the edge count for nothing.
        let wd = if cfg.kind == MechanismKind::Darp {
            2
        } else {
            1
        };
        let mut env = Env {
            ranks: cfg.ranks,
            slots,
            slots_per_rank: slots / cfg.ranks,
            banks_per_rank: cfg.banks_per_rank,
            per_bank,
            subarrays: cfg.subarrays,
            t_refi,
            t_rfc: cfg.timing.t_rfc(),
            t_rfc_pb: cfg.timing.t_rfc_pb,
            t_rfc_sa: cfg.timing.t_rfc_sa,
            max_postpone: cfg.max_postpone,
            quantum,
            raidr_stride,
            choices: (1 << slots) * wd,
            debt_bound: None,
        };
        env.debt_bound = audit_config(cfg, &env).debt_bound();
        env
    }

    fn rank_of(&self, slot: usize) -> usize {
        if self.per_bank {
            slot / self.banks_per_rank
        } else {
            slot
        }
    }

    fn bank_of(&self, slot: usize) -> Option<usize> {
        self.per_bank.then_some(slot % self.banks_per_rank)
    }

    /// Round budget (in tREFI rounds) for RAIDR retention bin `i`.
    fn bin_budget(&self, bin: usize) -> u64 {
        self.raidr_stride.unwrap_or(1) << bin
    }
}

/// The dynamic Auditor's view of the abstract system — the replay
/// checker, and the source of the debt bound the search enforces.
fn audit_config(cfg: &MechCheckConfig, env: &Env) -> AuditorConfig {
    AuditorConfig {
        timing: cfg.timing,
        ranks: env.ranks,
        banks_per_rank: env.banks_per_rank,
        per_bank: env.per_bank,
        max_refresh_postpone: env.max_postpone,
        max_debt: cfg.kind.debt_cap(),
        observational_window: None,
        rows_per_subarray: 1024,
        subarrays_per_bank: env.subarrays,
        raidr_bin_period: env.raidr_stride.map(|s| s * env.t_refi),
    }
}

fn build_mech(cfg: &MechCheckConfig) -> Box<dyn MechUnderTest> {
    let t_refi = cfg.timing.t_refi();
    let slots = cfg.ranks * cfg.banks_per_rank;
    let raidr = |seed, bin_period| {
        Raidr::new(
            cfg.ranks,
            seed,
            bin_period,
            t_refi,
            cfg.timing.t_rfc(),
            cfg.raidr_rows,
        )
    };
    match (cfg.mutation, cfg.kind) {
        (None, MechanismKind::AllBank { .. }) => Box::new(AllBank),
        (None, MechanismKind::Elastic) => Box::new(Elastic::new(cfg.ranks)),
        (None, MechanismKind::Darp) => Box::new(Darp::new(slots, cfg.banks_per_rank, t_refi)),
        (None, MechanismKind::Sarp) => Box::new(Sarp::new(cfg.subarrays)),
        (None, MechanismKind::Raidr { seed, bin_period }) => Box::new(raidr(seed, bin_period)),
        (Some(Mutation::ShortRef), _) => Box::new(MutShortRef { inner: AllBank }),
        (Some(Mutation::TruncatedPullIn), _) => Box::new(MutTruncatedPullIn {
            inner: Darp::new(slots, cfg.banks_per_rank, t_refi),
            pulled: vec![false; slots],
        }),
        (Some(Mutation::RotateOverflow), _) => Box::new(MutRotateOverflow {
            inner: Sarp::new(cfg.subarrays),
            subarrays: cfg.subarrays,
        }),
        (Some(Mutation::WidenedSkip), MechanismKind::Raidr { seed, bin_period }) => {
            Box::new(MutWidenedSkip {
                inner: raidr(seed, bin_period),
                widen: 4 * (bin_period / t_refi),
                rounds: vec![0; cfg.ranks],
            })
        }
        // The real Elastic with its cap lifted out of reach.
        (Some(Mutation::UncappedDebt), _) => Box::new(Elastic::with_max_debt(cfg.ranks, u32::MAX)),
        // `check_mechanism` runs a mutation only on its target.
        // rop-lint: allow(no-panic)
        (Some(m), kind) => panic!("mutation {} on {}", m.label(), kind.label()),
    }
}

/// [`Mutation::ShortRef`]: AllBank whose REF locks the rank for one
/// cycle instead of tRFC.
#[derive(Clone)]
struct MutShortRef {
    inner: AllBank,
}

impl RefreshMechanism for MutShortRef {
    fn poll_due(
        &mut self,
        base: &mut RefreshManager,
        now: Cycle,
        busy: &dyn Fn(usize) -> bool,
        write_drain: bool,
        out: &mut Vec<usize>,
    ) {
        self.inner.poll_due(base, now, busy, write_drain, out);
    }

    fn round_shape(&self, base: &RefreshManager, slot: usize) -> RoundShape {
        RoundShape::Scaled {
            duration: 1,
            round: base.issued(slot),
            covers_128: true,
            covers_256: true,
        }
    }

    fn on_refresh_issued(
        &mut self,
        base: &mut RefreshManager,
        slot: usize,
        now: Cycle,
        until: Cycle,
    ) {
        self.inner.on_refresh_issued(base, slot, now, until);
    }
}

/// [`Mutation::TruncatedPullIn`]: DARP that loses its pull-in
/// bookkeeping — a pulled-in round is treated as already-covered and
/// issues a token-length REFpb.
#[derive(Clone)]
struct MutTruncatedPullIn {
    inner: Darp,
    pulled: Vec<bool>,
}

impl RefreshMechanism for MutTruncatedPullIn {
    fn poll_due(
        &mut self,
        base: &mut RefreshManager,
        now: Cycle,
        busy: &dyn Fn(usize) -> bool,
        write_drain: bool,
        out: &mut Vec<usize>,
    ) {
        let before = out.len();
        self.inner.poll_due(base, now, busy, write_drain, out);
        // A slot draining *ahead of* its due time is a pull-in.
        for &s in &out[before..] {
            if let RefreshState::Draining { due } = base.state(s) {
                if due > now {
                    self.pulled[s] = true;
                }
            }
        }
    }

    fn round_shape(&self, base: &RefreshManager, slot: usize) -> RoundShape {
        if self.pulled[slot] {
            RoundShape::Scaled {
                duration: 8,
                round: base.issued(slot),
                covers_128: false,
                covers_256: false,
            }
        } else {
            self.inner.round_shape(base, slot)
        }
    }

    fn on_refresh_issued(
        &mut self,
        base: &mut RefreshManager,
        slot: usize,
        now: Cycle,
        until: Cycle,
    ) {
        self.pulled[slot] = false;
        self.inner.on_refresh_issued(base, slot, now, until);
    }

    fn on_bank_activity(&mut self, slot: usize, now: Cycle) {
        self.inner.on_bank_activity(slot, now);
    }

    fn mech_state(&self, base: &RefreshManager, now: Cycle, slot: usize) -> u64 {
        self.inner.mech_state(base, now, slot) | (u64::from(self.pulled[slot]) << 56)
    }
}

/// [`Mutation::RotateOverflow`]: SARP rotating over `subarrays + 1`
/// positions — one round per lap targets a subarray that does not
/// exist.
#[derive(Clone)]
struct MutRotateOverflow {
    inner: Sarp,
    subarrays: usize,
}

impl RefreshMechanism for MutRotateOverflow {
    fn poll_due(
        &mut self,
        base: &mut RefreshManager,
        now: Cycle,
        busy: &dyn Fn(usize) -> bool,
        write_drain: bool,
        out: &mut Vec<usize>,
    ) {
        self.inner.poll_due(base, now, busy, write_drain, out);
    }

    fn round_shape(&self, base: &RefreshManager, slot: usize) -> RoundShape {
        RoundShape::Subarray {
            subarray: (base.issued(slot) % (self.subarrays as u64 + 1)) as usize,
        }
    }

    fn on_refresh_issued(
        &mut self,
        base: &mut RefreshManager,
        slot: usize,
        now: Cycle,
        until: Cycle,
    ) {
        self.inner.on_refresh_issued(base, slot, now, until);
    }

    fn mech_state(&self, base: &RefreshManager, _now: Cycle, slot: usize) -> u64 {
        base.issued(slot) % (self.subarrays as u64 + 1)
    }
}

/// [`Mutation::WidenedSkip`]: RAIDR whose skip predicate fires on
/// everything but every fourth cover round — the 64 ms bin overshoots
/// its deadline.
#[derive(Clone)]
struct MutWidenedSkip {
    inner: Raidr,
    /// Rounds between surviving covers (4 × the clean stride).
    widen: u64,
    /// Own per-slot round counters, advanced in lockstep with the
    /// inner mechanism's.
    rounds: Vec<u64>,
}

impl RefreshMechanism for MutWidenedSkip {
    fn poll_due(
        &mut self,
        base: &mut RefreshManager,
        now: Cycle,
        busy: &dyn Fn(usize) -> bool,
        write_drain: bool,
        out: &mut Vec<usize>,
    ) {
        self.inner.poll_due(base, now, busy, write_drain, out);
    }

    fn round_shape(&self, base: &RefreshManager, slot: usize) -> RoundShape {
        let r = self.rounds[slot];
        if r.is_multiple_of(self.widen) {
            self.inner.round_shape(base, slot)
        } else {
            RoundShape::Skip { round: r }
        }
    }

    fn on_refresh_issued(
        &mut self,
        base: &mut RefreshManager,
        slot: usize,
        now: Cycle,
        until: Cycle,
    ) {
        self.rounds[slot] += 1;
        self.inner.on_refresh_issued(base, slot, now, until);
    }

    fn on_refresh_skipped(&mut self, base: &mut RefreshManager, slot: usize, now: Cycle) {
        self.rounds[slot] += 1;
        self.inner.on_refresh_skipped(base, slot, now);
    }

    fn mech_state(&self, base: &RefreshManager, now: Cycle, slot: usize) -> u64 {
        self.inner.mech_state(base, now, slot) | ((self.rounds[slot] % self.widen) << 32)
    }
}

/// The mutable model state: the real manager + mechanism, plus the
/// spec's own retention bookkeeping (round-unit recurrence counters —
/// wall-clock recurrence follows from these plus `mech-postpone` and
/// the exact-tREFI schedule-advance check, and round units keep the
/// canonical state space finite).
struct World {
    now: Cycle,
    mgr: RefreshManager,
    mech: Box<dyn MechUnderTest>,
    /// Per-rank refresh-engine busy-until (command overlap check).
    engine_free: Vec<Cycle>,
    /// SARP: rounds since subarray `slot * subarrays + sa` was
    /// refreshed, saturated just past the budget.
    sarp_since: Vec<u32>,
    /// RAIDR: rounds since bin `rank * 3 + bin` was covered, saturated
    /// just past the budget.
    bin_since: Vec<u32>,
}

impl Clone for World {
    fn clone(&self) -> World {
        World {
            now: self.now,
            mgr: self.mgr.clone(),
            mech: self.mech.clone_box(),
            engine_free: self.engine_free.clone(),
            sarp_since: self.sarp_since.clone(),
            bin_since: self.bin_since.clone(),
        }
    }
}

impl World {
    fn new(cfg: &MechCheckConfig, env: &Env) -> World {
        World {
            now: 0,
            mgr: RefreshManager::new(env.slots, env.t_refi, env.max_postpone, true),
            mech: build_mech(cfg),
            engine_free: vec![0; env.ranks],
            sarp_since: vec![0; env.slots * env.subarrays],
            bin_since: vec![0; env.ranks * 3],
        }
    }
}

/// Collects the replay trace during counterexample re-execution.
/// `RefreshEnd` events are buffered until the clock passes their
/// completion cycle so the emitted sequence stays time-ordered.
#[derive(Default)]
struct Recorder {
    events: Vec<TraceEvent>,
    pending_ends: Vec<(Cycle, usize, Option<usize>)>,
}

impl Recorder {
    fn flush_upto(&mut self, now: Cycle) {
        self.pending_ends.sort_unstable();
        let mut rest = Vec::new();
        for &(cycle, rank, bank) in &self.pending_ends {
            if cycle <= now {
                self.events
                    .push(TraceEvent::RefreshEnd { cycle, rank, bank });
            } else {
                rest.push((cycle, rank, bank));
            }
        }
        self.pending_ends = rest;
    }

    fn finish(mut self) -> Vec<TraceEvent> {
        self.flush_upto(Cycle::MAX);
        self.events
    }
}

fn viol(invariant: &'static str, cycle: Cycle, message: String) -> MechViolation {
    MechViolation {
        invariant,
        cycle,
        message,
        path: Vec::new(),
    }
}

/// Advances the world by one decision step under oracle `choice`.
/// Returns `(progress, violation)`: `progress` marks a refresh command
/// actually issued (the liveness goal).
fn step(
    env: &Env,
    w: &mut World,
    choice: usize,
    mut rec: Option<&mut Recorder>,
) -> (bool, Option<MechViolation>) {
    let now = w.now;
    let busy_mask = choice & ((1 << env.slots) - 1);
    let write_drain = (choice >> env.slots) & 1 == 1;
    let busy = move |s: usize| busy_mask >> s & 1 == 1;

    if let Some(r) = rec.as_deref_mut() {
        r.flush_upto(now);
    }

    // Completions from earlier steps (every duration fits one quantum,
    // so anything in flight has finished by now).
    let mut done = Vec::new();
    w.mgr.poll_complete_into(now, &mut done);

    // The oracle's demand arrivals for this step.
    for s in 0..env.slots {
        if busy(s) {
            w.mech.on_bank_activity(s, now);
        }
    }

    // Due-time bookkeeping: new drains, (DARP) pull-ins and (Elastic)
    // postponements into debt.
    let mut newly = Vec::new();
    w.mech
        .poll_due(&mut w.mgr, now, &busy, write_drain, &mut newly);
    if let Some(v) = record_postponed(env, w, now, rec.as_deref_mut()) {
        return (false, Some(v));
    }
    for &s in &newly {
        // RAIDR rounds with no retention bin due resolve at poll time,
        // exactly like the real controller: no drain, no bus command,
        // just a RetentionRound marker in the trace.
        if let RoundShape::Skip { round } = w.mech.round_shape(&w.mgr, s) {
            if env.raidr_stride.is_none() {
                return (
                    false,
                    Some(viol(
                        "mech-trfc",
                        now,
                        format!("slot {s} skipped a refresh round, but the mechanism has no retention bins to justify it"),
                    )),
                );
            }
            let due = w.mgr.next_due(s);
            w.mech.on_refresh_skipped(&mut w.mgr, s, now);
            if let Some(r) = rec.as_deref_mut() {
                r.events.push(TraceEvent::RetentionRound {
                    cycle: now,
                    rank: env.rank_of(s),
                    round,
                    covers_128: false,
                    covers_256: false,
                });
            }
            let v = check_due_advance(env, &w.mgr, s, due, now)
                .or_else(|| advance_bins(env, w, env.rank_of(s), now, false, false, false));
            if v.is_some() {
                return (false, v);
            }
        } else if let Some(r) = rec.as_deref_mut() {
            r.events.push(TraceEvent::DrainStart {
                cycle: now,
                rank: env.rank_of(s),
            });
        }
    }

    // Issue phase: one refresh engine per rank, so at most one command
    // per rank per step — a forced (deadline-passed) slot beats an
    // idle-eligible one. Deadlines within a rank are stagger-distinct,
    // so two slots are never forced at the same decision point.
    let mut progress = false;
    for rank in 0..env.ranks {
        let lo = rank * env.slots_per_rank;
        let mut pick = None;
        for slot in lo..lo + env.slots_per_rank {
            if let RefreshState::Draining { due } = w.mgr.state(slot) {
                if w.mgr.drain_deadline_passed(slot, now) {
                    pick = Some((slot, due));
                    break;
                }
                if pick.is_none() && !busy(slot) {
                    pick = Some((slot, due));
                }
            }
        }
        if let Some((slot, drain_from)) = pick {
            let v = issue_round(
                env,
                w,
                slot,
                drain_from,
                now,
                rec.as_deref_mut(),
                &mut progress,
            );
            if v.is_some() {
                return (progress, v);
            }
        }
    }

    w.now = now + env.quantum;
    (progress, None)
}

/// Records the debt growth the last poll reported (the controller's
/// `RefreshPostponed` trace) and checks it against the Auditor's debt
/// bound (`mech-postpone`).
fn record_postponed(
    env: &Env,
    w: &World,
    now: Cycle,
    rec: Option<&mut Recorder>,
) -> Option<MechViolation> {
    let postponed = w.mech.postponed();
    if let Some(r) = rec {
        r.events.extend(
            postponed
                .iter()
                .map(|&(s, debt)| TraceEvent::RefreshPostponed {
                    cycle: now,
                    rank: env.rank_of(s),
                    debt,
                }),
        );
    }
    let bound = env.debt_bound?;
    postponed.iter().find(|&&(_, debt)| debt > bound).map(|&(s, debt)| {
        viol(
            "mech-postpone",
            now,
            format!(
                "slot {s} owes {debt} postponed refreshes (debt bound {bound}; JEDEC allows 8 outstanding)"
            ),
        )
    })
}

/// Puts `slot`'s current round on the bus (or skips it) and checks the
/// safety invariants. `drain_from` is the cycle the slot's drain
/// deadline counts from. Events are recorded *before* the checks so a
/// violating command reaches the replay Auditor.
fn issue_round(
    env: &Env,
    w: &mut World,
    slot: usize,
    drain_from: Cycle,
    now: Cycle,
    rec: Option<&mut Recorder>,
    progress: &mut bool,
) -> Option<MechViolation> {
    let rank = env.rank_of(slot);
    let late = now.saturating_sub(drain_from);
    let shape = w.mech.round_shape(&w.mgr, slot);

    if let RoundShape::Skip { .. } = shape {
        // Shapes are stable until advanced and skip rounds resolve at
        // poll time, so a draining slot presenting a Skip means the
        // mechanism mutated its round out of band.
        return Some(viol(
            "mech-trfc",
            now,
            format!("slot {slot} presented a skip for an already-draining round"),
        ));
    }

    // What goes on the bus: lock duration, scope, and coverage.
    let bank = env.bank_of(slot);
    let (duration, subarray, retention) = match shape {
        RoundShape::Standard => {
            let d = if env.per_bank {
                env.t_rfc_pb
            } else {
                env.t_rfc
            };
            (d, None, None)
        }
        RoundShape::Subarray { subarray } => (env.t_rfc_sa, Some(subarray), None),
        RoundShape::Scaled {
            duration,
            round,
            covers_128,
            covers_256,
        } => (duration.max(1), None, Some((round, covers_128, covers_256))),
        RoundShape::Skip { .. } => unreachable!("handled above"), // rop-lint: allow(no-panic)
    };
    let until = now + duration;

    if let Some(r) = rec {
        if let (Some((round, c128, c256)), None) = (retention, bank) {
            if env.raidr_stride.is_some() {
                r.events.push(TraceEvent::RetentionRound {
                    cycle: now,
                    rank,
                    round,
                    covers_128: c128,
                    covers_256: c256,
                });
            }
        }
        r.events.push(TraceEvent::RefreshStart {
            cycle: now,
            rank,
            bank,
            subarray,
        });
        r.pending_ends.push((until, rank, bank));
    }

    // mech-postpone: the JEDEC budget, through the configured bound.
    if late > env.max_postpone {
        return Some(viol(
            "mech-postpone",
            now,
            format!(
                "slot {slot} refresh issued {late} cycles after its drain began (postpone budget {}, JEDEC 8×tREFI {})",
                env.max_postpone,
                8 * env.t_refi
            ),
        ));
    }

    // mech-trfc: full lock duration for the command's scope.
    let required = match (shape, env.raidr_stride) {
        (RoundShape::Scaled { .. }, Some(_)) => 1,
        _ if env.per_bank && subarray.is_some() => env.t_rfc_sa,
        _ if env.per_bank => env.t_rfc_pb,
        _ => env.t_rfc,
    };
    if duration < required || duration > env.t_rfc {
        return Some(viol(
            "mech-trfc",
            now,
            format!(
                "slot {slot} refresh locks its scope for {duration} cycles, required {required}..={}",
                env.t_rfc
            ),
        ));
    }
    // One refresh engine per rank.
    if now < w.engine_free[rank] {
        return Some(viol(
            "mech-trfc",
            now,
            format!(
                "rank {rank} refresh issued {} cycles before its engine is free",
                w.engine_free[rank] - now
            ),
        ));
    }

    // mech-retention: the rotation must stay inside the bank.
    if let Some(sa) = subarray {
        if sa >= env.subarrays {
            return Some(viol(
                "mech-retention",
                now,
                format!(
                    "slot {slot} round targets subarray {sa}, but banks have only {} — those rows are never refreshed",
                    env.subarrays
                ),
            ));
        }
    }

    let due = w.mgr.next_due(slot);
    w.mech.on_refresh_issued(&mut w.mgr, slot, now, until);
    w.engine_free[rank] = until;
    *progress = true;

    if let Some(v) = check_due_advance(env, &w.mgr, slot, due, now) {
        return Some(v);
    }

    // Retention recurrence, in round units (wall-clock bounds follow
    // from mech-postpone + the exact-tREFI advance check).
    if let Some(sa) = subarray {
        let base = slot * env.subarrays;
        for i in 0..env.subarrays {
            let c = &mut w.sarp_since[base + i];
            *c = (*c + 1).min(env.subarrays as u32 + 1);
        }
        w.sarp_since[base + sa] = 0;
        for (i, &c) in w.sarp_since[base..base + env.subarrays].iter().enumerate() {
            if c > env.subarrays as u32 {
                return Some(viol(
                    "mech-retention",
                    now,
                    format!(
                        "slot {slot} subarray {i} has gone more than {} rounds without refresh — its rotation slot was lost",
                        env.subarrays
                    ),
                ));
            }
        }
    }
    if let Some((_, c128, c256)) = retention {
        return advance_bins(env, w, rank, now, true, c128, c256);
    }
    None
}

/// `mech-retention`: every issue/skip must move the slot's schedule
/// (the due time of its oldest refresh not yet issued) by exactly one
/// tREFI — a mechanism that jumps further silently drops refresh rounds.
fn check_due_advance(
    env: &Env,
    mgr: &RefreshManager,
    slot: usize,
    old_due: Cycle,
    now: Cycle,
) -> Option<MechViolation> {
    let next = mgr.next_due(slot);
    (next != old_due + env.t_refi).then(|| {
        viol(
            "mech-retention",
            now,
            format!(
                "slot {slot} schedule advanced from {old_due} to {next}, expected {} (exactly one tREFI)",
                old_due + env.t_refi
            ),
        )
    })
}

/// Advances RAIDR's per-rank bin-recurrence counters by one round and
/// checks the 64/128/256 ms budgets.
fn advance_bins(
    env: &Env,
    w: &mut World,
    rank: usize,
    now: Cycle,
    covers_64: bool,
    covers_128: bool,
    covers_256: bool,
) -> Option<MechViolation> {
    env.raidr_stride?;
    let covered = [covers_64, covers_128, covers_256];
    for (bin, &hit) in covered.iter().enumerate() {
        let budget = env.bin_budget(bin) as u32;
        let c = &mut w.bin_since[rank * 3 + bin];
        *c = (*c + 1).min(budget + 1);
        if hit {
            *c = 0;
        } else if *c > budget {
            return Some(viol(
                "mech-retention",
                now,
                format!(
                    "rank {rank} {} ms-bin rows have gone more than {budget} rounds without cover",
                    64u32 << bin
                ),
            ));
        }
    }
    None
}

/// Canonical state words: every clock folded to a delta against `now`,
/// slots within a rank sorted (bank-permutation symmetry — mechanisms
/// treat sibling slots uniformly and the oracle enumerates all busy
/// masks, so permuted states are bisimilar).
fn canon_words(env: &Env, w: &World) -> Vec<u64> {
    // Offset keeps signed deltas (a pulled-in drain's due lies in the
    // future) positive without wrapping ambiguity.
    const OFFSET: u64 = 1 << 40;
    let mut words = Vec::with_capacity(env.slots * 4 + env.ranks * 2);
    for rank in 0..env.ranks {
        let lo = rank * env.slots_per_rank;
        let mut tuples: Vec<[u64; 4]> = (lo..lo + env.slots_per_rank)
            .map(|s| {
                // Signed due/until delta against `now`, offset-encoded
                // (a pulled-in drain's due lies in the future, a
                // postponed one's in the past; both are bounded, so the
                // encoding never collides across the offset).
                let enc = |c: Cycle| OFFSET.wrapping_add(c).wrapping_sub(w.now);
                let (tag, delta) = match w.mgr.state(s) {
                    RefreshState::Idle => (0, enc(w.mgr.next_due(s))),
                    RefreshState::Draining { due } => (1, enc(due)),
                    RefreshState::Refreshing { until } => (2, until.saturating_sub(w.now)),
                };
                let sa_pack = if env.subarrays > 0 && env.per_bank {
                    w.sarp_since[s * env.subarrays..(s + 1) * env.subarrays]
                        .iter()
                        .enumerate()
                        .fold(0u64, |acc, (i, &c)| acc | (u64::from(c) << (8 * i)))
                } else {
                    0
                };
                [tag, delta, w.mech.mech_state(&w.mgr, w.now, s), sa_pack]
            })
            .collect();
        tuples.sort_unstable();
        for t in tuples {
            words.extend_from_slice(&t);
        }
        words.push(w.engine_free[rank].saturating_sub(w.now));
        if env.raidr_stride.is_some() {
            words.push(
                w.bin_since[rank * 3..rank * 3 + 3]
                    .iter()
                    .enumerate()
                    .fold(0u64, |acc, (i, &c)| acc | (u64::from(c) << (16 * i))),
            );
        }
    }
    words
}

/// Runs the bounded exhaustive search for one configuration.
pub fn check_mechanism(cfg: &MechCheckConfig) -> MechReport {
    if let Some(m) = cfg.mutation {
        assert_eq!(
            m.target().label(),
            cfg.kind.label(),
            "mutation {} targets {}, not {}",
            m.label(),
            m.target().label(),
            cfg.kind.label()
        );
    }
    search(cfg, &Env::new(cfg))
}

/// The search behind [`check_mechanism`], over an explicit environment.
fn search(cfg: &MechCheckConfig, env: &Env) -> MechReport {
    let root = World::new(cfg, env);

    let mut visited = VisitedSet::new();
    let mut graph = SearchGraph::new();
    let (fresh, id0) = visited.intern(fingerprint(&canon_words(env, &root)));
    debug_assert!(fresh && id0 == 0);

    let mut queue: VecDeque<(usize, usize, World)> = VecDeque::new();
    queue.push_back((0, 0, root));
    let mut cut_frontier = Vec::new();
    let mut transitions = 0usize;
    let mut depth_seen = 0usize;
    let mut violation = None;

    'search: while let Some((node, depth, w)) = queue.pop_front() {
        if depth >= cfg.max_steps || visited.len() >= cfg.max_states {
            cut_frontier.push(node);
            continue;
        }
        depth_seen = depth_seen.max(depth + 1);
        for choice in 0..env.choices {
            let mut succ = w.clone();
            let (progress, v) = step(env, &mut succ, choice, None);
            transitions += 1;
            if let Some(mut v) = v {
                let mut path = graph.path_to(node);
                path.push(choice);
                v.path = path;
                violation = Some(v);
                break 'search;
            }
            let fp = fingerprint(&canon_words(env, &succ));
            let (new, id) = visited.intern(fp);
            if new {
                let got = graph.add_node(node, choice);
                debug_assert_eq!(got, id);
                queue.push_back((id, depth + 1, succ));
            }
            graph.add_edge(node, id, u8::from(progress));
        }
    }

    let livelocks = if violation.is_none() {
        let live = graph.live_nodes(1, &cut_frontier);
        let dead: Vec<usize> = (0..graph.node_count()).filter(|&n| !live[n]).collect();
        if let Some(&first) = dead.first() {
            violation = Some(MechViolation {
                invariant: "mech-liveness",
                cycle: 0,
                message: format!(
                    "{} reachable state(s) from which no refresh is ever issuable",
                    dead.len()
                ),
                path: graph.path_to(first),
            });
        }
        dead.len()
    } else {
        0
    };

    let replay = violation
        .as_ref()
        .filter(|v| v.invariant != "mech-liveness")
        .map(|v| replay_counterexample(cfg, env, &v.path));

    MechReport {
        kind: cfg.kind,
        mutation: cfg.mutation,
        states: visited.len(),
        transitions,
        depth: depth_seen,
        complete: cut_frontier.is_empty(),
        livelocks,
        violation,
        replay,
    }
}

/// Re-executes a counterexample path into a concrete [`TraceEvent`]
/// sequence and feeds it to the dynamic [`Auditor`]. The replay runs a
/// quiet (all-idle) tail past the violating step so gap-style
/// violations (a retention bin covered too late) become visible to the
/// Auditor, which flags them at the *next* cover.
fn replay_counterexample(cfg: &MechCheckConfig, env: &Env, path: &[usize]) -> MechReplay {
    let mut w = World::new(cfg, env);
    let mut rec = Recorder::default();
    // A violating step aborts before advancing the clock; push time
    // forward anyway so the tail keeps making progress instead of
    // re-recording the same cycle over and over.
    let run = |w: &mut World, choice: usize, rec: &mut Recorder| {
        let before = w.now;
        let _ = step(env, w, choice, Some(rec));
        if w.now == before {
            w.now = before + env.quantum;
        }
    };
    for &choice in path {
        run(&mut w, choice, &mut rec);
    }
    let tail = 16 * env.t_refi / env.quantum;
    for _ in 0..tail {
        run(&mut w, 0, &mut rec);
    }
    let events = rec.finish();

    let mut auditor = Auditor::new(audit_config(cfg, env));
    for e in &events {
        auditor.record(*e);
    }
    let mut invariants: Vec<&'static str> =
        auditor.violations().iter().map(|v| v.invariant).collect();
    invariants.sort_unstable();
    invariants.dedup();
    MechReplay {
        confirmed: !invariants.is_empty(),
        auditor_invariants: invariants,
        report: auditor.report(),
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A compact environment so debug-mode tests close quickly.
    fn compact(kind: MechanismKind) -> MechCheckConfig {
        let mut cfg = MechCheckConfig::gate(kind);
        cfg.ranks = 1;
        cfg.banks_per_rank = 2;
        if kind.scope() == RefreshScope::PerBank {
            cfg.subarrays = 2;
        }
        cfg
    }

    fn compact_mutated(m: Mutation) -> MechCheckConfig {
        let mut cfg = compact(m.target());
        cfg.mutation = Some(m);
        cfg
    }

    fn labels(kinds: &[MechanismKind]) -> Vec<&'static str> {
        kinds.iter().map(|k| k.label()).collect()
    }

    #[test]
    fn the_sweep_gate_covers_every_mechanism_in_the_grid() {
        use rop_sim_system::experiments::driver::plan_jobs;
        use rop_sim_system::runner::RunSpec;
        let spec = RunSpec {
            instructions: 1000,
            max_cycles: 1000,
            seed: 1,
        };
        // The mechanism head-to-head builds the compared roster; the
        // gate must cover all of it, in zoo order.
        let jobs = plan_jobs("mechanisms", spec).expect("plan");
        assert_eq!(
            labels(&mechanisms_in_jobs(&jobs)),
            ["allbank", "darp", "sarp", "raidr"]
        );
        // A single-core sweep only ever builds all-bank refresh, and
        // its (much smaller) gate passes.
        let jobs = plan_jobs("single", spec).expect("plan");
        assert_eq!(labels(&mechanisms_in_jobs(&jobs)), ["allbank"]);
        let reports = gate_jobs(&jobs).expect("all-bank gate is clean");
        assert_eq!(reports.len(), 1);
        assert!(reports[0].complete);
    }

    #[test]
    fn refpb_jobs_gate_at_per_bank_scope() {
        use rop_sim_system::runner::{RunSpec, SweepJob};
        use rop_sim_system::SystemKind;
        use rop_trace::Benchmark;
        let spec = RunSpec {
            instructions: 1000,
            max_cycles: 1000,
            seed: 1,
        };
        // Plain REFpb and ROP on REFpb are both all-bank refresh at
        // per-bank scope: the gate must check the per-bank member, not
        // the per-rank one.
        for kind in [
            SystemKind::PerBankRefresh,
            SystemKind::RopPerBank { buffer: 64 },
        ] {
            let jobs = [SweepJob::single("t", Benchmark::Libquantum, kind, spec)];
            let gated = mechanisms_in_jobs(&jobs);
            assert_eq!(
                gated,
                [MechanismKind::AllBank { per_bank: true }],
                "{kind:?}"
            );
            let cfg = MechCheckConfig::gate(gated[0]);
            assert!(Env::new(&cfg).per_bank);
        }
        let jobs = [SweepJob::single(
            "t",
            Benchmark::Libquantum,
            SystemKind::ElasticRefresh,
            spec,
        )];
        assert_eq!(mechanisms_in_jobs(&jobs), [MechanismKind::Elastic]);
    }

    #[test]
    fn clean_mechanisms_verify_clean() {
        // Elastic is the one zoo member with a standing counterexample;
        // `elastic_debt_outgrows_its_bound` pins it.
        for kind in zoo().into_iter().filter(|&k| k != MechanismKind::Elastic) {
            let report = check_mechanism(&compact(kind));
            assert!(report.ok(), "{} failed:\n{}", kind.label(), report.render());
            assert!(report.complete, "{} did not reach fixpoint", kind.label());
            assert!(report.states > 10, "{} explored too little", kind.label());
        }
    }

    #[test]
    fn elastic_debt_outgrows_its_bound() {
        // Elastic pays a cap-forced refresh only after a drain that may
        // run to the full postpone deadline (two tREFI here), while one
        // refresh accrues per tREFI: a rank that stays busy through
        // every forced drain outruns the Auditor's debt bound. The
        // counterexample goes through forced drains — unlike the
        // uncapped-debt mutant's, which never starts one.
        let report = check_mechanism(&compact(MechanismKind::Elastic));
        let v = report
            .violation
            .as_ref()
            .expect("elastic debt counterexample");
        assert_eq!(v.invariant, "mech-postpone", "{v}");
        let replay = report.replay.as_ref().expect("replay");
        assert!(replay.confirmed, "{}", replay.report);
        assert!(replay
            .auditor_invariants
            .contains(&"refresh.postpone-bound"));
        assert!(replay
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::DrainStart { .. })));
    }

    /// The longest run of decision quanta without a refresh on any
    /// oracle path to depth 200, with the debt bound lifted.
    fn longest_refresh_gap(cfg: &MechCheckConfig) -> u64 {
        let mut env = Env::new(cfg);
        env.debt_bound = None;
        let mut seen = std::collections::HashSet::new();
        let mut queue = VecDeque::from([(0usize, 0u64, World::new(cfg, &env))]);
        let mut longest = 0;
        while let Some((depth, gap, w)) = queue.pop_front() {
            if depth == 200 {
                continue;
            }
            for choice in 0..env.choices {
                let mut succ = w.clone();
                let (progress, v) = step(&env, &mut succ, choice, None);
                if let Some(v) = v {
                    panic!("{v}");
                }
                let gap = if progress { 0 } else { gap + 1 };
                longest = longest.max(gap);
                if seen.insert((fingerprint(&canon_words(&env, &succ)), gap)) {
                    queue.push_back((depth + 1, gap, succ));
                }
            }
        }
        longest
    }

    #[test]
    fn elastic_keeps_refreshing_while_its_debt_grows() {
        // The debt counterexample stops the gate search before liveness
        // is judged, and with the debt bound lifted the space never
        // closes: under unbroken demand the debt grows without bound
        // (EXPERIMENTS.md, D3). Check bounded response instead: a
        // refresh issues at least once per window — the cap's worth of
        // postponed rounds, then one forced drain to its deadline. The
        // uncapped mutant never pays while busy and overruns it.
        let cfg = compact(MechanismKind::Elastic);
        let quantum = Env::new(&cfg).quantum;
        let cap = u64::from(rop_memctrl::ELASTIC_MAX_DEBT);
        let window = (cap * cfg.timing.t_refi() + cfg.max_postpone) / quantum;
        assert_eq!(longest_refresh_gap(&cfg), window);
        assert!(longest_refresh_gap(&compact_mutated(Mutation::UncappedDebt)) > window);
    }

    #[test]
    fn every_mutation_yields_an_auditor_confirmed_counterexample() {
        let expect = [
            (Mutation::ShortRef, "mech-trfc", "timing.tRFC"),
            (Mutation::TruncatedPullIn, "mech-trfc", "timing.tRFC"),
            (
                Mutation::RotateOverflow,
                "mech-retention",
                "refresh.subarray-scope",
            ),
            (
                Mutation::WidenedSkip,
                "mech-retention",
                "raidr.bin-deadline",
            ),
            (
                Mutation::UncappedDebt,
                "mech-postpone",
                "refresh.postpone-bound",
            ),
        ];
        for (m, static_inv, dynamic_inv) in expect {
            let report = check_mechanism(&compact_mutated(m));
            let v = report
                .violation
                .as_ref()
                .unwrap_or_else(|| panic!("{} produced no counterexample", m.label()));
            assert_eq!(v.invariant, static_inv, "{}: {v}", m.label());
            assert!(!v.path.is_empty(), "{}: empty path", m.label());
            let replay = report
                .replay
                .as_ref()
                .unwrap_or_else(|| panic!("{} has no replay", m.label()));
            assert!(!replay.events.is_empty(), "{}: empty trace", m.label());
            assert!(
                replay.confirmed,
                "{}: Auditor did not confirm:\n{}",
                m.label(),
                replay.report
            );
            assert!(
                replay.auditor_invariants.contains(&dynamic_inv),
                "{}: Auditor flagged {:?}, expected {dynamic_inv}",
                m.label(),
                replay.auditor_invariants
            );
        }
    }

    #[test]
    fn the_uncapped_mutant_never_pays() {
        // Ignoring the cap, an always-busy rank is never drained: the
        // violating path reaches the bound with no drain at all.
        let report = check_mechanism(&compact_mutated(Mutation::UncappedDebt));
        let replay = report.replay.as_ref().expect("replay");
        let violation_at = report.violation.as_ref().expect("counterexample").cycle;
        assert!(!replay
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::DrainStart { cycle, .. } if *cycle <= violation_at)));
    }

    #[test]
    fn counterexample_paths_replay_deterministically() {
        let report = check_mechanism(&compact_mutated(Mutation::ShortRef));
        let a = report.replay.as_ref().unwrap().events.clone();
        let b = check_mechanism(&compact_mutated(Mutation::ShortRef))
            .replay
            .unwrap()
            .events;
        assert_eq!(a, b);
    }

    #[test]
    fn mutation_targets_are_zoo_members() {
        let zoo_labels = labels(&zoo());
        let mut targets: Vec<&str> = Mutation::ALL.iter().map(|m| m.target().label()).collect();
        targets.sort_unstable();
        targets.dedup();
        assert_eq!(targets.len(), Mutation::ALL.len(), "one mutant per target");
        assert!(targets.iter().all(|t| zoo_labels.contains(t)));
        for m in Mutation::ALL {
            assert_eq!(Mutation::parse(m.label()), Some(m));
            assert_eq!(parse_mechanism(m.target().label()), Some(m.target()));
        }
        for k in zoo() {
            assert_eq!(parse_mechanism(k.label()), Some(k));
        }
        assert_eq!(parse_mechanism("nonsense"), None);
    }

    #[test]
    fn symmetry_reduction_collapses_sibling_banks() {
        // Two sibling banks with mirrored (state, due) assignments must
        // canonicalize identically.
        let cfg = compact(MechanismKind::Darp);
        let env = Env::new(&cfg);
        let mut a = World::new(&cfg, &env);
        let mut b = World::new(&cfg, &env);
        // Drive both worlds one step with mirrored busy masks; the
        // resulting states differ only by the bank permutation.
        let _ = step(&env, &mut a, 0b01, None);
        let _ = step(&env, &mut b, 0b10, None);
        assert_eq!(
            fingerprint(&canon_words(&env, &a)),
            fingerprint(&canon_words(&env, &b))
        );
    }
}
