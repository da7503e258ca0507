//! The per-rank ROP state machine (§IV-C): **Training → Observing →
//! Prefetching**, with fallback to Training when the SRAM hit rate decays.
//!
//! The engine is event-driven by the memory controller:
//!
//! * [`RopEngine::note_access`] — a request to this rank arrived;
//! * [`RopEngine::set_next_refresh_due`] — the refresh manager's schedule
//!   for the rank changed (engine uses it to recognise the observational
//!   window);
//! * [`RopEngine::decide_prefetch_gate`] — the refresh is imminent;
//!   should the controller stage lines into the SRAM buffer? A yes is
//!   followed, once the pre-refresh drain is done, by
//!   [`RopEngine::generate_candidates`] naming the lines;
//! * [`RopEngine::refresh_started`] / [`RopEngine::refresh_completed`] —
//!   frozen-cycle boundaries; the completion call feeds back the buffer's
//!   per-refresh hit statistics and drives phase transitions.
//!
//! The engine never touches the DRAM or the buffer directly: it returns
//! gate verdicts, candidate lists and [`PhaseTransition`]s, and the
//! controller performs the actual fetches and buffer power management.
//! That keeps this crate's logic testable in isolation.

use std::collections::VecDeque;

use rop_events::{TraceBuffer, TraceEvent};
use rop_stats::RatioCounter;

use crate::config::RopConfig;
use crate::prediction::PredictionTable;
use crate::prefetcher::{PrefetchCandidate, Prefetcher};
use crate::profiler::PatternProfiler;
use crate::throttle::ProbabilisticThrottle;
use crate::Cycle;

/// Sliding window counting request arrivals in the last `window` cycles.
#[derive(Debug, Clone)]
pub struct AccessWindow {
    window: Cycle,
    times: VecDeque<Cycle>,
}

impl AccessWindow {
    /// Creates a window of the given length in cycles.
    pub fn new(window: Cycle) -> Self {
        // Pre-size to the worst plausible in-window population: the
        // command bus admits at most one request per cycle sustained,
        // so 2x the window (slack for same-cycle bursts) is a hard
        // ceiling in practice. Growing lazily instead would hit the
        // allocator whenever a new high-water mark is reached — which
        // can happen arbitrarily late into an otherwise steady run.
        let cap = (window as usize).saturating_mul(2).clamp(16, 1 << 16);
        AccessWindow {
            window,
            times: VecDeque::with_capacity(cap),
        }
    }

    /// Records an arrival at `now`.
    // rop-lint: hot
    pub fn record(&mut self, now: Cycle) {
        // Prune first: expired entries leave before the new one lands,
        // keeping occupancy at the true in-window population (the
        // result of `count` is unaffected by the order).
        self.prune(now);
        self.times.push_back(now);
    }

    /// Number of arrivals in `(now - window, now]`.
    pub fn count(&mut self, now: Cycle) -> u64 {
        self.prune(now);
        self.times.len() as u64
    }

    fn prune(&mut self, now: Cycle) {
        let cutoff = now.saturating_sub(self.window);
        while let Some(&front) = self.times.front() {
            if front <= cutoff {
                self.times.pop_front();
            } else {
                break;
            }
        }
    }
}

/// The three memory states of §IV-C.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RopPhase {
    /// Pattern Profiler collecting (B, A) statistics; SRAM buffer off.
    Training,
    /// λ/β known; prediction table tracked in observational windows.
    Observing,
    /// A prefetch was issued for the imminent refresh (transient until
    /// the refresh completes).
    Prefetching,
}

/// Phase change requested by a refresh completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseTransition {
    /// No change.
    None,
    /// Training finished: power the buffer on; λ/β now valid.
    StartObserving,
    /// Hit rate fell below threshold: power the buffer off and retrain.
    StartTraining,
}

/// Aggregate engine statistics, for experiments and debugging.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Completed training phases.
    pub trainings_completed: u64,
    /// Refreshes with a positive prefetch decision.
    pub prefetch_decisions: u64,
    /// Refreshes where prefetching was skipped.
    pub skip_decisions: u64,
    /// Candidates emitted in total.
    pub candidates_emitted: u64,
    /// Refreshes observed with `B > 0`.
    pub b_positive: u64,
    /// Refreshes observed with `B = 0`.
    pub b_zero: u64,
}

/// Per-rank ROP engine.
#[derive(Debug, Clone)]
pub struct RopEngine {
    config: RopConfig,
    phase: RopPhase,
    profiler: PatternProfiler,
    lambda: f64,
    beta: f64,
    throttle: ProbabilisticThrottle,
    table: PredictionTable,
    prefetcher: Prefetcher,
    /// The last burst's candidates (reused, so a burst allocates
    /// nothing).
    candidates: Vec<PrefetchCandidate>,
    window: AccessWindow,
    next_refresh_due: Cycle,
    refresh_active: bool,
    /// Bank scoped by an in-flight per-bank refresh (None = all-bank).
    refresh_bank: Option<usize>,
    refresh_b: u64,
    refresh_a: u64,
    /// Cycle the in-flight refresh started (stamps blocked-queue events).
    refresh_started_at: Cycle,
    observing_hits: RatioCounter,
    stats: EngineStats,
    /// Trace sink for demand observations and profiler windows.
    trace: TraceBuffer,
    /// Rank index stamped onto emitted events (set by the controller).
    trace_rank: usize,
}

impl RopEngine {
    /// Builds an engine in the Training phase.
    ///
    /// # Panics
    /// Panics on an invalid configuration.
    pub fn new(config: RopConfig) -> Self {
        config.validate().expect("invalid ROP configuration");
        RopEngine {
            phase: RopPhase::Training,
            profiler: PatternProfiler::new(),
            lambda: 0.0,
            beta: 0.0,
            throttle: ProbabilisticThrottle::new(config.seed),
            table: PredictionTable::new(config.banks_per_rank),
            prefetcher: Prefetcher::new(config.lines_per_bank),
            candidates: Vec::with_capacity(config.buffer_capacity),
            window: AccessWindow::new(config.observational_window),
            next_refresh_due: Cycle::MAX,
            refresh_active: false,
            refresh_bank: None,
            refresh_b: 0,
            refresh_a: 0,
            refresh_started_at: 0,
            observing_hits: RatioCounter::new(),
            stats: EngineStats::default(),
            trace: TraceBuffer::new(),
            trace_rank: 0,
            config,
        }
    }

    /// The engine's trace sink (enable/drain it from the owner).
    pub fn trace_mut(&mut self) -> &mut TraceBuffer {
        &mut self.trace
    }

    /// Sets the rank index stamped onto emitted trace events.
    pub fn set_trace_rank(&mut self, rank: usize) {
        self.trace_rank = rank;
    }

    /// Current phase.
    pub fn phase(&self) -> RopPhase {
        self.phase
    }

    /// Most recent λ (0 before the first training completes).
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Most recent β.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Engine statistics.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// The state that decides every future phase transition, as words
    /// for model checkers to key visited states on: phase, the
    /// profiler's category counts (`[BothActive, BeforeOnly, AfterOnly,
    /// BothQuiet]`), λ and β bits, and the Observing hit counter's hits
    /// and lookups.
    pub fn control_state(&self) -> [u64; 9] {
        let [e1, before, after, e2] = self.profiler.outcome().category_counts;
        [
            self.phase as u64,
            e1,
            before,
            after,
            e2,
            self.lambda.to_bits(),
            self.beta.to_bits(),
            self.observing_hits.hits(),
            self.observing_hits.total(),
        ]
    }

    /// The engine's configuration.
    pub fn config(&self) -> &RopConfig {
        &self.config
    }

    /// Read access to the prediction table (for diagnostics).
    pub fn table(&self) -> &PredictionTable {
        &self.table
    }

    /// Informs the engine of the rank's next scheduled refresh time.
    pub fn set_next_refresh_due(&mut self, due: Cycle) {
        self.next_refresh_due = due;
    }

    /// True when `now` lies in the observational window before the next
    /// refresh. The window opens `observational_window` cycles before the
    /// scheduled due time and stays open through the pre-refresh drain
    /// (postponed refreshes keep observing until the rank actually
    /// freezes), so `LastAddr` tracks the stream right up to the freeze.
    fn in_observational_window(&self, now: Cycle) -> bool {
        let due = self.next_refresh_due;
        due != Cycle::MAX && !self.refresh_active && now + self.config.observational_window >= due
    }

    /// Notifies the engine of a request *arrival* to this rank.
    ///
    /// Arrivals drive the observational window (`B`) and the
    /// during-refresh count (`A`); `is_read` distinguishes reads, the
    /// only requests a refresh can block.
    pub fn note_access(&mut self, bank: usize, line_offset: u64, is_read: bool, now: Cycle) {
        let _ = line_offset;
        self.window.record(now);
        let rank = self.trace_rank;
        self.trace.emit(|| TraceEvent::DemandObserved {
            cycle: now,
            rank,
            bank,
            is_read,
        });
        if self.refresh_active && is_read && self.refresh_bank.is_none_or(|rb| rb == bank) {
            self.refresh_a += 1;
        }
    }

    /// Notifies the engine that a demand *read was serviced* (its column
    /// command issued). The prediction table advances here rather than at
    /// arrival: `LastAddr` must trail the served stream so that the
    /// extrapolated candidates cover the reads still sitting blocked in
    /// the queue when the rank freezes.
    ///
    /// Only reads update the table (per-refresh candidates target the
    /// read stream; write-back traffic trails the demand stream by an LLC
    /// capacity and would corrupt the per-bank delta patterns), and only
    /// inside observational windows (§IV-A). The table keeps learning in
    /// *every* phase — §IV-B powers off only the SRAM buffer during
    /// Training, so pattern state is warm the moment Observing begins.
    pub fn note_served(&mut self, bank: usize, line_offset: u64, now: Cycle) {
        if self.in_observational_window(now) {
            self.table.update(bank, line_offset);
        }
    }

    /// Gate for the refresh falling due at `now`: should the controller
    /// prefetch for it?
    ///
    /// In Training the answer is always `false` (the buffer is powered
    /// off). In Observing the λ/β throttle decides from the window count
    /// `B`. A positive answer moves the engine to the Prefetching phase;
    /// candidates are generated later, right before the rank freezes, via
    /// [`Self::generate_candidates`] — the pre-refresh drain moves the
    /// stream forward, so earlier extrapolation would go stale.
    pub fn decide_prefetch_gate(&mut self, now: Cycle) -> bool {
        self.gate(now, None)
    }

    /// [`Self::decide_prefetch_gate`] with the throttle's coin supplied
    /// by the caller instead of drawn from the seeded RNG. `coin(p)` is
    /// asked only when the gate's probability `p` lies strictly between
    /// 0 and 1, so a model checker can take both outcomes.
    pub fn decide_prefetch_gate_with(
        &mut self,
        now: Cycle,
        mut coin: impl FnMut(f64) -> bool,
    ) -> bool {
        self.gate(now, Some(&mut coin))
    }

    fn gate(&mut self, now: Cycle, coin: Option<&mut dyn FnMut(f64) -> bool>) -> bool {
        let b = self.window.count(now);
        if b > 0 {
            self.stats.b_positive += 1;
        } else {
            self.stats.b_zero += 1;
        }
        if self.phase != RopPhase::Observing {
            return false;
        }
        let (lambda, beta) = match self.config.throttle_mode {
            crate::config::ThrottleMode::Adaptive => (self.lambda, self.beta),
            crate::config::ThrottleMode::Always => (1.0, 0.0),
            crate::config::ThrottleMode::Never => (0.0, 1.0),
        };
        let go = match coin {
            Some(coin) => ProbabilisticThrottle::decide_with(b, lambda, beta, coin),
            None => self.throttle.decide(b, lambda, beta),
        };
        if go {
            self.stats.prefetch_decisions += 1;
            self.phase = RopPhase::Prefetching;
            true
        } else {
            self.stats.skip_decisions += 1;
            false
        }
    }

    /// Emits the prefetch candidates for the imminent refresh from the
    /// current prediction-table state (call once, at the point the drain
    /// has finished and the refresh is otherwise ready to issue).
    ///
    /// `expected_delay` is the controller's bound on how long fetching
    /// the candidates may postpone the refresh; the extrapolation *leads*
    /// each bank's `LastAddr` by the stream advance expected over that
    /// delay (estimated from the observational-window arrival rate), so
    /// the buffer matches the stream position at the actual freeze.
    pub fn generate_candidates(
        &mut self,
        now: Cycle,
        expected_delay: Cycle,
    ) -> &[PrefetchCandidate] {
        let b = self.window.count(now);
        let window = self.config.observational_window.max(1);
        let lead = ((expected_delay as u128 * b as u128 / window as u128) as usize)
            / self.config.banks_per_rank.max(1);
        let capacity = self.config.buffer_capacity;
        if self.config.single_delta_only {
            self.prefetcher.generate_single_delta(
                &self.table,
                capacity,
                lead,
                &mut self.candidates,
            );
        } else {
            self.prefetcher
                .generate_with_lead(&self.table, capacity, lead, &mut self.candidates);
        }
        self.stats.candidates_emitted += self.candidates.len() as u64;
        &self.candidates
    }

    /// Marks the start of the rank's refresh (frozen cycles begin).
    ///
    /// The prediction table is *not* cleared between windows: one
    /// observational window (≈ tRFC) sees only a couple of accesses per
    /// bank, so per-window frequencies are too noisy to apportion the
    /// buffer with (Equation 3 would starve random banks). Accumulating
    /// across windows keeps the shares stable; the pattern-replacement
    /// rule and frequency halving age out stale behaviour, and the
    /// hit-rate threshold forces retraining if the table goes bad.
    pub fn refresh_started(&mut self, now: Cycle) {
        self.refresh_started_scoped(now, None);
    }

    /// As [`Self::refresh_started`], but for a *per-bank* refresh
    /// (REFpb): only reads to `bank` count toward `A` — the siblings keep
    /// being served by DRAM and are never blocked.
    pub fn refresh_started_scoped(&mut self, now: Cycle, bank: Option<usize>) {
        self.refresh_active = true;
        self.refresh_bank = bank;
        self.refresh_b = self.window.count(now);
        self.refresh_a = 0;
        self.refresh_started_at = now;
        let (rank, b) = (self.trace_rank, self.refresh_b);
        self.trace.emit(|| TraceEvent::ProfilerWindowOpen {
            cycle: now,
            rank,
            bank,
            b,
        });
    }

    /// Per-bank candidate generation for REFpb: the whole `count` budget
    /// extrapolates `bank`'s pattern (with the same lead logic as
    /// [`Self::generate_candidates`]).
    pub fn generate_candidates_for_bank(
        &mut self,
        bank: usize,
        count: usize,
        now: Cycle,
        expected_delay: Cycle,
    ) -> &[PrefetchCandidate] {
        let b = self.window.count(now);
        let window = self.config.observational_window.max(1);
        let lead = (expected_delay as u128 * b as u128 / window as u128) as usize
            / self.config.banks_per_rank.max(1);
        self.prefetcher
            .generate_bank(&self.table, bank, count, lead, &mut self.candidates);
        self.stats.candidates_emitted += self.candidates.len() as u64;
        &self.candidates
    }

    /// Records reads that were already queued but unissued when the
    /// refresh started — they are blocked by the refresh and count toward
    /// the profiler's `A` exactly like reads arriving mid-refresh. Call
    /// after [`Self::refresh_started`].
    pub fn note_blocked_queued(&mut self, count: u64) {
        if self.refresh_active {
            self.refresh_a += count;
            let (cycle, rank) = (self.refresh_started_at, self.trace_rank);
            self.trace
                .emit(|| TraceEvent::BlockedQueued { cycle, rank, count });
        }
    }

    /// Marks the end of the rank's refresh and drives phase transitions.
    ///
    /// `sram_hits`/`sram_lookups` are the buffer's statistics for reads
    /// that arrived during *this* refresh (used for the hit-rate
    /// threshold check in Observing).
    pub fn refresh_completed(
        &mut self,
        _now: Cycle,
        sram_hits: u64,
        sram_lookups: u64,
    ) -> PhaseTransition {
        self.refresh_active = false;
        self.refresh_bank = None;
        let (rank, b, a) = (self.trace_rank, self.refresh_b, self.refresh_a);
        self.trace.emit(|| TraceEvent::ProfilerWindowClose {
            cycle: _now,
            rank,
            b,
            a,
        });
        match self.phase {
            RopPhase::Training => {
                self.profiler.record(self.refresh_b, self.refresh_a);
                if self.profiler.observed() >= self.config.training_refreshes {
                    let outcome = self.profiler.outcome();
                    self.lambda = outcome.lambda;
                    self.beta = outcome.beta;
                    self.profiler.reset();
                    self.observing_hits.reset();
                    self.stats.trainings_completed += 1;
                    self.phase = RopPhase::Observing;
                    PhaseTransition::StartObserving
                } else {
                    PhaseTransition::None
                }
            }
            RopPhase::Observing | RopPhase::Prefetching => {
                self.phase = RopPhase::Observing;
                for _ in 0..sram_hits {
                    self.observing_hits.hit();
                }
                for _ in 0..sram_lookups.saturating_sub(sram_hits) {
                    self.observing_hits.miss();
                }
                if self.observing_hits.total() >= self.config.hit_rate_min_samples
                    && self.observing_hits.ratio() < self.config.hit_rate_threshold
                {
                    self.phase = RopPhase::Training;
                    self.profiler.reset();
                    self.observing_hits.reset();
                    PhaseTransition::StartTraining
                } else {
                    PhaseTransition::None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine_with(training: usize) -> RopEngine {
        let mut c = RopConfig::with_capacity(16);
        c.training_refreshes = training;
        RopEngine::new(c)
    }

    /// Drives `n` refreshes with the given (B-activity, A-activity)
    /// behaviour and perfect SRAM stats.
    fn drive_refreshes(e: &mut RopEngine, n: usize, busy: bool) -> Vec<PhaseTransition> {
        let mut out = Vec::new();
        let mut now = 10_000u64;
        for _ in 0..n {
            e.set_next_refresh_due(now + 280);
            if busy {
                for k in 0..5 {
                    e.note_access(0, 100 + k, true, now + 100 + k);
                }
            }
            e.decide_prefetch_gate(now + 280);
            e.refresh_started(now + 280);
            if busy {
                e.note_access(0, 200, true, now + 300);
            }
            out.push(e.refresh_completed(now + 560, 1, 1));
            now += 6240;
        }
        out
    }

    #[test]
    fn starts_in_training_and_never_prefetches_there() {
        let mut e = engine_with(50);
        assert_eq!(e.phase(), RopPhase::Training);
        assert!(!e.decide_prefetch_gate(100));
    }

    #[test]
    fn training_completes_after_configured_refreshes() {
        let mut e = engine_with(5);
        let transitions = drive_refreshes(&mut e, 5, true);
        assert_eq!(transitions[4], PhaseTransition::StartObserving);
        assert_eq!(e.phase(), RopPhase::Observing);
        // Always busy on both sides: λ = 1, β defaults to 0.
        assert_eq!(e.lambda(), 1.0);
        assert_eq!(e.beta(), 0.0);
        assert_eq!(e.stats().trainings_completed, 1);
    }

    #[test]
    fn observing_prefetches_on_busy_window() {
        let mut e = engine_with(3);
        drive_refreshes(&mut e, 3, true);
        // Now in Observing with λ=1: a busy window must prefetch.
        let now = 1_000_000u64;
        e.set_next_refresh_due(now + 280);
        for k in 0..6 {
            e.note_access(1, 500 + k * 2, true, now + 40 * k);
            e.note_served(1, 500 + k * 2, now + 40 * k);
        }
        assert!(
            e.decide_prefetch_gate(now + 280),
            "λ=1 with B>0 must prefetch"
        );
        let c = e.generate_candidates(now + 280, 0);
        assert!(!c.is_empty());
        assert!(c.len() <= 16);
        assert!(c.iter().all(|x| x.bank == 1));
        assert_eq!(e.phase(), RopPhase::Prefetching);
        e.refresh_started(now + 280);
        assert_eq!(e.refresh_completed(now + 560, 3, 4), PhaseTransition::None);
        assert_eq!(e.phase(), RopPhase::Observing);
    }

    #[test]
    fn quiet_window_with_high_beta_skips() {
        let mut e = engine_with(4);
        // Train with quiet windows: B=0, A=0 → β=1 (and λ defaults to 1).
        let transitions = drive_refreshes(&mut e, 4, false);
        assert_eq!(transitions[3], PhaseTransition::StartObserving);
        assert_eq!(e.beta(), 1.0);
        // Quiet window in Observing: must skip with β=1.
        let now = 2_000_000u64;
        e.set_next_refresh_due(now + 280);
        assert!(!e.decide_prefetch_gate(now + 280));
        assert!(e.stats().skip_decisions >= 1);
    }

    #[test]
    fn poor_hit_rate_triggers_retraining() {
        let mut e = engine_with(2);
        drive_refreshes(&mut e, 2, true);
        assert_eq!(e.phase(), RopPhase::Observing);
        // Feed refreshes whose SRAM hit rate is terrible.
        let mut transition = PhaseTransition::None;
        let mut now = 5_000_000u64;
        for _ in 0..4 {
            e.set_next_refresh_due(now + 280);
            e.note_access(0, 1, true, now + 270);
            e.decide_prefetch_gate(now + 280);
            e.refresh_started(now + 280);
            transition = e.refresh_completed(now + 560, 0, 8);
            if transition == PhaseTransition::StartTraining {
                break;
            }
            now += 6240;
        }
        assert_eq!(transition, PhaseTransition::StartTraining);
        assert_eq!(e.phase(), RopPhase::Training);
    }

    #[test]
    fn supplied_coin_decides_only_a_probabilistic_gate() {
        let mut e = engine_with(2);
        // One busy and one half-busy training refresh: λ = 1/2.
        drive_refreshes(&mut e, 1, true);
        e.set_next_refresh_due(20_280);
        e.note_access(0, 1, true, 20_270);
        e.refresh_started(20_280);
        e.refresh_completed(20_560, 0, 0);
        assert_eq!(e.lambda(), 0.5);
        let [phase, e1, before, .., hits, lookups] = e.control_state();
        assert_eq!(phase, RopPhase::Observing as u64);
        assert_eq!((e1, before, hits, lookups), (0, 0, 0, 0));
        // B > 0 with λ = 1/2: the coin is asked and its answer stands.
        e.set_next_refresh_due(30_280);
        e.note_access(0, 1, true, 30_270);
        let mut asked = 0;
        assert!(!e.decide_prefetch_gate_with(30_280, |p| {
            asked += 1;
            assert_eq!(p, 0.5);
            false
        }));
        assert_eq!((asked, e.phase()), (1, RopPhase::Observing));
        assert!(e.decide_prefetch_gate_with(30_280, |_| true));
        assert_eq!(e.phase(), RopPhase::Prefetching);
        e.refresh_started(30_280);
        e.refresh_completed(30_560, 1, 2);
        let [.., hits, lookups] = e.control_state();
        assert_eq!((hits, lookups), (1, 2));
    }

    #[test]
    fn table_updates_only_inside_observational_windows() {
        let mut e = engine_with(1);
        e.set_next_refresh_due(10_000);
        // Inside the window — recorded even in Training (only the SRAM
        // buffer is off during training, not the pattern tracking).
        e.note_served(2, 100, 9_900);
        assert_eq!(e.table().entry(2).last_addr, Some(100));
        // Finish training.
        e.refresh_started(10_000);
        e.refresh_completed(10_280, 0, 0);
        assert_eq!(e.phase(), RopPhase::Observing);
        // Outside the window: ignored.
        e.set_next_refresh_due(20_000);
        e.note_served(2, 101, 12_000);
        assert_eq!(e.table().entry(2).last_addr, Some(100));
        // Inside the window: recorded.
        e.note_served(2, 101, 19_900);
        assert_eq!(e.table().entry(2).last_addr, Some(101));
        // Arrivals alone never touch the table.
        e.note_access(3, 50, true, 19_950);
        assert_eq!(e.table().entry(3).last_addr, None);
    }

    #[test]
    fn throttle_modes_override_probabilities() {
        use crate::config::ThrottleMode;
        // Train with quiet windows so adaptive would skip (β = 1)...
        let mut c = RopConfig::with_capacity(16);
        c.training_refreshes = 2;
        c.throttle_mode = ThrottleMode::Always;
        let mut e = RopEngine::new(c);
        drive_refreshes(&mut e, 2, false);
        assert_eq!(e.beta(), 1.0);
        // ...but Always-mode still prefetches when the table has history.
        let now = 3_000_000u64;
        e.set_next_refresh_due(now + 280);
        e.note_served(0, 10, now + 270);
        e.note_served(0, 11, now + 272);
        assert!(e.decide_prefetch_gate(now + 280), "Always must gate open");

        let mut c = RopConfig::with_capacity(16);
        c.training_refreshes = 2;
        c.throttle_mode = ThrottleMode::Never;
        let mut e = RopEngine::new(c);
        drive_refreshes(&mut e, 2, true);
        // Busy window, λ = 1 — but Never-mode always skips.
        let now = 3_000_000u64;
        e.set_next_refresh_due(now + 280);
        e.note_access(0, 1, true, now + 270);
        assert!(!e.decide_prefetch_gate(now + 280));
    }

    #[test]
    fn per_bank_candidates_come_from_one_bank() {
        let mut e = engine_with(1);
        drive_refreshes(&mut e, 1, true);
        let now = 1_000_000u64;
        e.set_next_refresh_due(now + 280);
        for k in 0..5 {
            e.note_served(3, 100 + k, now + 200 + k);
            e.note_served(5, 900 + k * 2, now + 200 + k);
        }
        let cands = e.generate_candidates_for_bank(3, 8, now + 280, 0);
        assert!(!cands.is_empty());
        assert!(cands.iter().all(|c| c.bank == 3));
        assert!(cands.len() <= 8);
    }

    #[test]
    fn scoped_refresh_counts_only_its_bank() {
        let mut e = engine_with(5);
        e.set_next_refresh_due(10_000);
        e.refresh_started_scoped(10_000, Some(2));
        e.note_access(2, 5, true, 10_050); // counts toward A
        e.note_access(4, 5, true, 10_060); // different bank: ignored
        e.note_access(2, 6, false, 10_070); // write: ignored
        assert_eq!(e.refresh_completed(10_112, 0, 0), PhaseTransition::None);
        // One refresh recorded with B=0 (quiet window), A=1 → AfterOnly.
        // Finish training and check the profiler felt exactly one A.
        // (Indirect check via λ/β after more training samples.)
    }

    #[test]
    fn access_window_counts_and_prunes() {
        let mut w = AccessWindow::new(100);
        w.record(50);
        w.record(120);
        assert_eq!(w.count(120), 2);
        assert_eq!(w.count(151), 1); // 50 fell out (cutoff 51)
        assert_eq!(w.count(500), 0);
    }

    #[test]
    fn b_statistics_tracked() {
        let mut e = engine_with(2);
        drive_refreshes(&mut e, 2, true);
        let s = e.stats();
        assert_eq!(s.b_positive, 2);
        assert_eq!(s.b_zero, 0);
    }
}
