//! Open-loop arrival processes for the datacenter traffic mode.
//!
//! Closed-loop workloads ([`crate::SyntheticWorkload`]) emit *instruction
//! gaps* and rely on a core model to convert them into memory-request
//! times — the request rate falls when the memory system stalls the
//! core. Datacenter front-ends do the opposite: requests arrive on a
//! wall-clock schedule regardless of how the memory system is doing
//! (open loop), and latency is measured from that schedule. This module
//! generates the schedule: seeded, deterministic, timestamped memory
//! references at a configured offered load.
//!
//! Three processes, all sharing the fixed rounding-corrected
//! [`crate::sampler::exp_gap`] sampler:
//!
//! * [`ArrivalProcess::Poisson`] — memoryless arrivals at the offered
//!   rate; the M/x/1 baseline every queueing result is stated against.
//! * [`ArrivalProcess::Mmpp2`] — a 2-state Markov-modulated Poisson
//!   process alternating between a quiet and a burst state (exponential
//!   dwell times). Time-averaged rate equals the offered rate, but the
//!   burst state concentrates arrivals, which is what drags p999.
//! * [`ArrivalProcess::Diurnal`] — a piecewise-constant daily ramp
//!   (8 epochs per period, multipliers averaging 1.0) modelling the
//!   load swing between trough and peak traffic.

use crate::pattern::{AddressPattern, PatternCursor};
use crate::sampler::exp_gap;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One timestamped open-loop memory reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Memory cycle at which the request hits the controller front-end.
    /// Non-decreasing across the stream; ties (same-cycle arrivals) are
    /// legal and common at high offered load.
    pub at: u64,
    /// Cache-line offset inside the tenant's footprint.
    pub line_offset: u64,
    /// Store (`true`) or load.
    pub is_write: bool,
}

/// Stochastic clock driving an open-loop arrival stream.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Constant-rate memoryless arrivals.
    Poisson,
    /// 2-state MMPP: quiet ↔ burst, exponential dwell in each state.
    Mmpp2 {
        /// Burst-state rate as a multiple of the quiet-state rate
        /// (must be ≥ 1; 1 degenerates to Poisson).
        burst_rate_multiplier: f64,
        /// Mean cycles spent in each state before switching.
        mean_dwell_cycles: u64,
    },
    /// Deterministic daily ramp: the period is split into 8 equal
    /// epochs with rate multipliers `DIURNAL_MULTIPLIERS` (mean 1.0).
    Diurnal {
        /// Cycles per full ramp period (must be ≥ 8).
        period_cycles: u64,
    },
}

/// Per-epoch rate multipliers for [`ArrivalProcess::Diurnal`].
/// Deliberately averages to exactly 1.0 so the configured offered load
/// is also the period-averaged load.
pub const DIURNAL_MULTIPLIERS: [f64; 8] = [0.25, 0.5, 1.0, 1.5, 2.0, 1.5, 1.0, 0.25];

impl ArrivalProcess {
    /// Short lowercase label used in job names and figure axes.
    pub fn label(&self) -> &'static str {
        match self {
            ArrivalProcess::Poisson => "poisson",
            ArrivalProcess::Mmpp2 { .. } => "mmpp",
            ArrivalProcess::Diurnal { .. } => "diurnal",
        }
    }

    /// Validates process parameters.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            ArrivalProcess::Poisson => Ok(()),
            ArrivalProcess::Mmpp2 {
                burst_rate_multiplier,
                mean_dwell_cycles,
            } => {
                if !burst_rate_multiplier.is_finite() || *burst_rate_multiplier < 1.0 {
                    return Err("mmpp burst_rate_multiplier must be finite and >= 1".into());
                }
                if *mean_dwell_cycles == 0 {
                    return Err("mmpp mean_dwell_cycles must be non-zero".into());
                }
                Ok(())
            }
            ArrivalProcess::Diurnal { period_cycles } => {
                if *period_cycles < DIURNAL_MULTIPLIERS.len() as u64 {
                    return Err("diurnal period_cycles must be >= 8".into());
                }
                Ok(())
            }
        }
    }
}

/// Deterministic infinite generator for one tenant's arrival stream.
#[derive(Debug, Clone)]
pub struct ArrivalGen {
    process: ArrivalProcess,
    /// Offered load in requests per kilo-cycle (time-averaged).
    offered_rpkc: f64,
    cursor: PatternCursor,
    rng: SmallRng,
    write_fraction: f64,
    /// Time of the most recent arrival (the stochastic clock).
    now: u64,
    /// MMPP2: currently in the burst state.
    in_burst: bool,
    /// MMPP2: cycle at which the current dwell ends.
    state_until: u64,
    emitted: u64,
}

impl ArrivalGen {
    /// Creates a generator with its own RNG stream derived from `seed`.
    ///
    /// # Panics
    /// Panics on invalid parameters (zero/non-finite offered load, bad
    /// process parameters, write fraction outside `[0, 1]`).
    pub fn new(
        process: ArrivalProcess,
        offered_rpkc: f64,
        pattern: AddressPattern,
        region_lines: u64,
        write_fraction: f64,
        seed: u64,
    ) -> Self {
        assert!(
            offered_rpkc.is_finite() && offered_rpkc > 0.0,
            "offered_rpkc must be finite and positive" // rop-lint: allow(no-panic)
        );
        assert!(
            (0.0..=1.0).contains(&write_fraction),
            "write_fraction must be in [0,1]" // rop-lint: allow(no-panic)
        );
        process
            .validate()
            .unwrap_or_else(|e| panic!("invalid arrival process: {e}")); // rop-lint: allow(no-panic)
        assert!(region_lines > 0, "region_lines must be non-zero"); // rop-lint: allow(no-panic)
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x6f70_656e_6c6f_6f70); // "openloop"
        let state_until = match &process {
            ArrivalProcess::Mmpp2 {
                mean_dwell_cycles, ..
            } => exp_gap(&mut rng, *mean_dwell_cycles as f64),
            _ => 0,
        };
        ArrivalGen {
            cursor: PatternCursor::new(pattern, region_lines),
            rng,
            process,
            offered_rpkc,
            write_fraction,
            now: 0,
            in_burst: false,
            state_until,
            emitted: 0,
        }
    }

    /// Arrivals emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Instantaneous rate multiplier at cycle `t`.
    fn rate_multiplier(&self, t: u64) -> f64 {
        match &self.process {
            ArrivalProcess::Poisson => 1.0,
            ArrivalProcess::Mmpp2 {
                burst_rate_multiplier,
                ..
            } => {
                // Time-average must equal the offered rate: with equal
                // mean dwell in both states, quiet = 2/(1+m), burst =
                // 2m/(1+m) of the offered rate.
                let quiet = 2.0 / (1.0 + burst_rate_multiplier);
                if self.in_burst {
                    quiet * burst_rate_multiplier
                } else {
                    quiet
                }
            }
            ArrivalProcess::Diurnal { period_cycles } => {
                let epochs = DIURNAL_MULTIPLIERS.len() as u64;
                let epoch = (t % period_cycles) * epochs / period_cycles;
                DIURNAL_MULTIPLIERS[epoch as usize % DIURNAL_MULTIPLIERS.len()]
            }
        }
    }

    /// Cycle at which the current rate regime ends (`u64::MAX` when the
    /// rate is constant forever, as for Poisson).
    fn regime_boundary(&self, t: u64) -> u64 {
        match &self.process {
            ArrivalProcess::Poisson => u64::MAX,
            ArrivalProcess::Mmpp2 { .. } => self.state_until,
            ArrivalProcess::Diurnal { period_cycles } => {
                let epochs = DIURNAL_MULTIPLIERS.len() as u64;
                let epoch = (t % period_cycles) * epochs / period_cycles;
                let period_start = t - t % period_cycles;
                // The first cycle whose epoch exceeds `epoch`: rounding
                // the edge up keeps it strictly after `t` when the
                // period is not a multiple of the epoch count.
                period_start + ((epoch + 1) * period_cycles).div_ceil(epochs)
            }
        }
    }

    /// Advances the stochastic clock across one regime boundary
    /// (MMPP state flip or diurnal epoch edge).
    fn cross_boundary(&mut self, boundary: u64) {
        self.now = boundary;
        if let ArrivalProcess::Mmpp2 {
            mean_dwell_cycles, ..
        } = &self.process
        {
            self.in_burst = !self.in_burst;
            let dwell = exp_gap(&mut self.rng, *mean_dwell_cycles as f64).max(1);
            self.state_until = boundary.saturating_add(dwell);
        }
    }

    /// Produces the next arrival. Timestamps are non-decreasing.
    pub fn next_arrival(&mut self) -> Arrival {
        loop {
            let mult = self.rate_multiplier(self.now);
            let boundary = self.regime_boundary(self.now);
            let mean_gap = 1000.0 / (self.offered_rpkc * mult);
            let gap = exp_gap(&mut self.rng, mean_gap);
            let t = self.now.saturating_add(gap);
            if t >= boundary {
                // The tentative arrival falls in the next rate regime.
                // Exponential gaps are memoryless, so discarding the
                // draw and restarting from the boundary at the new rate
                // is distribution-exact.
                self.cross_boundary(boundary);
                continue;
            }
            self.now = t;
            break;
        }
        let line_offset = self.cursor.next_offset(&mut self.rng);
        let is_write = self.write_fraction > 0.0 && self.rng.gen_bool(self.write_fraction);
        self.emitted += 1;
        Arrival {
            at: self.now,
            line_offset,
            is_write,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(process: ArrivalProcess, rpkc: f64, seed: u64) -> ArrivalGen {
        ArrivalGen::new(
            process,
            rpkc,
            AddressPattern::Stream { stride_lines: 1 },
            1 << 14,
            0.25,
            seed,
        )
    }

    fn all_processes() -> Vec<ArrivalProcess> {
        vec![
            ArrivalProcess::Poisson,
            ArrivalProcess::Mmpp2 {
                burst_rate_multiplier: 4.0,
                mean_dwell_cycles: 5_000,
            },
            ArrivalProcess::Diurnal {
                period_cycles: 40_000,
            },
        ]
    }

    /// Same seed ⇒ byte-identical arrival stream (the resume guarantee:
    /// a re-planned job regenerates exactly the traffic it saw before).
    #[test]
    fn deterministic_stream_per_seed() {
        for p in all_processes() {
            let mut a = gen(p.clone(), 120.0, 7);
            let mut b = gen(p, 120.0, 7);
            for _ in 0..20_000 {
                assert_eq!(a.next_arrival(), b.next_arrival());
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = gen(ArrivalProcess::Poisson, 120.0, 1);
        let mut b = gen(ArrivalProcess::Poisson, 120.0, 2);
        let same = (0..200)
            .filter(|_| a.next_arrival() == b.next_arrival())
            .count();
        assert!(same < 200);
    }

    #[test]
    fn timestamps_are_non_decreasing() {
        for p in all_processes() {
            let mut g = gen(p, 200.0, 3);
            let mut prev = 0;
            for _ in 0..50_000 {
                let a = g.next_arrival();
                assert!(a.at >= prev);
                prev = a.at;
            }
        }
    }

    /// Every process realizes the configured time-averaged offered
    /// load: N arrivals should span ≈ N/rate kilo-cycles.
    #[test]
    fn realized_rate_matches_offered_load() {
        for p in all_processes() {
            for rpkc in [60.0, 240.0] {
                let mut g = gen(p.clone(), rpkc, 11);
                const N: u64 = 200_000;
                let mut last = 0;
                for _ in 0..N {
                    last = g.next_arrival().at;
                }
                let realized = N as f64 * 1000.0 / last as f64;
                assert!(
                    (realized - rpkc).abs() < rpkc * 0.05,
                    "{}@{rpkc}: realized {realized}",
                    p.label()
                );
            }
        }
    }

    /// MMPP gaps are bimodal relative to Poisson at the same offered
    /// load: the burst state must produce clusters of short gaps that
    /// plain Poisson does not (higher variance-to-mean ratio).
    #[test]
    fn mmpp_burstier_than_poisson() {
        let dispersion = |p: ArrivalProcess| {
            let mut g = gen(p, 120.0, 23);
            let mut prev = 0u64;
            let gaps: Vec<f64> = (0..100_000)
                .map(|_| {
                    let a = g.next_arrival();
                    let gap = (a.at - prev) as f64;
                    prev = a.at;
                    gap
                })
                .collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
            var / mean
        };
        let poisson = dispersion(ArrivalProcess::Poisson);
        let mmpp = dispersion(ArrivalProcess::Mmpp2 {
            burst_rate_multiplier: 8.0,
            mean_dwell_cycles: 10_000,
        });
        assert!(
            mmpp > poisson * 1.5,
            "mmpp dispersion {mmpp} vs poisson {poisson}"
        );
    }

    /// Diurnal arrivals concentrate in the peak epochs: the busiest
    /// epoch of the ramp must see several times the arrivals of the
    /// trough epoch.
    #[test]
    fn diurnal_ramp_shapes_arrivals() {
        let period = 80_000u64;
        let mut g = gen(
            ArrivalProcess::Diurnal {
                period_cycles: period,
            },
            120.0,
            31,
        );
        let mut per_epoch = [0u64; 8];
        for _ in 0..200_000 {
            let a = g.next_arrival();
            let epoch = (a.at % period) * 8 / period;
            per_epoch[epoch as usize] += 1;
        }
        let peak = per_epoch[4] as f64; // multiplier 2.0
        let trough = per_epoch[0].max(1) as f64; // multiplier 0.25
        assert!(
            peak > trough * 4.0,
            "peak {peak} vs trough {trough}: {per_epoch:?}"
        );
    }

    /// A period that is not a multiple of the epoch count puts epoch
    /// edges between whole cycles; the generator must still cross every
    /// edge instead of spinning on it.
    #[test]
    fn diurnal_period_off_the_epoch_grid_advances() {
        let period = 12_644u64; // epoch edges at multiples of 1580.5
        let mut g = gen(
            ArrivalProcess::Diurnal {
                period_cycles: period,
            },
            190.0,
            1,
        );
        let mut last = 0;
        for _ in 0..5_000 {
            last = g.next_arrival().at;
        }
        assert!(last > 2 * period, "stream stalled at cycle {last}");
    }

    #[test]
    fn validation_catches_bad_processes() {
        assert!(ArrivalProcess::Mmpp2 {
            burst_rate_multiplier: 0.5,
            mean_dwell_cycles: 100,
        }
        .validate()
        .is_err());
        assert!(ArrivalProcess::Mmpp2 {
            burst_rate_multiplier: 4.0,
            mean_dwell_cycles: 0,
        }
        .validate()
        .is_err());
        assert!(ArrivalProcess::Diurnal { period_cycles: 4 }
            .validate()
            .is_err());
        assert!(ArrivalProcess::Poisson.validate().is_ok());
    }

    #[test]
    fn line_offsets_stay_in_region() {
        let mut g = gen(ArrivalProcess::Poisson, 120.0, 5);
        for _ in 0..10_000 {
            assert!(g.next_arrival().line_offset < 1 << 14);
        }
    }
}
