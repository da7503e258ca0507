//! The parameterised synthetic workload generator.

use crate::pattern::{AddressPattern, PatternCursor};
use crate::record::TraceRecord;
use crate::WorkloadGen;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Tuning knobs for one synthetic benchmark.
///
/// The footprint is laid out as `[hot set][cold region]` in line
/// granularity starting at `base_addr`. Hot-set references model the
/// LLC-resident working set (they are filtered out by the LLC and rarely
/// reach memory); cold references walk the region with the configured
/// [`AddressPattern`] and are what the memory system actually sees.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadParams {
    /// Benchmark name (SPEC CPU2006 benchmark this generator stands in for).
    pub name: &'static str,
    /// Memory-intensive classification (Table II of the paper).
    pub intensive: bool,
    /// Cold-region walk pattern.
    pub pattern: AddressPattern,
    /// Cold-region size in cache lines.
    pub region_lines: u64,
    /// Hot-set size in cache lines (should fit in the LLC).
    pub hot_lines: u64,
    /// Probability a reference targets the hot set.
    pub hot_fraction: f64,
    /// Probability a reference is a store.
    pub write_fraction: f64,
    /// Mean number of memory references per burst phase.
    pub burst_len: u32,
    /// Mean non-memory instructions between references inside a burst.
    pub burst_gap_mean: u32,
    /// Mean non-memory instructions in the idle phase between bursts.
    pub idle_gap_mean: u32,
    /// Byte base address of the footprint.
    pub base_addr: u64,
}

impl WorkloadParams {
    /// Validates parameter sanity.
    pub fn validate(&self) -> Result<(), String> {
        if self.region_lines == 0 {
            return Err("region_lines must be non-zero".into());
        }
        if !(0.0..=1.0).contains(&self.hot_fraction) {
            return Err("hot_fraction must be in [0,1]".into());
        }
        if !(0.0..=1.0).contains(&self.write_fraction) {
            return Err("write_fraction must be in [0,1]".into());
        }
        if self.hot_fraction > 0.0 && self.hot_lines == 0 {
            return Err("hot_fraction > 0 requires a non-empty hot set".into());
        }
        if self.burst_len == 0 {
            return Err("burst_len must be non-zero".into());
        }
        Ok(())
    }
}

/// Deterministic infinite generator for one synthetic benchmark.
#[derive(Debug, Clone)]
pub struct SyntheticWorkload {
    params: WorkloadParams,
    cursor: PatternCursor,
    rng: SmallRng,
    /// References remaining in the current burst; 0 forces a new burst.
    burst_remaining: u32,
    records_emitted: u64,
}

impl SyntheticWorkload {
    /// Creates a generator with its own RNG stream derived from `seed`.
    ///
    /// # Panics
    /// Panics on invalid parameters.
    pub fn new(params: WorkloadParams, seed: u64) -> Self {
        params
            .validate()
            .unwrap_or_else(|e| panic!("invalid workload parameters for {}: {e}", params.name)); // rop-lint: allow(no-panic)
        let cursor = PatternCursor::new(params.pattern.clone(), params.region_lines);
        SyntheticWorkload {
            cursor,
            rng: SmallRng::seed_from_u64(seed ^ fxhash(params.name)),
            burst_remaining: 0,
            records_emitted: 0,
            params,
        }
    }

    /// The parameters behind this generator.
    pub fn params(&self) -> &WorkloadParams {
        &self.params
    }

    /// Records emitted so far.
    pub fn records_emitted(&self) -> u64 {
        self.records_emitted
    }

    /// Exponentially distributed gap with the given mean (>= 0),
    /// rounded to nearest by the shared sampler (the old floor
    /// truncation biased every gap ~0.5 below the configured mean).
    fn sample_gap(&mut self, mean: u32) -> u32 {
        crate::sampler::exp_gap(&mut self.rng, mean as f64).min(u32::MAX as u64 / 2) as u32
    }
}

impl WorkloadGen for SyntheticWorkload {
    fn next_record(&mut self) -> TraceRecord {
        let gap = if self.burst_remaining == 0 {
            // Start a new burst: length jitters around the mean, and the
            // preceding idle phase is one long exponential gap.
            let len = self.params.burst_len;
            self.burst_remaining = self.rng.gen_range(len / 2 + 1..=len + len / 2);
            self.sample_gap(self.params.idle_gap_mean)
        } else {
            self.sample_gap(self.params.burst_gap_mean)
        };
        self.burst_remaining -= 1;

        let hot = self.params.hot_fraction > 0.0 && self.rng.gen_bool(self.params.hot_fraction);
        let line_offset = if hot {
            self.rng.gen_range(0..self.params.hot_lines)
        } else {
            self.params.hot_lines + self.cursor.next_offset(&mut self.rng)
        };
        let is_write =
            self.params.write_fraction > 0.0 && self.rng.gen_bool(self.params.write_fraction);
        self.records_emitted += 1;
        TraceRecord {
            gap_instructions: gap,
            addr: self.params.base_addr + line_offset * 64,
            is_write,
        }
    }

    fn name(&self) -> &str {
        self.params.name
    }
}

/// Tiny FNV-style hash so each benchmark name perturbs the seed.
fn fxhash(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> WorkloadParams {
        WorkloadParams {
            name: "test",
            intensive: true,
            pattern: AddressPattern::Stream { stride_lines: 1 },
            region_lines: 1 << 16,
            hot_lines: 1 << 10,
            hot_fraction: 0.5,
            write_fraction: 0.3,
            burst_len: 32,
            burst_gap_mean: 10,
            idle_gap_mean: 1000,
            base_addr: 0,
        }
    }

    #[test]
    fn deterministic_stream() {
        let mut a = SyntheticWorkload::new(params(), 7);
        let mut b = SyntheticWorkload::new(params(), 7);
        for _ in 0..1000 {
            assert_eq!(a.next_record(), b.next_record());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SyntheticWorkload::new(params(), 1);
        let mut b = SyntheticWorkload::new(params(), 2);
        let same = (0..100)
            .filter(|_| a.next_record() == b.next_record())
            .count();
        assert!(same < 100);
    }

    #[test]
    fn addresses_stay_in_footprint() {
        let p = params();
        let max_addr = p.base_addr + (p.hot_lines + p.region_lines) * 64;
        let mut w = SyntheticWorkload::new(p, 3);
        for _ in 0..10_000 {
            let r = w.next_record();
            assert!(r.addr < max_addr);
        }
    }

    #[test]
    fn base_addr_offsets_everything() {
        let mut p = params();
        p.base_addr = 1 << 40;
        let mut w = SyntheticWorkload::new(p, 3);
        for _ in 0..100 {
            assert!(w.next_record().addr >= 1 << 40);
        }
    }

    #[test]
    fn write_fraction_roughly_respected() {
        let mut w = SyntheticWorkload::new(params(), 11);
        let writes = (0..20_000).filter(|_| w.next_record().is_write).count();
        let frac = writes as f64 / 20_000.0;
        assert!((frac - 0.3).abs() < 0.03, "write fraction {frac}");
    }

    #[test]
    fn bursts_create_bimodal_gaps() {
        let mut w = SyntheticWorkload::new(params(), 5);
        let gaps: Vec<u32> = (0..50_000)
            .map(|_| w.next_record().gap_instructions)
            .collect();
        let big = gaps.iter().filter(|&&g| g > 300).count();
        let small = gaps.iter().filter(|&&g| g <= 300).count();
        // Mostly small in-burst gaps, with a meaningful tail of idle gaps.
        assert!(small > big * 5);
        assert!(big > 100);
    }

    /// Regression (ISSUE 8): `sample_gap` used to floor-truncate the
    /// exponential sample, biasing every gap ~0.5 cycles below the
    /// configured mean — at `burst_gap_mean = 4` a 12% error. With the
    /// burst and idle means equal, every emitted gap is a plain
    /// exponential draw, so the realized mean must track the configured
    /// mean; the old floor bias fails this tolerance.
    #[test]
    fn realized_gap_mean_is_unbiased() {
        for mean in [4u32, 10, 50] {
            let mut p = params();
            p.burst_gap_mean = mean;
            p.idle_gap_mean = mean;
            let mut w = SyntheticWorkload::new(p, 13);
            const N: u64 = 200_000;
            let sum: u64 = (0..N)
                .map(|_| w.next_record().gap_instructions as u64)
                .sum();
            let realized = sum as f64 / N as f64;
            let tol = 0.1 + mean as f64 * 0.01;
            assert!(
                (realized - mean as f64).abs() < tol,
                "mean {mean}: realized {realized} off by more than {tol}"
            );
        }
    }

    #[test]
    fn validation_catches_bad_params() {
        let mut p = params();
        p.hot_fraction = 1.5;
        assert!(p.validate().is_err());
        let mut p = params();
        p.region_lines = 0;
        assert!(p.validate().is_err());
        let mut p = params();
        p.hot_lines = 0;
        assert!(p.validate().is_err()); // hot_fraction > 0 but no hot set
    }

    #[test]
    fn zero_hot_fraction_allows_zero_hot_lines() {
        let mut p = params();
        p.hot_fraction = 0.0;
        p.hot_lines = 0;
        p.validate().unwrap();
        let mut w = SyntheticWorkload::new(p, 1);
        for _ in 0..100 {
            let _ = w.next_record();
        }
    }
}
