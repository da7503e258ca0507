//! Candidate generation: turning prediction-table patterns into the cache
//! lines staged in the SRAM buffer (§IV-C, Equation 3).
//!
//! Given SRAM capacity `C`, bank `i` receives
//!
//! ```text
//! B_i = (f1_i + f2_i + f3_i) / Σ_j (f1_j + f2_j + f3_j) × C        (Eq. 3)
//! ```
//!
//! lines, and within the bank the three patterns split `B_i`
//! proportionally to `f1 : f2 : f3`. Pattern replay extrapolates each
//! delta pattern from `LastAddr`: the 1-delta pattern yields
//! `last + k·Δ1`, the 2-delta pattern walks `Δ2a, Δ2b, Δ2a, …`
//! cumulatively, and likewise for the 3-delta tuple.
//!
//! Implementation choices the paper leaves open (documented in DESIGN.md):
//! integer apportioning uses floor + largest-remainder so exactly
//! `min(C, available)` candidates are produced; all-zero-delta patterns
//! are skipped (they would re-prefetch `LastAddr` forever); candidates
//! falling outside the bank are dropped; duplicates within a refresh are
//! deduplicated. When every bank's weight is zero (prediction table still
//! cold), the prefetcher falls back to next-line prefetching from each
//! bank's `LastAddr`, splitting capacity equally over banks that have
//! seen any access.

use crate::prediction::{PredictionEntry, PredictionTable};

/// One cache line to prefetch: a bank and a line offset within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PrefetchCandidate {
    /// Bank within the rank.
    pub bank: usize,
    /// Cache-line offset within the bank.
    pub line_offset: u64,
}

/// Candidate generator. It keeps no state between calls beyond reusable
/// scratch space, so generating a burst allocates nothing once the
/// scratch has grown to the bank count.
#[derive(Debug, Clone)]
pub struct Prefetcher {
    /// Number of cache lines per bank (offsets beyond this are dropped).
    lines_per_bank: u64,
    /// Per-bank Equation 3 weights.
    weights: Vec<u64>,
    /// Per-bank shares of the buffer.
    shares: Vec<usize>,
    /// (bank, remainder) pairs for largest-remainder apportioning.
    remainders: Vec<(usize, u64)>,
}

impl Prefetcher {
    /// Creates a prefetcher for banks of `lines_per_bank` lines.
    pub fn new(lines_per_bank: u64) -> Self {
        assert!(lines_per_bank > 0);
        Prefetcher {
            lines_per_bank,
            weights: Vec::new(),
            shares: Vec::new(),
            remainders: Vec::new(),
        }
    }

    /// Generates candidates starting `lead` pattern steps *ahead* of each
    /// bank's `LastAddr`.
    ///
    /// Fetching the candidates into the SRAM buffer takes bus time during
    /// which the demand stream keeps advancing (those in-between reads
    /// are still served by DRAM — the rank is not frozen yet). Leading
    /// the extrapolation by the expected advance keeps the buffer aligned
    /// with the stream position at the moment the rank actually freezes.
    ///
    /// The candidates, at most `capacity`, replace the contents of `out`.
    ///
    /// Bank shares follow Equation 3 with a small additive prior (+2 per
    /// touched bank): one observational window contributes only a handful
    /// of repeats per bank, and raw tiny frequencies — which the paper's
    /// replace-and-reset rule zeroes on every pattern flip — would starve
    /// random banks of coverage. The prior keeps shares near-uniform for
    /// uniform traffic while still letting strong bank locality dominate.
    pub fn generate_with_lead(
        &mut self,
        table: &PredictionTable,
        capacity: usize,
        lead: usize,
        out: &mut Vec<PrefetchCandidate>,
    ) {
        out.clear();
        if capacity == 0 {
            return;
        }
        self.weights.clear();
        self.weights.extend(table.iter().map(|e| {
            if e.last_addr.is_some() {
                e.weight() + 2
            } else {
                0
            }
        }));
        if self.weights.iter().sum::<u64>() == 0 {
            self.fallback_next_line(table, capacity, out);
            return;
        }

        apportion(
            &self.weights,
            capacity,
            &mut self.shares,
            &mut self.remainders,
        );
        for (entry, &share) in table.iter().zip(&self.shares) {
            if share == 0 {
                continue;
            }
            self.generate_for_bank(entry, share, lead, out);
        }
        out.truncate(capacity);
    }

    /// Candidates for a *single* bank — the per-bank-refresh (REFpb)
    /// integration: only `bank` freezes, so the whole budget extrapolates
    /// its pattern.
    pub fn generate_bank(
        &self,
        table: &PredictionTable,
        bank: usize,
        count: usize,
        lead: usize,
        out: &mut Vec<PrefetchCandidate>,
    ) {
        out.clear();
        if count > 0 {
            self.generate_for_bank(table.entry(bank), count, lead, out);
        }
    }

    /// Ablation variant: candidates replay only each bank's 1-delta
    /// pattern (multi-delta patterns ignored), falling back to next-line
    /// when the single delta has not repeated.
    pub fn generate_single_delta(
        &mut self,
        table: &PredictionTable,
        capacity: usize,
        lead: usize,
        out: &mut Vec<PrefetchCandidate>,
    ) {
        out.clear();
        if capacity == 0 {
            return;
        }
        self.weights.clear();
        self.weights.extend(table.iter().map(|e| {
            if e.last_addr.is_some() {
                e.f1 as u64 + 2
            } else {
                0
            }
        }));
        if self.weights.iter().sum::<u64>() == 0 {
            self.fallback_next_line(table, capacity, out);
            return;
        }
        apportion(
            &self.weights,
            capacity,
            &mut self.shares,
            &mut self.remainders,
        );
        for (entry, &share) in table.iter().zip(&self.shares) {
            let Some(last) = entry.last_addr else {
                continue;
            };
            if share == 0 {
                continue;
            }
            let delta = if entry.f1 > 0 && entry.delta1 != 0 {
                entry.delta1
            } else {
                1
            };
            self.replay(entry.bank_id, last, &[delta], share, lead, out);
        }
        out.truncate(capacity);
    }

    /// Candidates for one bank: the whole share replays the bank's
    /// *dominant* pattern (highest repeat count among the 1-, 2- and
    /// 3-delta patterns). When no pattern has repeated — frequent under
    /// reset-on-flip with interleaved read/write streams — the bank falls
    /// back to next-line extrapolation, which is the correct prior for
    /// the monotone streams that dominate memory-intensive traffic.
    fn generate_for_bank(
        &self,
        entry: &PredictionEntry,
        share: usize,
        lead: usize,
        out: &mut Vec<PrefetchCandidate>,
    ) {
        let Some(last) = entry.last_addr else { return };
        let freqs = [entry.f1 as u64, entry.f2 as u64, entry.f3 as u64];
        let patterns: [&[i64]; 3] = [
            std::slice::from_ref(&entry.delta1),
            &entry.delta2,
            &entry.delta3,
        ];
        let best = (0..3)
            .filter(|&i| !patterns[i].iter().all(|&d| d == 0))
            .max_by_key(|&i| freqs[i]);
        let next_line: [i64; 1] = [1];
        let pattern: &[i64] = match best {
            Some(i) if freqs[i] > 0 => patterns[i],
            _ => &next_line,
        };
        self.replay(entry.bank_id, last, pattern, share, lead, out);
    }

    /// Extrapolates `pattern` cyclically from `last`, emitting up to `n`
    /// in-range, non-duplicate candidates.
    fn replay(
        &self,
        bank: usize,
        last: u64,
        pattern: &[i64],
        n: usize,
        lead: usize,
        out: &mut Vec<PrefetchCandidate>,
    ) {
        let mut pos = last as i64;
        // Fast-forward over the lead: these positions will be consumed by
        // demand before the rank freezes, so they are not worth a slot.
        for step in 0..lead {
            pos += pattern[step % pattern.len()];
        }
        let mut emitted = 0;
        let mut step = lead;
        // Bound the walk so degenerate patterns cannot spin forever: each
        // step either emits or is skipped, and we allow a few skips.
        let max_steps = lead + n * 4 + 8;
        while emitted < n && step < max_steps {
            pos += pattern[step % pattern.len()];
            step += 1;
            if pos < 0 || pos >= self.lines_per_bank as i64 {
                // Walked off the bank; further steps in the same direction
                // stay out of range for monotone patterns, so stop.
                break;
            }
            let cand = PrefetchCandidate {
                bank,
                line_offset: pos as u64,
            };
            if !out.contains(&cand) {
                out.push(cand);
                emitted += 1;
            }
        }
    }

    /// Cold-table fallback: next-line prefetch from each touched bank.
    fn fallback_next_line(
        &self,
        table: &PredictionTable,
        capacity: usize,
        out: &mut Vec<PrefetchCandidate>,
    ) {
        let touched = table.iter().filter(|e| e.last_addr.is_some()).count();
        if touched == 0 {
            return;
        }
        let per_bank = (capacity / touched).max(1);
        for entry in table.iter() {
            let Some(last) = entry.last_addr else {
                continue;
            };
            for k in 1..=per_bank as u64 {
                let off = last + k;
                if off >= self.lines_per_bank {
                    break;
                }
                let cand = PrefetchCandidate {
                    bank: entry.bank_id,
                    line_offset: off,
                };
                if !out.contains(&cand) {
                    out.push(cand);
                }
                if out.len() == capacity {
                    return;
                }
            }
        }
    }
}

/// Largest-remainder apportionment of `total` units across `weights`,
/// written to `shares` (all zero when every weight is zero).
/// `remainders` is scratch space.
fn apportion(
    weights: &[u64],
    total: usize,
    shares: &mut Vec<usize>,
    remainders: &mut Vec<(usize, u64)>,
) {
    shares.clear();
    remainders.clear();
    let sum: u64 = weights.iter().sum();
    if sum == 0 || total == 0 {
        shares.resize(weights.len(), 0);
        return;
    }
    let mut assigned = 0usize;
    for (i, &w) in weights.iter().enumerate() {
        let num = w as u128 * total as u128;
        let share = (num / sum as u128) as usize;
        let rem = (num % sum as u128) as u64;
        shares.push(share);
        remainders.push((i, rem));
        assigned += share;
    }
    // Hand the leftover units to the largest remainders (ties: lower
    // index). Indices are distinct, so the order is total and an
    // unstable (allocation-free) sort gives the same result.
    let mut leftover = total - assigned;
    remainders.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    for &(i, rem) in remainders.iter() {
        if leftover == 0 {
            break;
        }
        if rem == 0 {
            // Exact division everywhere; nothing owed.
            break;
        }
        shares[i] += 1;
        leftover -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prediction::PredictionTable;

    const LINES_PER_BANK: u64 = (1 << 15) * 128;

    fn table_with_stream(bank: usize, start: u64, stride: u64, n: usize) -> PredictionTable {
        let mut t = PredictionTable::new(8);
        for k in 0..n as u64 {
            t.update(bank, start + k * stride);
        }
        t
    }

    fn apportioned(weights: &[u64], total: usize) -> Vec<usize> {
        let mut shares = Vec::new();
        apportion(weights, total, &mut shares, &mut Vec::new());
        shares
    }

    #[test]
    fn apportion_splits_exactly() {
        assert_eq!(apportioned(&[1, 1, 1, 1], 8), vec![2, 2, 2, 2]);
        let s = apportioned(&[3, 1], 8);
        assert_eq!(s.iter().sum::<usize>(), 8);
        assert_eq!(s, vec![6, 2]);
        let s = apportioned(&[2, 1, 1], 5);
        assert_eq!(s.iter().sum::<usize>(), 5);
        assert!(s[0] >= 2);
    }

    #[test]
    fn apportion_zero_weights() {
        assert_eq!(apportioned(&[0, 0], 4), vec![0, 0]);
    }

    #[test]
    fn stream_pattern_prefetches_next_strided_lines() {
        let t = table_with_stream(2, 1000, 4, 10);
        let mut p = Prefetcher::new(LINES_PER_BANK);
        let mut c = Vec::new();
        p.generate_with_lead(&t, 8, 0, &mut c);
        assert!(!c.is_empty());
        // Last address was 1000 + 9*4 = 1036; candidates continue +4.
        assert!(c.contains(&PrefetchCandidate {
            bank: 2,
            line_offset: 1040
        }));
        assert!(c.iter().all(|x| x.bank == 2));
        assert!(c.len() <= 8);
        // All candidates strictly follow the stride.
        for x in &c {
            assert_eq!((x.line_offset - 1036) % 4, 0);
        }
    }

    #[test]
    fn capacity_is_respected() {
        let t = table_with_stream(0, 0, 1, 100);
        let mut p = Prefetcher::new(LINES_PER_BANK);
        let mut out = Vec::new();
        for cap in [1usize, 16, 64, 128] {
            p.generate_with_lead(&t, cap, 0, &mut out);
            assert!(out.len() <= cap);
        }
        p.generate_with_lead(&t, 0, 0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn multi_bank_split_follows_weights() {
        let mut t = PredictionTable::new(8);
        // Bank 0: long stream (high weight). Bank 1: short stream.
        for k in 0..50u64 {
            t.update(0, k);
        }
        for k in 0..5u64 {
            t.update(1, 1000 + k);
        }
        let mut p = Prefetcher::new(LINES_PER_BANK);
        let mut c = Vec::new();
        p.generate_with_lead(&t, 32, 0, &mut c);
        let bank0 = c.iter().filter(|x| x.bank == 0).count();
        let bank1 = c.iter().filter(|x| x.bank == 1).count();
        assert!(bank0 > bank1, "bank0={bank0} bank1={bank1}");
        assert!(bank1 > 0);
    }

    #[test]
    fn empty_table_yields_nothing() {
        let t = PredictionTable::new(8);
        let mut p = Prefetcher::new(LINES_PER_BANK);
        let mut out = Vec::new();
        p.generate_with_lead(&t, 64, 0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn cold_table_falls_back_to_next_line() {
        let mut t = PredictionTable::new(8);
        // One access: last_addr set but zero weight.
        t.update(3, 500);
        let mut p = Prefetcher::new(LINES_PER_BANK);
        let mut c = Vec::new();
        p.generate_with_lead(&t, 8, 0, &mut c);
        assert!(!c.is_empty());
        assert!(c.contains(&PrefetchCandidate {
            bank: 3,
            line_offset: 501
        }));
    }

    #[test]
    fn candidates_stay_inside_bank() {
        // Stream right at the top of the bank.
        let top = LINES_PER_BANK - 3;
        let t = table_with_stream(0, top - 40, 4, 11);
        let mut p = Prefetcher::new(LINES_PER_BANK);
        let mut c = Vec::new();
        p.generate_with_lead(&t, 64, 0, &mut c);
        assert!(c.iter().all(|x| x.line_offset < LINES_PER_BANK));
    }

    #[test]
    fn zero_delta_patterns_skipped() {
        let mut t = PredictionTable::new(8);
        // Same address repeatedly: delta1 == 0 with high frequency.
        for _ in 0..20 {
            t.update(0, 77);
        }
        let mut p = Prefetcher::new(LINES_PER_BANK);
        let mut c = Vec::new();
        p.generate_with_lead(&t, 16, 0, &mut c);
        // Nothing useful can be predicted from a zero delta.
        assert!(c.iter().all(|x| x.line_offset != 77));
    }

    #[test]
    fn no_duplicate_candidates() {
        let mut t = PredictionTable::new(8);
        // Alternating +2/-2 stream revisits the same lines.
        let mut addr = 1000u64;
        t.update(0, addr);
        for i in 0..30 {
            addr = if i % 2 == 0 { addr + 2 } else { addr - 2 };
            t.update(0, addr);
        }
        let mut p = Prefetcher::new(LINES_PER_BANK);
        let mut c = Vec::new();
        p.generate_with_lead(&t, 32, 0, &mut c);
        let mut seen = c.clone();
        seen.sort_by_key(|x| (x.bank, x.line_offset));
        seen.dedup();
        assert_eq!(seen.len(), c.len());
    }
}
