//! The VLDP-derived prediction table (§IV-C, Figure 6).
//!
//! One table per rank, one entry per bank (the paper: "the number of
//! entries in the prediction table is equal to the number of banks in a
//! rank", exploiting bank locality). Each entry remembers the last
//! accessed line offset in the bank plus three delta patterns and their
//! frequencies:
//!
//! * `Delta1`/`f1` — the most recent single-access delta;
//! * `Delta2`/`f2` — the most recent *pair* of deltas (every two accesses
//!   generate a two-delta tuple);
//! * `Delta3`/`f3` — the most recent *triple* of deltas.
//!
//! When a new delta (or tuple) differs from the stored one, the stored
//! pattern is replaced and its frequency reset to zero; when any frequency
//! would overflow its 8-bit counter, all three are halved (the paper notes
//! overflow never fires in their runs; property tests here exercise it
//! anyway).
//!
//! Addresses are cache-line offsets within the bank, as in the paper
//! (`LastAddr` is "the cache line offset within the bank"). With a 2 Gb
//! bank of 2^22 lines, an entry costs 3 (BankID) + 22 (LastAddr) +
//! 23·6 (three signed delta patterns totalling six deltas) + 3·8 (freqs)
//! ≈ 187 bits — the paper rounds its layout to 204 bits; either way a
//! rank's table is ~204 B of SRAM.

/// Frequency counters are 8-bit in hardware; we saturate-halve at this cap.
const FREQ_CAP: u8 = u8::MAX;

/// One bank's pattern entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredictionEntry {
    /// Bank this entry tracks.
    pub bank_id: usize,
    /// Line offset (within the bank) of the most recent access; `None`
    /// until the first access is seen.
    pub last_addr: Option<u64>,
    /// Most recent single delta.
    pub delta1: i64,
    /// Repeat count of `delta1`.
    pub f1: u8,
    /// Most recent two-delta tuple.
    pub delta2: [i64; 2],
    /// Repeat count of `delta2`.
    pub f2: u8,
    /// Most recent three-delta tuple.
    pub delta3: [i64; 3],
    /// Repeat count of `delta3`.
    pub f3: u8,
    /// Ring of the most recent deltas (newest last), for tuple formation.
    recent: Vec<i64>,
    /// Deltas observed since the entry was (re)initialised.
    deltas_seen: u64,
}

impl PredictionEntry {
    /// Fresh entry for `bank_id`.
    pub fn new(bank_id: usize) -> Self {
        PredictionEntry {
            bank_id,
            last_addr: None,
            delta1: 0,
            f1: 0,
            delta2: [0; 2],
            f2: 0,
            delta3: [0; 3],
            f3: 0,
            recent: Vec::with_capacity(3),
            deltas_seen: 0,
        }
    }

    /// Sum of the three frequencies — the bank's weight in Equation 3.
    pub fn weight(&self) -> u64 {
        self.f1 as u64 + self.f2 as u64 + self.f3 as u64
    }

    /// Records an access to `addr` (line offset within the bank).
    pub fn update(&mut self, addr: u64) {
        let Some(last) = self.last_addr else {
            self.last_addr = Some(addr);
            return;
        };
        let d = addr as i64 - last as i64;
        self.deltas_seen += 1;

        // Single-delta pattern.
        if d == self.delta1 {
            self.bump_f1();
        } else {
            self.delta1 = d;
            self.f1 = 0;
        }

        // Maintain the delta ring (keep at most 3).
        self.recent.push(d);
        if self.recent.len() > 3 {
            self.recent.remove(0);
        }

        // Every two accesses generate a two-delta tuple.
        if self.deltas_seen.is_multiple_of(2) && self.recent.len() >= 2 {
            let tuple = [
                self.recent[self.recent.len() - 2],
                self.recent[self.recent.len() - 1],
            ];
            if tuple == self.delta2 {
                self.bump_f2();
            } else {
                self.delta2 = tuple;
                self.f2 = 0;
            }
        }

        // Every three accesses generate a three-delta tuple.
        if self.deltas_seen.is_multiple_of(3) && self.recent.len() >= 3 {
            let tuple = [self.recent[0], self.recent[1], self.recent[2]];
            if tuple == self.delta3 {
                self.bump_f3();
            } else {
                self.delta3 = tuple;
                self.f3 = 0;
            }
        }

        self.last_addr = Some(addr);
    }

    fn bump_f1(&mut self) {
        if self.f1 == FREQ_CAP {
            self.halve();
        }
        self.f1 += 1;
    }

    fn bump_f2(&mut self) {
        if self.f2 == FREQ_CAP {
            self.halve();
        }
        self.f2 += 1;
    }

    fn bump_f3(&mut self) {
        if self.f3 == FREQ_CAP {
            self.halve();
        }
        self.f3 += 1;
    }

    /// Halves all three frequencies (overflow handling per the paper).
    fn halve(&mut self) {
        self.f1 /= 2;
        self.f2 /= 2;
        self.f3 /= 2;
    }

    /// Clears pattern state but keeps the bank id.
    pub fn reset(&mut self) {
        *self = PredictionEntry::new(self.bank_id);
    }
}

/// The per-rank prediction table: one [`PredictionEntry`] per bank.
#[derive(Debug, Clone)]
pub struct PredictionTable {
    entries: Vec<PredictionEntry>,
}

impl PredictionTable {
    /// Builds a table for a rank with `banks` banks.
    ///
    /// # Panics
    /// Panics if `banks == 0`.
    pub fn new(banks: usize) -> Self {
        assert!(banks > 0, "a rank has at least one bank");
        PredictionTable {
            entries: (0..banks).map(PredictionEntry::new).collect(),
        }
    }

    /// Number of banks tracked.
    pub fn banks(&self) -> usize {
        self.entries.len()
    }

    /// The entry for `bank`.
    pub fn entry(&self, bank: usize) -> &PredictionEntry {
        &self.entries[bank]
    }

    /// Records an access to `(bank, line offset)`.
    pub fn update(&mut self, bank: usize, addr: u64) {
        self.entries[bank].update(addr);
    }

    /// Iterates over entries.
    pub fn iter(&self) -> impl Iterator<Item = &PredictionEntry> {
        self.entries.iter()
    }

    /// Clears all entries (start of a new observation epoch).
    pub fn reset(&mut self) {
        for e in &mut self.entries {
            e.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_sets_last_addr_only() {
        let mut e = PredictionEntry::new(0);
        e.update(100);
        assert_eq!(e.last_addr, Some(100));
        assert_eq!(e.weight(), 0);
    }

    #[test]
    fn repeated_delta_bumps_f1() {
        let mut e = PredictionEntry::new(0);
        for addr in [0u64, 4, 8, 12, 16] {
            e.update(addr);
        }
        assert_eq!(e.delta1, 4);
        assert_eq!(e.f1, 3); // 4 deltas: first sets, next three repeat
    }

    #[test]
    fn new_delta_resets_f1() {
        let mut e = PredictionEntry::new(0);
        for addr in [0u64, 4, 8] {
            e.update(addr);
        }
        assert_eq!(e.f1, 1);
        e.update(9); // delta 1 != 4
        assert_eq!(e.delta1, 1);
        assert_eq!(e.f1, 0);
    }

    #[test]
    fn two_delta_pattern_detected() {
        // Alternating +1/+3 pattern: deltas 1,3,1,3,...
        let mut e = PredictionEntry::new(0);
        let mut addr = 0u64;
        e.update(addr);
        for i in 0..8 {
            addr += if i % 2 == 0 { 1 } else { 3 };
            e.update(addr);
        }
        // Tuples at deltas 2,4,6,8: [1,3] each time; first sets, rest bump.
        assert_eq!(e.delta2, [1, 3]);
        assert_eq!(e.f2, 3);
        // The single delta keeps flip-flopping, so f1 stays 0.
        assert_eq!(e.f1, 0);
    }

    #[test]
    fn three_delta_pattern_detected() {
        // Repeating +2/+2/+5: deltas 2,2,5,2,2,5,...
        let mut e = PredictionEntry::new(0);
        let seq = [2i64, 2, 5];
        let mut addr = 0u64;
        e.update(addr);
        for i in 0..9 {
            addr = (addr as i64 + seq[i % 3]) as u64;
            e.update(addr);
        }
        // Triples at deltas 3,6,9: [2,2,5] each time.
        assert_eq!(e.delta3, [2, 2, 5]);
        assert_eq!(e.f3, 2);
    }

    #[test]
    fn negative_deltas_supported() {
        let mut e = PredictionEntry::new(0);
        for addr in [100u64, 90, 80, 70] {
            e.update(addr);
        }
        assert_eq!(e.delta1, -10);
        assert_eq!(e.f1, 2);
    }

    #[test]
    fn overflow_halves_all_frequencies() {
        let mut e = PredictionEntry::new(0);
        e.update(0);
        let mut addr = 0u64;
        // 300 repeats of delta 1 — more than the 8-bit cap.
        for _ in 0..300 {
            addr += 1;
            e.update(addr);
        }
        assert!(e.f1 < FREQ_CAP);
        assert!(e.f1 > 0);
        // Still tracking the right pattern.
        assert_eq!(e.delta1, 1);
    }

    #[test]
    fn table_weights_and_updates() {
        let mut t = PredictionTable::new(8);
        assert_eq!(t.banks(), 8);
        assert!(t.iter().all(|e| e.weight() == 0));
        for addr in [0u64, 1, 2, 3] {
            t.update(3, addr);
        }
        assert_eq!(t.entry(3).weight() as i64, t.entry(3).f1 as i64);
        assert!(t.entry(3).weight() > 0);
        t.reset();
        assert!(t.iter().all(|e| e.weight() == 0));
        assert_eq!(t.entry(3).last_addr, None);
    }

    #[test]
    #[should_panic]
    fn zero_banks_panics() {
        PredictionTable::new(0);
    }
}
