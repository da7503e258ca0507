//! Property tests on ROP's data structures: prediction-table arithmetic,
//! candidate-generation bounds, profiler probability laws, and the
//! sliding access window.

use proptest::prelude::*;

use rop_core::engine::AccessWindow;
use rop_core::{PatternProfiler, PredictionTable, Prefetcher};

const LINES_PER_BANK: u64 = (1 << 15) * 128;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Candidates are always in-bounds, unique, and capacity-bounded —
    /// for any access history whatsoever.
    #[test]
    fn candidates_bounded_and_unique(
        accesses in proptest::collection::vec((0usize..8, 0u64..LINES_PER_BANK), 0..300),
        capacity in 1usize..129,
        lead in 0usize..32,
    ) {
        let mut table = PredictionTable::new(8);
        for (bank, addr) in &accesses {
            table.update(*bank, *addr);
        }
        let mut p = Prefetcher::new(LINES_PER_BANK);
        let (mut multi, mut single) = (Vec::new(), Vec::new());
        p.generate_with_lead(&table, capacity, lead, &mut multi);
        p.generate_single_delta(&table, capacity, lead, &mut single);
        for cands in [multi, single] {
            prop_assert!(cands.len() <= capacity);
            let mut seen = std::collections::HashSet::new();
            for c in &cands {
                prop_assert!(c.bank < 8);
                prop_assert!(c.line_offset < LINES_PER_BANK);
                prop_assert!(seen.insert((c.bank, c.line_offset)), "duplicate {c:?}");
            }
            // No candidates without history.
            if accesses.is_empty() {
                prop_assert!(cands.is_empty());
            }
        }
    }

    /// Frequency counters never overflow and halving preserves the
    /// tracked pattern.
    #[test]
    fn frequencies_saturate_safely(stride in 1u64..64, reps in 1usize..2000) {
        let mut table = PredictionTable::new(8);
        let mut addr = 0u64;
        for _ in 0..reps {
            table.update(0, addr);
            addr += stride;
        }
        let e = table.entry(0);
        prop_assert_eq!(e.delta1, stride as i64);
        prop_assert!(e.f1 as usize <= reps);
        if reps > 2 {
            prop_assert!(e.f1 > 0);
        }
    }

    /// The profiler's λ and β are probabilities and match the category
    /// counts exactly (Equations 1 and 2).
    #[test]
    fn profiler_probability_laws(
        obs in proptest::collection::vec((0u64..5, 0u64..5), 1..200)
    ) {
        let mut p = PatternProfiler::new();
        for (b, a) in &obs {
            p.record(*b, *a);
        }
        let o = p.outcome();
        prop_assert!((0.0..=1.0).contains(&o.lambda));
        prop_assert!((0.0..=1.0).contains(&o.beta));
        prop_assert_eq!(o.refreshes_observed, obs.len());
        prop_assert_eq!(o.category_counts.iter().sum::<u64>(), obs.len() as u64);
        let ba = obs.iter().filter(|(b, a)| *b > 0 && *a > 0).count() as u64;
        let bo = obs.iter().filter(|(b, a)| *b > 0 && *a == 0).count() as u64;
        if ba + bo > 0 {
            prop_assert!((o.lambda - ba as f64 / (ba + bo) as f64).abs() < 1e-12);
        } else {
            prop_assert_eq!(o.lambda, 1.0); // default branch
        }
        prop_assert!((0.0..=1.0).contains(&o.dominant_fraction()));
    }

    /// The sliding window agrees with a naive reference implementation.
    #[test]
    fn access_window_matches_reference(
        window in 1u64..500,
        events in proptest::collection::vec(0u64..100, 1..100),
    ) {
        let mut w = AccessWindow::new(window);
        let mut times: Vec<u64> = Vec::new();
        let mut now = 0u64;
        for gap in events {
            now += gap;
            w.record(now);
            times.push(now);
            let expected = times
                .iter()
                .filter(|&&t| t > now.saturating_sub(window))
                .count() as u64;
            prop_assert_eq!(w.count(now), expected, "at {}", now);
        }
    }
}
