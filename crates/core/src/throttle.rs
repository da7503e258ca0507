//! The probabilistic prefetch gate (§IV-B/§IV-C).
//!
//! With profiler outputs λ and β, at each imminent refresh:
//!
//! * if the observational window showed requests (`B > 0`), prefetch with
//!   probability λ;
//! * if it was quiet (`B = 0`), *skip* with probability β — i.e. prefetch
//!   with probability `1 − β`.
//!
//! This throttle is what keeps ROP from over-prefetching for the large
//! fraction of refreshes that block nothing (Figure 2).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Bernoulli gate over the λ/β confidences.
#[derive(Debug, Clone)]
pub struct ProbabilisticThrottle {
    rng: SmallRng,
}

impl ProbabilisticThrottle {
    /// Creates a throttle with a deterministic RNG stream.
    pub fn new(seed: u64) -> Self {
        ProbabilisticThrottle {
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Decides whether to prefetch for one refresh.
    pub fn decide(&mut self, b_count: u64, lambda: f64, beta: f64) -> bool {
        let rng = &mut self.rng;
        Self::decide_with(b_count, lambda, beta, |p| rng.gen_bool(p))
    }

    /// The gate with a caller-supplied coin: `coin(p)` is asked only
    /// when the prefetch probability `p` lies strictly between 0 and 1;
    /// `p <= 0` skips and `p >= 1` prefetches without a draw.
    pub fn decide_with(
        b_count: u64,
        lambda: f64,
        beta: f64,
        coin: impl FnOnce(f64) -> bool,
    ) -> bool {
        let p = (if b_count > 0 { lambda } else { 1.0 - beta }).clamp(0.0, 1.0);
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            coin(p)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extremes_are_deterministic() {
        let mut t = ProbabilisticThrottle::new(1);
        // λ = 1 with activity: always prefetch.
        for _ in 0..100 {
            assert!(t.decide(5, 1.0, 0.0));
        }
        // β = 1 with no activity: never prefetch.
        for _ in 0..100 {
            assert!(!t.decide(0, 1.0, 1.0));
        }
    }

    #[test]
    fn coin_is_asked_only_strictly_inside_the_unit_interval() {
        let never = |_: f64| -> bool { panic!("no draw at p = 0 or 1") };
        assert!(ProbabilisticThrottle::decide_with(5, 1.0, 0.0, never));
        assert!(!ProbabilisticThrottle::decide_with(0, 1.0, 1.0, never));
        assert!(ProbabilisticThrottle::decide_with(1, 2.0, 0.0, never));
        let mut asked = None;
        let go = ProbabilisticThrottle::decide_with(0, 0.0, 0.75, |p| {
            asked = Some(p);
            true
        });
        assert!(go);
        assert_eq!(asked, Some(0.25));
    }

    #[test]
    fn rates_track_probabilities() {
        let mut t = ProbabilisticThrottle::new(7);
        let n = 20_000;
        let mut go = 0;
        for _ in 0..n {
            if t.decide(3, 0.8, 0.0) {
                go += 1;
            }
        }
        let rate = go as f64 / n as f64;
        assert!((rate - 0.8).abs() < 0.02, "rate {rate}");

        let mut t = ProbabilisticThrottle::new(9);
        let mut go = 0;
        for _ in 0..n {
            if t.decide(0, 0.0, 0.7) {
                go += 1;
            }
        }
        // B = 0 with β = 0.7 → prefetch 30% of the time.
        let rate = go as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn same_seed_same_decisions() {
        let mut a = ProbabilisticThrottle::new(42);
        let mut b = ProbabilisticThrottle::new(42);
        for i in 0..1000u64 {
            assert_eq!(a.decide(i % 3, 0.5, 0.5), b.decide(i % 3, 0.5, 0.5));
        }
    }

    #[test]
    fn out_of_range_probabilities_clamped() {
        let mut t = ProbabilisticThrottle::new(1);
        assert!(t.decide(1, 2.0, 0.0));
        assert!(!t.decide(0, 0.0, 5.0));
    }
}
