//! `verify-rop`: bounded exhaustive search over clones of the real
//! [`RopEngine`].
//!
//! Each search step drives one refresh through the controller's call
//! sequence — `set_next_refresh_due`, an optional arrival inside the
//! observational window (`B`), `decide_prefetch_gate`,
//! `refresh_started`, an optional read during the refresh (`A`), then
//! `refresh_completed(hits, lookups)` — with an oracle choosing `B`,
//! `A` and the buffer statistics from {(0,0), (0,1), (1,1)}. Whenever
//! the throttle's probability lies strictly between 0 and 1 the oracle
//! also takes the coin both ways (the engine's coin seam). Visited
//! states are keyed by [`fingerprint`]s of
//! [`RopEngine::control_state`]; steps are spaced so every window
//! empties between refreshes, which makes that state the whole story.
//!
//! The config keeps its throttle mode and threshold, but
//! `training_refreshes` and `hit_rate_min_samples` are capped at 3:
//! the phase machine only tells none, one and several apart, and the
//! cap keeps the space small. The Observing counter still grows
//! without bound, so the search is depth-capped and nodes at the cap
//! are assumed live (as in [`crate::mech`]).
//!
//! Checked, with stable IDs:
//!
//! * `rop-mandate` — every state the paper requires (all four §IV-B
//!   categories recorded in Training; quiet and active Observing
//!   windows; insufficient, healthy and degraded hit-rate counters;
//!   Prefetching, including on a drawn coin) has a witness step;
//! * `rop-fallback` — every completion outside Training returns
//!   `StartTraining` exactly when the accumulated counter, recomputed
//!   here, has at least `min_samples` lookups and a ratio below the
//!   threshold (§IV-C);
//! * `rop-lambda-beta` — λ and β lie in [0, 1] after every training;
//! * `rop-liveness` — from every fully expanded node both Prefetching
//!   and Training stay reachable.
//!
//! Seeded driver-side [`Mutation`]s break the call sequence and must
//! each fail; they are the checker's own regression suite.

use std::collections::VecDeque;

use rop_core::{Cycle, PhaseTransition, RopConfig, RopEngine, RopPhase};

use crate::explore::{fingerprint, SearchGraph, VisitedSet};

/// Depth cap: refreshes driven from power-on.
const MAX_STEPS: usize = 48;

/// The buffer statistics `(hits, lookups)` the oracle feeds a completion.
const STATS: [(u64, u64); 3] = [(0, 0), (0, 1), (1, 1)];

/// Oracle choices per step before the coin: `B` × `A` × statistics.
const BASE_CHOICES: usize = 2 * 2 * STATS.len();

/// Edge marks for the two liveness closures.
const PREFETCHED: u8 = 1;
const TRAINED: u8 = 2;

/// Driver-side seeded bugs: each breaks the controller's call sequence
/// in one way and must make `verify-rop` fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// `refresh_completed` is never called.
    NoCompletion,
    /// Every completion reports `(0, 0)` buffer statistics.
    NoHitStats,
    /// Every drawn throttle coin comes up "skip".
    StuckSkip,
}

impl Mutation {
    /// Every seeded mutation, in CI order.
    pub const ALL: [Mutation; 3] = [
        Mutation::NoCompletion,
        Mutation::NoHitStats,
        Mutation::StuckSkip,
    ];

    /// CLI name.
    pub fn label(self) -> &'static str {
        match self {
            Mutation::NoCompletion => "no-completion",
            Mutation::NoHitStats => "no-hit-stats",
            Mutation::StuckSkip => "stuck-skip",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Mutation> {
        Mutation::ALL.into_iter().find(|m| m.label() == s)
    }
}

/// The accumulated Observing hit counter at a completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bucket {
    /// Fewer than `min_samples` lookups: the fallback is disarmed.
    Insufficient,
    /// Enough lookups, ratio at or above the threshold.
    Healthy,
    /// Enough lookups, ratio below the threshold: the fallback fires.
    Degraded,
}

/// What one driven refresh did, as the mandates see it.
struct Step {
    /// Phase when the refresh fell due.
    phase: RopPhase,
    /// Window activity the oracle chose.
    b: bool,
    a: bool,
    /// The gate moved the engine to Prefetching.
    went: bool,
    /// The gate drew the throttle coin.
    drawn: bool,
    /// Recomputed counter bucket at a completion outside Training.
    bucket: Option<Bucket>,
    /// The completion's verdict; `None` when it was never called.
    transition: Option<PhaseTransition>,
}

impl Step {
    fn trained(&self, b: bool, a: bool) -> bool {
        self.phase == RopPhase::Training && self.transition.is_some() && (self.b, self.a) == (b, a)
    }
}

/// A paper-mandated state: its name and the steps that witness it.
type Mandate = (&'static str, fn(&Step) -> bool);

/// The states the paper requires the engine to visit.
const MANDATES: &[Mandate] = &[
    ("training E1 (B>0, A>0)", |s| s.trained(true, true)),
    ("training B>0, A=0", |s| s.trained(true, false)),
    ("training B=0, A>0", |s| s.trained(false, true)),
    ("training E2 (B=0, A=0)", |s| s.trained(false, false)),
    ("observing, active window (B>0)", |s| {
        s.phase == RopPhase::Observing && s.b
    }),
    ("observing, quiet window (B=0)", |s| {
        s.phase == RopPhase::Observing && !s.b
    }),
    ("observing, fallback disarmed (insufficient samples)", |s| {
        s.bucket == Some(Bucket::Insufficient)
    }),
    ("observing, healthy hit rate", |s| {
        s.bucket == Some(Bucket::Healthy)
    }),
    (
        "observing, degraded hit rate (below fallback threshold)",
        |s| s.bucket == Some(Bucket::Degraded),
    ),
    ("prefetching", |s| s.went),
    ("prefetching on a drawn coin (0 < p < 1)", |s| {
        s.went && s.drawn
    }),
];

/// Drives one refresh falling due at `due` under oracle choice `base`
/// and coin `coin`. Returns the step and the first invariant it broke.
fn drive(
    e: &mut RopEngine,
    cfg: &RopConfig,
    due: Cycle,
    base: usize,
    coin: bool,
    mutation: Option<Mutation>,
) -> (Step, Option<String>) {
    // base = (2·B + A)·3 + index into STATS.
    let (b, a) = (base / 6 == 1, base / 3 % 2 == 1);
    let (hits, lookups) = match mutation {
        Some(Mutation::NoHitStats) => (0, 0),
        _ => STATS[base % 3],
    };
    let phase = e.phase();
    e.set_next_refresh_due(due);
    if b {
        e.note_access(0, 0, true, due - 1);
    }
    let mut drawn = false;
    e.decide_prefetch_gate_with(due, |_| {
        drawn = true;
        coin && mutation != Some(Mutation::StuckSkip)
    });
    let went = e.phase() == RopPhase::Prefetching;
    e.refresh_started(due);
    if a {
        e.note_access(0, 0, true, due + 1);
    }
    let [.., acc_hits, acc_lookups] = e.control_state();
    let transition = (mutation != Some(Mutation::NoCompletion))
        .then(|| e.refresh_completed(due + cfg.refresh_period, hits, lookups));

    let mut violation = None;
    let mut bucket = None;
    if phase != RopPhase::Training && transition.is_some() {
        let (h, n) = (acc_hits + hits, acc_lookups + lookups);
        let ratio = if n == 0 { 0.0 } else { h as f64 / n as f64 };
        let b = if n < cfg.hit_rate_min_samples {
            Bucket::Insufficient
        } else if ratio < cfg.hit_rate_threshold {
            Bucket::Degraded
        } else {
            Bucket::Healthy
        };
        bucket = Some(b);
        if (transition == Some(PhaseTransition::StartTraining)) != (b == Bucket::Degraded) {
            violation = Some(format!(
                "[rop-fallback] counter {h}/{n} is {b:?} but the completion returned {transition:?}"
            ));
        }
    }
    let unit = |x: f64| (0.0..=1.0).contains(&x);
    if transition == Some(PhaseTransition::StartObserving) && !(unit(e.lambda()) && unit(e.beta()))
    {
        violation = Some(format!(
            "[rop-lambda-beta] training produced λ = {}, β = {}",
            e.lambda(),
            e.beta()
        ));
    }
    let step = Step {
        phase,
        b,
        a,
        went,
        drawn,
        bucket,
        transition,
    };
    (step, violation)
}

/// Outcome of one `verify-rop` run.
#[derive(Debug, Clone)]
pub struct RopReport {
    /// Seeded mutation, when this was a self-test run.
    pub mutation: Option<Mutation>,
    /// Distinct control states visited.
    pub nodes: usize,
    /// Transitions explored.
    pub edges: usize,
    /// Nodes left unexpanded at the depth cap (assumed live).
    pub cut: usize,
    /// Mandates with no witness step.
    pub unmet: Vec<&'static str>,
    /// Fully expanded nodes from which Prefetching is unreachable.
    pub no_prefetch: usize,
    /// Fully expanded nodes from which Training is unreachable.
    pub no_retrain: usize,
    /// First safety violation, with the oracle-choice path to it.
    pub violation: Option<(String, Vec<usize>)>,
}

impl RopReport {
    /// True when every check held.
    pub fn ok(&self) -> bool {
        self.unmet.is_empty()
            && self.no_prefetch == 0
            && self.no_retrain == 0
            && self.violation.is_none()
    }

    /// One-screen summary for the CLI.
    pub fn render(&self) -> String {
        let name = match self.mutation {
            Some(m) => format!("verify-rop+{}", m.label()),
            None => "verify-rop".to_string(),
        };
        let mut out = format!(
            "{name}: {} nodes, {} edges, {} cut at depth {MAX_STEPS}\n",
            self.nodes, self.edges, self.cut
        );
        for m in &self.unmet {
            out.push_str(&format!("  FAIL [rop-mandate] no witness: {m}\n"));
        }
        for (n, what) in [
            (self.no_prefetch, "Prefetching"),
            (self.no_retrain, "Training"),
        ] {
            if n > 0 {
                out.push_str(&format!(
                    "  FAIL [rop-liveness] {what} unreachable from {n} node(s)\n"
                ));
            }
        }
        if let Some((v, path)) = &self.violation {
            out.push_str(&format!("  FAIL {v} (path: {} steps)\n", path.len()));
        }
        if self.ok() {
            out.push_str(&format!(
                "  OK: {} mandates witnessed; rop-fallback rop-lambda-beta rop-liveness hold\n",
                MANDATES.len()
            ));
        }
        out
    }
}

/// Searches the real engine built from `cfg` (with the caps above).
pub fn check_rop(cfg: &RopConfig, mutation: Option<Mutation>) -> RopReport {
    let mut cfg = cfg.clone();
    cfg.training_refreshes = cfg.training_refreshes.min(3);
    cfg.hit_rate_min_samples = cfg.hit_rate_min_samples.min(3);
    // Steps far enough apart that both windows empty in between.
    let span = cfg.observational_window + cfg.refresh_period + 2;
    let root = RopEngine::new(cfg.clone());

    let mut visited = VisitedSet::new();
    let mut graph = SearchGraph::new();
    visited.insert(fingerprint(&root.control_state()));
    let mut queue = VecDeque::from([(0usize, 0usize, root)]);
    let mut cut = Vec::new();
    let mut witnessed = [false; MANDATES.len()];
    let mut violation = None;

    'search: while let Some((node, depth, engine)) = queue.pop_front() {
        if depth >= MAX_STEPS {
            cut.push(node);
            continue;
        }
        let due = depth as Cycle * span + cfg.observational_window;
        for base in 0..BASE_CHOICES {
            for (coin, choice) in [(true, 2 * base), (false, 2 * base + 1)] {
                let mut e = engine.clone();
                let (step, broke) = drive(&mut e, &cfg, due, base, coin, mutation);
                if let Some(v) = broke {
                    let mut path = graph.path_to(node);
                    path.push(choice);
                    violation = Some((v, path));
                    break 'search;
                }
                for (w, (_, pred)) in witnessed.iter_mut().zip(MANDATES) {
                    *w |= pred(&step);
                }
                let trained = step.phase == RopPhase::Training || e.phase() == RopPhase::Training;
                let marks =
                    if step.went { PREFETCHED } else { 0 } | if trained { TRAINED } else { 0 };
                let (new, id) = visited.intern(fingerprint(&e.control_state()));
                if new {
                    graph.add_node(node, choice);
                    queue.push_back((id, depth + 1, e));
                }
                graph.add_edge(node, id, marks);
                if !step.drawn {
                    break;
                }
            }
        }
    }

    let dead = |mark| {
        if violation.is_some() {
            return 0;
        }
        let live = graph.live_nodes(mark, &cut);
        live.iter().filter(|&&l| !l).count()
    };
    RopReport {
        mutation,
        nodes: graph.node_count(),
        edges: graph.edge_count(),
        cut: cut.len(),
        unmet: MANDATES
            .iter()
            .zip(witnessed)
            .filter(|(_, w)| !w)
            .map(|((name, _), _)| *name)
            .collect(),
        no_prefetch: dead(PREFETCHED),
        no_retrain: dead(TRAINED),
        violation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rop_core::config::ThrottleMode;

    #[test]
    fn paper_default_engine_passes() {
        let report = check_rop(&RopConfig::paper_default(), None);
        assert!(report.ok(), "{}", report.render());
        assert!(report.nodes > 100 && report.cut > 0, "{}", report.render());
    }

    #[test]
    fn never_throttle_mode_cannot_prefetch() {
        let mut cfg = RopConfig::paper_default();
        cfg.throttle_mode = ThrottleMode::Never;
        let report = check_rop(&cfg, None);
        assert!(report.unmet.contains(&"prefetching"), "{}", report.render());
    }

    #[test]
    fn zero_threshold_disarms_fallback_and_is_reported() {
        let mut cfg = RopConfig::paper_default();
        cfg.hit_rate_threshold = 0.0;
        let report = check_rop(&cfg, None);
        assert!(
            report.unmet.iter().any(|m| m.contains("degraded")),
            "{}",
            report.render()
        );
    }

    #[test]
    fn mutation_labels_round_trip() {
        for m in Mutation::ALL {
            assert_eq!(Mutation::parse(m.label()), Some(m));
        }
        assert_eq!(Mutation::parse("nonsense"), None);
    }
}
