//! Pass 1 — the config constraint checker.
//!
//! A declarative rule catalog over [`MemCtrlConfig`] (which embeds the
//! DRAM timing/geometry and the optional [`rop_core::RopConfig`])
//! encoding derived JEDEC-style invariants that the runtime `validate()`
//! methods do not: row-cycle composition, refresh-postpone budgets,
//! observational-window bounds, SRAM sizing, probability ranges, and
//! cross-layer consistency between the ROP engine and the DRAM geometry
//! it predicts over.
//!
//! Every rule is a total function over interval [`Facts`], so the same
//! catalog vets a single config (point intervals) or an entire sweep
//! grid symbolically (hull intervals): when every rule returns
//! [`Tri::True`] on the hull, every grid point is provably legal and no
//! per-point work happens. Rules the hull cannot decide fall back to
//! point-wise evaluation, which is always decisive.

use rop_memctrl::{MechanismKind, MemCtrlConfig};
use rop_sim_system::runner::SweepJob;

use crate::interval::{Iv, Tri};

/// Interval view of one config (or the hull of many).
#[derive(Debug, Clone)]
pub struct Facts {
    // DRAM timing (memory-clock cycles).
    pub t_rcd: Iv,
    pub t_rp: Iv,
    pub t_ras: Iv,
    pub t_rc: Iv,
    pub burst: Iv,
    pub t_rrd: Iv,
    pub t_faw: Iv,
    pub t_refi: Iv,
    pub t_rfc: Iv,
    pub t_rfc1: Iv,
    pub t_rfc2: Iv,
    pub t_rfc4: Iv,
    pub t_rfc_pb: Iv,
    pub t_rfc_sa: Iv,
    // Geometry.
    pub ranks: Iv,
    pub banks_per_rank: Iv,
    pub rows_per_bank: Iv,
    pub lines_per_row: Iv,
    pub line_bytes: Iv,
    pub subarrays: Iv,
    // Controller.
    pub read_queue: Iv,
    pub write_queue: Iv,
    pub drain_high: Iv,
    pub drain_low: Iv,
    pub postpone: Iv,
    pub grace: Iv,
    /// RAIDR's fastest bin period; `None` for every other mechanism
    /// (the bin rule is vacuous there, mirroring the ROP block).
    pub raidr_bin: Option<Iv>,
    // ROP engine (absent on baseline systems).
    pub rop: Option<RopFacts>,
    /// Open-loop injector spec (absent on closed-loop jobs — every
    /// `mc-openloop-*` rule is vacuous then). Only [`Facts::from_job`]
    /// populates this: the spec lives on the system config, not the
    /// controller config.
    pub open_loop: Option<OpenLoopFacts>,
}

/// Interval view of the open-loop traffic knobs.
#[derive(Debug, Clone)]
pub struct OpenLoopFacts {
    /// Offered load in requests per kilo-cycle, summed over tenants.
    pub offered_rpkc: Iv,
    /// Traffic sources (each pinned to a rank partition).
    pub tenants: Iv,
    /// Observation window in cycles.
    pub duration: Iv,
    /// Store fraction of the offered traffic.
    pub write_fraction: Iv,
}

/// Interval view of the ROP engine knobs.
#[derive(Debug, Clone)]
pub struct RopFacts {
    pub window: Iv,
    pub period: Iv,
    pub threshold: Iv,
    pub capacity: Iv,
    pub training: Iv,
    pub min_samples: Iv,
    pub banks_per_rank: Iv,
    pub lines_per_bank: Iv,
    pub sram_latency: Iv,
}

impl Facts {
    /// Point facts for one concrete configuration.
    pub fn from_config(cfg: &MemCtrlConfig) -> Facts {
        let t = &cfg.dram.timing;
        let g = &cfg.dram.geometry;
        let p = |x: u64| Iv::point(x as f64);
        let pu = |x: usize| Iv::point(x as f64);
        Facts {
            t_rcd: p(t.t_rcd),
            t_rp: p(t.t_rp),
            t_ras: p(t.t_ras),
            t_rc: p(t.t_rc),
            burst: p(t.burst_cycles()),
            t_rrd: p(t.t_rrd),
            t_faw: p(t.t_faw),
            t_refi: p(t.t_refi()),
            t_rfc: p(t.t_rfc()),
            t_rfc1: p(t.t_rfc1),
            t_rfc2: p(t.t_rfc2),
            t_rfc4: p(t.t_rfc4),
            t_rfc_pb: p(t.t_rfc_pb),
            t_rfc_sa: p(t.t_rfc_sa),
            ranks: pu(g.ranks),
            banks_per_rank: pu(g.banks_per_rank),
            rows_per_bank: pu(g.rows_per_bank),
            lines_per_row: pu(g.lines_per_row),
            line_bytes: pu(g.line_bytes),
            subarrays: pu(g.subarrays_per_bank),
            raidr_bin: match cfg.mechanism {
                MechanismKind::Raidr { bin_period, .. } => Some(p(bin_period)),
                _ => None,
            },
            read_queue: pu(cfg.read_queue_capacity),
            write_queue: pu(cfg.write_queue_capacity),
            drain_high: pu(cfg.write_drain_high),
            drain_low: pu(cfg.write_drain_low),
            postpone: p(cfg.max_refresh_postpone),
            grace: p(cfg.prefetch_grace),
            rop: cfg.rop.as_ref().map(|r| RopFacts {
                window: p(r.observational_window),
                period: p(r.refresh_period),
                threshold: Iv::point(r.hit_rate_threshold),
                capacity: pu(r.buffer_capacity),
                training: pu(r.training_refreshes),
                min_samples: p(r.hit_rate_min_samples),
                banks_per_rank: pu(r.banks_per_rank),
                lines_per_bank: p(r.lines_per_bank),
                sram_latency: p(r.sram_latency),
            }),
            open_loop: None,
        }
    }

    /// Point facts for one sweep job: the resolved controller config
    /// plus the job-level open-loop spec, when present.
    pub fn from_job(job: &SweepJob) -> Facts {
        let mut facts = Facts::from_config(&resolve_ctrl(job));
        facts.open_loop = job.config.open_loop.as_ref().map(|ol| OpenLoopFacts {
            offered_rpkc: Iv::point(ol.offered_rpkc),
            tenants: Iv::point(ol.tenants as f64),
            duration: Iv::point(ol.duration as f64),
            write_fraction: Iv::point(ol.write_fraction),
        });
        facts
    }

    /// Field-wise hull of two fact sets. A `None` ROP block is vacuous
    /// (every ROP rule passes on it), so the hull keeps the other side.
    pub fn hull(mut self, other: &Facts) -> Facts {
        macro_rules! h {
            ($($f:ident),*) => { $( self.$f = self.$f.hull(other.$f); )* };
        }
        h!(
            t_rcd,
            t_rp,
            t_ras,
            t_rc,
            burst,
            t_rrd,
            t_faw,
            t_refi,
            t_rfc,
            t_rfc1,
            t_rfc2,
            t_rfc4,
            t_rfc_pb,
            t_rfc_sa,
            ranks,
            banks_per_rank,
            rows_per_bank,
            lines_per_row,
            line_bytes,
            subarrays,
            read_queue,
            write_queue,
            drain_high,
            drain_low,
            postpone,
            grace
        );
        self.raidr_bin = match (self.raidr_bin, other.raidr_bin) {
            (Some(a), Some(b)) => Some(a.hull(b)),
            (Some(a), None) => Some(a),
            (None, b) => b,
        };
        self.rop = match (self.rop, &other.rop) {
            (Some(mut a), Some(b)) => {
                macro_rules! hr {
                    ($($f:ident),*) => { $( a.$f = a.$f.hull(b.$f); )* };
                }
                hr!(
                    window,
                    period,
                    threshold,
                    capacity,
                    training,
                    min_samples,
                    banks_per_rank,
                    lines_per_bank,
                    sram_latency
                );
                Some(a)
            }
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b.clone()),
            (None, None) => None,
        };
        self.open_loop = match (self.open_loop, &other.open_loop) {
            (Some(mut a), Some(b)) => {
                a.offered_rpkc = a.offered_rpkc.hull(b.offered_rpkc);
                a.tenants = a.tenants.hull(b.tenants);
                a.duration = a.duration.hull(b.duration);
                a.write_fraction = a.write_fraction.hull(b.write_fraction);
                Some(a)
            }
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b.clone()),
            (None, None) => None,
        };
        self
    }
}

/// Three-valued power-of-two test (decidable only for point intervals).
fn pow2(iv: Iv) -> Tri {
    match iv.as_point() {
        Some(x) if x >= 1.0 && x == x.trunc() && (x as u64).is_power_of_two() => Tri::True,
        Some(_) => Tri::False,
        None => Tri::Unknown,
    }
}

/// Applies a predicate to the ROP block; absent ROP is vacuously true.
fn rop_rule(f: &Facts, pred: impl Fn(&RopFacts) -> Tri) -> Tri {
    match &f.rop {
        Some(r) => pred(r),
        None => Tri::True,
    }
}

/// Applies a predicate to the open-loop block; closed-loop jobs (no
/// block) are vacuously legal.
fn ol_rule(f: &Facts, pred: impl Fn(&OpenLoopFacts) -> Tri) -> Tri {
    match &f.open_loop {
        Some(o) => pred(o),
        None => Tri::True,
    }
}

/// One declarative constraint.
pub struct Rule {
    /// Stable identifier reported on violation (e.g. `tim-ras`).
    pub id: &'static str,
    /// One-line statement of the invariant.
    pub summary: &'static str,
    /// Three-valued check over (point or hull) facts.
    pub check: fn(&Facts) -> Tri,
}

/// The full rule catalog, in reporting order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "tim-ras",
        summary: "tRAS must cover tRCD plus one burst (a row must stay open long enough to read)",
        check: |f| f.t_ras.ge(f.t_rcd + f.burst),
    },
    Rule {
        id: "tim-rc",
        summary: "tRC must be at least tRAS + tRP (row cycle composes activate and precharge)",
        check: |f| f.t_rc.ge(f.t_ras + f.t_rp),
    },
    Rule {
        id: "tim-rrd-faw",
        summary: "tFAW must be at least tRRD (four-activate window cannot undercut one gap)",
        check: |f| f.t_faw.ge(f.t_rrd),
    },
    Rule {
        id: "tim-fgr-mono",
        summary: "tRFC must shrink monotonically with finer refresh granularity (tRFC1 >= tRFC2 >= tRFC4 > 0)",
        check: |f| {
            f.t_rfc1
                .ge(f.t_rfc2)
                .and(f.t_rfc2.ge(f.t_rfc4))
                .and(f.t_rfc4.gt(Iv::point(0.0)))
        },
    },
    Rule {
        id: "tim-refpb",
        summary: "per-bank refresh (tRFCpb) must be shorter than all-bank tRFC1",
        check: |f| f.t_rfc_pb.lt(f.t_rfc1),
    },
    Rule {
        id: "tim-refsa",
        summary: "subarray refresh (tRFCsa) must be positive and shorter than per-bank tRFCpb (completing the tRFCsa < tRFCpb < tRFC chain)",
        check: |f| f.t_rfc_sa.gt(Iv::point(0.0)).and(f.t_rfc_sa.lt(f.t_rfc_pb)),
    },
    Rule {
        id: "tim-duty",
        summary: "tRFC must be smaller than tREFI (refresh duty cycle < 1, or the rank never serves)",
        check: |f| f.t_rfc.lt(f.t_refi),
    },
    Rule {
        id: "mc-postpone",
        summary: "refresh postpone budget must stay within JEDEC's 8 x tREFI",
        check: |f| f.postpone.le(f.t_refi.scale(8.0)),
    },
    Rule {
        id: "mc-queues",
        summary: "read and write queues must hold at least one request",
        check: |f| {
            f.read_queue
                .ge(Iv::point(1.0))
                .and(f.write_queue.ge(Iv::point(1.0)))
        },
    },
    Rule {
        id: "mc-drain",
        summary: "write-drain watermarks must satisfy low < high <= write-queue capacity",
        check: |f| f.drain_low.lt(f.drain_high).and(f.drain_high.le(f.write_queue)),
    },
    Rule {
        id: "mc-grace",
        summary: "prefetch grace must stay under one tREFI (bounded refresh delay per JEDEC slack)",
        check: |f| f.grace.lt(f.t_refi),
    },
    Rule {
        id: "geo-pow2",
        summary: "geometry dimensions must be powers of two (shift/mask address decode), ranks >= 1",
        check: |f| {
            pow2(f.banks_per_rank)
                .and(pow2(f.rows_per_bank))
                .and(pow2(f.lines_per_row))
                .and(pow2(f.line_bytes))
                .and(f.ranks.ge(Iv::point(1.0)))
        },
    },
    Rule {
        id: "geo-subarrays",
        summary: "subarrays per bank must be a power of two no larger than the rows per bank",
        check: |f| pow2(f.subarrays).and(f.subarrays.le(f.rows_per_bank)),
    },
    Rule {
        id: "mc-raidr-bins",
        summary: "RAIDR bin period must be a positive multiple of tREFI (retention rounds align to refresh slots)",
        check: |f| match f.raidr_bin {
            None => Tri::True,
            Some(bin) => match (bin.as_point(), f.t_refi.as_point()) {
                (Some(b), Some(refi)) if refi > 0.0 => {
                    // Both are integer cycle counts carried as f64, so the
                    // lattice test is exact. rop-lint: allow(float-eq)
                    if b > 0.0 && b % refi == 0.0 {
                        Tri::True
                    } else {
                        Tri::False
                    }
                }
                _ => Tri::Unknown,
            },
        },
    },
    Rule {
        id: "rop-window",
        summary: "observational window must be positive and shorter than tREFI",
        check: |f| {
            let refi = f.t_refi;
            rop_rule(f, |r| {
                r.window.gt(Iv::point(0.0)).and(r.window.lt(refi))
            })
        },
    },
    Rule {
        id: "rop-period",
        summary: "profiled refresh period must be positive and shorter than tREFI",
        check: |f| {
            let refi = f.t_refi;
            rop_rule(f, |r| {
                r.period.gt(Iv::point(0.0)).and(r.period.lt(refi))
            })
        },
    },
    Rule {
        id: "rop-threshold",
        summary: "hit-rate fallback threshold must lie in [0, 1] (it gates a probability)",
        check: |f| rop_rule(f, |r| r.threshold.within(0.0, 1.0)),
    },
    Rule {
        id: "rop-capacity",
        summary: "SRAM buffer must hold at least one line per bank (Equation 3 apportions per bank)",
        check: |f| rop_rule(f, |r| r.capacity.ge(r.banks_per_rank)),
    },
    Rule {
        id: "rop-training",
        summary: "training must observe at least one refresh and demand at least one hit-rate sample",
        check: |f| {
            rop_rule(f, |r| {
                r.training
                    .ge(Iv::point(1.0))
                    .and(r.min_samples.ge(Iv::point(1.0)))
            })
        },
    },
    Rule {
        id: "mc-openloop-load",
        summary: "offered open-loop load must stay under the data-bus service ceiling (offered x burst <= 1000 cycles per kilo-cycle)",
        check: |f| {
            let burst = f.burst;
            ol_rule(f, |o| {
                (o.offered_rpkc * burst).le(Iv::point(1000.0))
            })
        },
    },
    Rule {
        id: "mc-openloop-tenants",
        summary: "open-loop tenants must number at least one and at most the rank count (one rank partition each)",
        check: |f| {
            let ranks = f.ranks;
            ol_rule(f, |o| {
                o.tenants.ge(Iv::point(1.0)).and(o.tenants.le(ranks))
            })
        },
    },
    Rule {
        id: "mc-openloop-duration",
        summary: "open-loop observation window must span at least two tREFI (tail quantiles need refresh activity in frame)",
        check: |f| {
            let refi = f.t_refi;
            ol_rule(f, |o| o.duration.ge(refi.scale(2.0)))
        },
    },
    Rule {
        id: "mc-openloop-write",
        summary: "open-loop write fraction must be a probability in [0, 1]",
        check: |f| ol_rule(f, |o| o.write_fraction.within(0.0, 1.0)),
    },
    Rule {
        id: "rop-banks-match",
        summary: "ROP prediction table must cover exactly the DRAM banks per rank",
        check: |f| {
            let banks = f.banks_per_rank;
            rop_rule(f, |r| {
                // Point-equality via two-sided comparison so hulls degrade
                // to Unknown instead of a spurious verdict.
                r.banks_per_rank.ge(banks).and(r.banks_per_rank.le(banks))
            })
        },
    },
];

/// Looks a rule up by id (used by tests and the CLI's rule listing).
pub fn rule(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// One violated rule on one concrete config.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule identifier.
    pub rule: &'static str,
    /// Rule statement.
    pub summary: &'static str,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.rule, self.summary)
    }
}

/// Checks one concrete configuration against the full catalog.
///
/// Point facts make every rule decisive; an `Unknown` can only arise
/// from a non-finite field (e.g. a NaN threshold) and is treated as a
/// violation — a config the checker cannot prove legal is not legal.
pub fn lint_config(cfg: &MemCtrlConfig) -> Vec<Violation> {
    let facts = Facts::from_config(cfg);
    RULES
        .iter()
        .filter(|r| !(r.check)(&facts).is_true())
        .map(|r| Violation {
            rule: r.id,
            summary: r.summary,
        })
        .collect()
}

/// Outcome of vetting a set of configs (a sweep grid).
#[derive(Debug, Clone)]
pub struct GridReport {
    /// Number of configs vetted.
    pub points: usize,
    /// True when the interval hull alone proved every point legal (no
    /// per-point evaluation happened).
    pub symbolic: bool,
    /// Violations found by per-point fallback, labeled.
    pub violations: Vec<(String, Vec<Violation>)>,
}

impl GridReport {
    /// True when no config violated any rule.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable multi-line report of every violation.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (label, vs) in &self.violations {
            for v in vs {
                out.push_str(&format!("{label}: {v}\n"));
            }
        }
        out
    }
}

/// Vets a labeled set of configurations: first symbolically over the
/// interval hull (one rule pass for the whole grid), falling back to
/// per-point checks only for the rules the hull cannot decide.
pub fn lint_grid<'a>(configs: impl IntoIterator<Item = (String, &'a MemCtrlConfig)>) -> GridReport {
    lint_facts(
        configs
            .into_iter()
            .map(|(l, c)| (l, Facts::from_config(c)))
            .collect(),
    )
}

/// The grid-first rule pass over pre-built facts (shared by the
/// config-level [`lint_grid`] and the job-level [`lint_jobs`]).
fn lint_facts(labeled: Vec<(String, Facts)>) -> GridReport {
    let points = labeled.len();
    let Some(hull) = labeled
        .iter()
        .map(|(_, f)| f.clone())
        .reduce(|a, b| a.hull(&b))
    else {
        return GridReport {
            points: 0,
            symbolic: true,
            violations: Vec::new(),
        };
    };

    let undecided: Vec<&Rule> = RULES
        .iter()
        .filter(|r| !(r.check)(&hull).is_true())
        .collect();
    if undecided.is_empty() {
        return GridReport {
            points,
            symbolic: true,
            violations: Vec::new(),
        };
    }

    // The hull could not prove some rules; decide them point by point.
    let mut violations = Vec::new();
    for (label, facts) in &labeled {
        let vs: Vec<Violation> = undecided
            .iter()
            .filter(|r| !(r.check)(facts).is_true())
            .map(|r| Violation {
                rule: r.id,
                summary: r.summary,
            })
            .collect();
        if !vs.is_empty() {
            violations.push((label.clone(), vs));
        }
    }
    GridReport {
        points,
        symbolic: false,
        violations,
    }
}

/// Resolves the memory-controller configuration a sweep job will run
/// under (the ablation override wins, matching `System::new`).
pub fn resolve_ctrl(job: &SweepJob) -> MemCtrlConfig {
    job.config.ctrl_override.clone().unwrap_or_else(|| {
        job.config
            .kind
            .memctrl_config(job.config.ranks, job.config.seed)
    })
}

/// Vets every job of a sweep before anything is dispatched: system-level
/// shape checks (`SystemConfig::validate`) plus the full rule catalog
/// over each job's resolved controller config, grid-first.
pub fn lint_jobs(jobs: &[SweepJob]) -> GridReport {
    let mut report = lint_facts(
        jobs.iter()
            .map(|j| (j.label.clone(), Facts::from_job(j)))
            .collect(),
    );
    // Shape errors (core/rank mismatches, empty benchmark lists) are not
    // interval rules; check them per job and report under a pseudo-rule.
    for job in jobs {
        if let Err(e) = job.config.validate() {
            let _ = e;
            report.violations.push((
                job.label.clone(),
                vec![Violation {
                    rule: "sys-shape",
                    summary: "system configuration fails shape validation",
                }],
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use rop_dram::DramConfig;

    #[test]
    fn shipped_presets_are_clean() {
        for cfg in [
            MemCtrlConfig::baseline(DramConfig::baseline(1)),
            MemCtrlConfig::baseline(DramConfig::no_refresh(1)),
            MemCtrlConfig::baseline_rp(DramConfig::baseline(4)),
            MemCtrlConfig::elastic(DramConfig::baseline(1)),
            MemCtrlConfig::per_bank(DramConfig::baseline(1)),
            MemCtrlConfig::rop(DramConfig::baseline(1), 16, 1),
            MemCtrlConfig::rop(DramConfig::baseline(4), 128, 2),
            MemCtrlConfig::rop_per_bank(DramConfig::baseline(4), 64, 3),
        ] {
            let vs = lint_config(&cfg);
            assert!(vs.is_empty(), "{vs:?}");
        }
    }

    #[test]
    fn symbolic_grid_pass_covers_buffer_sweep() {
        let cfgs: Vec<(String, MemCtrlConfig)> = [16usize, 32, 64, 128]
            .iter()
            .map(|&cap| {
                (
                    format!("rop-{cap}"),
                    MemCtrlConfig::rop(DramConfig::baseline(1), cap, 1),
                )
            })
            .collect();
        let report = lint_grid(cfgs.iter().map(|(l, c)| (l.clone(), c)));
        assert!(report.clean());
        assert!(
            report.symbolic,
            "a uniform legal sweep must be proven on the hull alone"
        );
        assert_eq!(report.points, 4);
    }

    #[test]
    fn grid_with_one_bad_point_names_it() {
        let good = MemCtrlConfig::rop(DramConfig::baseline(1), 64, 1);
        let mut bad = MemCtrlConfig::rop(DramConfig::baseline(1), 64, 1);
        bad.rop.as_mut().unwrap().observational_window = bad.dram.timing.t_refi() + 1;
        let report = lint_grid([("good".to_string(), &good), ("bad".to_string(), &bad)]);
        assert!(!report.clean());
        assert!(!report.symbolic);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].0, "bad");
        assert_eq!(report.violations[0].1[0].rule, "rop-window");
    }

    #[test]
    fn nan_threshold_is_rejected() {
        let mut cfg = MemCtrlConfig::rop(DramConfig::baseline(1), 64, 1);
        cfg.rop.as_mut().unwrap().hit_rate_threshold = f64::NAN;
        let vs = lint_config(&cfg);
        assert!(vs.iter().any(|v| v.rule == "rop-threshold"), "{vs:?}");
    }
}
