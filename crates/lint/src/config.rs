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
//! Every rule is a plain predicate over one concrete config's
//! [`Facts`], evaluated once per job: a grid of a few hundred configs
//! costs a few thousand comparisons. A non-finite field (a NaN
//! threshold) fails every comparison it takes part in, so it decides
//! against the config.

use rop_core::RopConfig;
use rop_dram::{Geometry, TimingParams};
use rop_memctrl::{MechanismKind, MemCtrlConfig};
use rop_sim_system::runner::SweepJob;
use rop_sim_system::OpenLoopSpec;

/// What the rules read of one concrete job config.
#[derive(Debug, Clone, Copy)]
pub struct Facts<'a> {
    /// DRAM timing (memory-clock cycles).
    pub t: &'a TimingParams,
    /// DRAM geometry.
    pub g: &'a Geometry,
    /// The resolved controller config (queues, refresh mechanism, ROP
    /// block).
    pub ctrl: &'a MemCtrlConfig,
    /// Open-loop injector spec (absent on closed-loop jobs — every
    /// `mc-openloop-*` rule is vacuous then). Only [`lint_jobs`] sets
    /// it: the spec lives on the system config, not the controller
    /// config.
    pub open_loop: Option<&'a OpenLoopSpec>,
}

impl<'a> Facts<'a> {
    /// Facts for one controller config and optional open-loop spec.
    pub fn new(ctrl: &'a MemCtrlConfig, open_loop: Option<&'a OpenLoopSpec>) -> Self {
        Facts {
            t: &ctrl.dram.timing,
            g: &ctrl.dram.geometry,
            ctrl,
            open_loop,
        }
    }

    /// Applies a predicate to the ROP block; absent ROP is vacuously
    /// true.
    fn rop(&self, pred: impl Fn(&RopConfig) -> bool) -> bool {
        self.ctrl.rop.as_ref().is_none_or(pred)
    }

    /// Applies a predicate to the open-loop block; closed-loop jobs (no
    /// block) are vacuously legal.
    fn ol(&self, pred: impl Fn(&OpenLoopSpec) -> bool) -> bool {
        self.open_loop.is_none_or(pred)
    }
}

/// One declarative constraint.
pub struct Rule {
    /// Stable identifier reported on violation (e.g. `tim-ras`).
    pub id: &'static str,
    /// One-line statement of the invariant.
    pub summary: &'static str,
    /// The invariant over one concrete config.
    pub check: fn(&Facts) -> bool,
}

/// The full rule catalog, in reporting order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "tim-ras",
        summary: "tRAS must cover tRCD plus one burst (a row must stay open long enough to read)",
        check: |f| f.t.t_ras >= f.t.t_rcd + f.t.burst_cycles(),
    },
    Rule {
        id: "tim-rc",
        summary: "tRC must be at least tRAS + tRP (row cycle composes activate and precharge)",
        check: |f| f.t.t_rc >= f.t.t_ras + f.t.t_rp,
    },
    Rule {
        id: "tim-rrd-faw",
        summary: "tFAW must be at least tRRD (four-activate window cannot undercut one gap)",
        check: |f| f.t.t_faw >= f.t.t_rrd,
    },
    Rule {
        id: "tim-fgr-mono",
        summary: "tRFC must shrink monotonically with finer refresh granularity (tRFC1 >= tRFC2 >= tRFC4 > 0)",
        check: |f| f.t.t_rfc1 >= f.t.t_rfc2 && f.t.t_rfc2 >= f.t.t_rfc4 && f.t.t_rfc4 > 0,
    },
    Rule {
        id: "tim-refpb",
        summary: "per-bank refresh (tRFCpb) must be shorter than all-bank tRFC1",
        check: |f| f.t.t_rfc_pb < f.t.t_rfc1,
    },
    Rule {
        id: "tim-refsa",
        summary: "subarray refresh (tRFCsa) must be positive and shorter than per-bank tRFCpb (completing the tRFCsa < tRFCpb < tRFC chain)",
        check: |f| f.t.t_rfc_sa > 0 && f.t.t_rfc_sa < f.t.t_rfc_pb,
    },
    Rule {
        id: "tim-duty",
        summary: "tRFC must be smaller than tREFI (refresh duty cycle < 1, or the rank never serves)",
        check: |f| f.t.t_rfc() < f.t.t_refi(),
    },
    Rule {
        id: "mc-postpone",
        summary: "refresh postpone budget must stay within JEDEC's 8 x tREFI",
        check: |f| f.ctrl.max_refresh_postpone <= f.t.t_refi().saturating_mul(8),
    },
    Rule {
        id: "mc-queues",
        summary: "read and write queues must hold at least one request",
        check: |f| f.ctrl.read_queue_capacity >= 1 && f.ctrl.write_queue_capacity >= 1,
    },
    Rule {
        id: "mc-drain",
        summary: "write-drain watermarks must satisfy low < high <= write-queue capacity",
        check: |f| {
            f.ctrl.write_drain_low < f.ctrl.write_drain_high
                && f.ctrl.write_drain_high <= f.ctrl.write_queue_capacity
        },
    },
    Rule {
        id: "mc-grace",
        summary: "prefetch grace must stay under one tREFI (bounded refresh delay per JEDEC slack)",
        check: |f| f.ctrl.prefetch_grace < f.t.t_refi(),
    },
    Rule {
        id: "geo-pow2",
        summary: "geometry dimensions must be powers of two (shift/mask address decode), ranks >= 1",
        check: |f| {
            f.g.banks_per_rank.is_power_of_two()
                && f.g.rows_per_bank.is_power_of_two()
                && f.g.lines_per_row.is_power_of_two()
                && f.g.line_bytes.is_power_of_two()
                && f.g.ranks >= 1
        },
    },
    Rule {
        id: "geo-subarrays",
        summary: "subarrays per bank must be a power of two no larger than the rows per bank",
        check: |f| {
            f.g.subarrays_per_bank.is_power_of_two()
                && f.g.subarrays_per_bank <= f.g.rows_per_bank
        },
    },
    Rule {
        id: "mc-raidr-bins",
        summary: "RAIDR bin period must be a positive multiple of tREFI (retention rounds align to refresh slots)",
        check: |f| match f.ctrl.mechanism {
            MechanismKind::Raidr { bin_period, .. } => {
                let refi = f.t.t_refi();
                refi > 0 && bin_period > 0 && bin_period % refi == 0
            }
            _ => true,
        },
    },
    Rule {
        id: "rop-window",
        summary: "observational window must be positive and shorter than tREFI",
        check: |f| {
            f.rop(|r| r.observational_window > 0 && r.observational_window < f.t.t_refi())
        },
    },
    Rule {
        id: "rop-period",
        summary: "profiled refresh period must be positive and shorter than tREFI",
        check: |f| f.rop(|r| r.refresh_period > 0 && r.refresh_period < f.t.t_refi()),
    },
    Rule {
        id: "rop-threshold",
        summary: "hit-rate fallback threshold must lie in [0, 1] (it gates a probability)",
        check: |f| f.rop(|r| (0.0..=1.0).contains(&r.hit_rate_threshold)),
    },
    Rule {
        id: "rop-capacity",
        summary: "SRAM buffer must hold at least one line per bank (Equation 3 apportions per bank)",
        check: |f| f.rop(|r| r.buffer_capacity >= r.banks_per_rank),
    },
    Rule {
        id: "rop-training",
        summary: "training must observe at least one refresh and demand at least one hit-rate sample",
        check: |f| f.rop(|r| r.training_refreshes >= 1 && r.hit_rate_min_samples >= 1),
    },
    Rule {
        id: "mc-openloop-load",
        summary: "offered open-loop load must stay under the data-bus service ceiling (offered x burst <= 1000 cycles per kilo-cycle)",
        check: |f| f.ol(|o| o.offered_rpkc * f.t.burst_cycles() as f64 <= 1000.0),
    },
    Rule {
        id: "mc-openloop-tenants",
        summary: "open-loop tenants must number at least one and at most the rank count (one rank partition each)",
        check: |f| f.ol(|o| o.tenants >= 1 && o.tenants <= f.g.ranks),
    },
    Rule {
        id: "mc-openloop-duration",
        summary: "open-loop observation window must span at least two tREFI (tail quantiles need refresh activity in frame)",
        check: |f| f.ol(|o| o.duration >= f.t.t_refi().saturating_mul(2)),
    },
    Rule {
        id: "mc-openloop-write",
        summary: "open-loop write fraction must be a probability in [0, 1]",
        check: |f| f.ol(|o| (0.0..=1.0).contains(&o.write_fraction)),
    },
    Rule {
        id: "rop-banks-match",
        summary: "ROP prediction table must cover exactly the DRAM banks per rank",
        check: |f| f.rop(|r| r.banks_per_rank == f.g.banks_per_rank),
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

/// Every rule the facts violate, in catalog order.
fn violations(facts: &Facts) -> Vec<Violation> {
    RULES
        .iter()
        .filter(|r| !(r.check)(facts))
        .map(|r| Violation {
            rule: r.id,
            summary: r.summary,
        })
        .collect()
}

/// Checks one concrete configuration against the full catalog.
pub fn lint_config(cfg: &MemCtrlConfig) -> Vec<Violation> {
    violations(&Facts::new(cfg, None))
}

/// Outcome of vetting a set of configs (a sweep grid).
#[derive(Debug, Clone)]
pub struct GridReport {
    /// Number of configs vetted.
    pub points: usize,
    /// Violations, labeled by config.
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

    /// Records one config's violations, if it has any.
    fn push(&mut self, label: &str, facts: &Facts) {
        self.points += 1;
        let vs = violations(facts);
        if !vs.is_empty() {
            self.violations.push((label.to_string(), vs));
        }
    }
}

/// Vets a labeled set of configurations, each against the full catalog.
pub fn lint_grid<'a>(configs: impl IntoIterator<Item = (String, &'a MemCtrlConfig)>) -> GridReport {
    let mut report = GridReport {
        points: 0,
        violations: Vec::new(),
    };
    for (label, cfg) in configs {
        report.push(&label, &Facts::new(cfg, None));
    }
    report
}

/// Vets every job of a sweep before anything is dispatched: the full
/// rule catalog over each job's resolved controller config and
/// open-loop spec, plus system-level shape checks
/// (`SystemConfig::validate`).
pub fn lint_jobs(jobs: &[SweepJob]) -> GridReport {
    let mut report = GridReport {
        points: 0,
        violations: Vec::new(),
    };
    for job in jobs {
        let ctrl = job.config.ctrl_config();
        report.push(
            &job.label,
            &Facts::new(&ctrl, job.config.open_loop.as_ref()),
        );
    }
    // Shape errors (core/rank mismatches, empty benchmark lists) are not
    // catalog rules; report them under a pseudo-rule.
    for job in jobs {
        if job.config.validate().is_err() {
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
    fn grid_with_one_bad_point_names_it() {
        let good = MemCtrlConfig::rop(DramConfig::baseline(1), 64, 1);
        let mut bad = MemCtrlConfig::rop(DramConfig::baseline(1), 64, 1);
        bad.rop.as_mut().unwrap().observational_window = bad.dram.timing.t_refi() + 1;
        let report = lint_grid([("good".to_string(), &good), ("bad".to_string(), &bad)]);
        assert!(!report.clean());
        assert_eq!(report.points, 2);
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
