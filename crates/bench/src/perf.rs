//! Perf-baseline harness: the workload shapes, measurement loop, and
//! machine-readable report behind `BENCH_baseline.json` and the CI
//! `perf-gate` job (see DESIGN.md §14).
//!
//! Four canonical shapes span the engine's regimes:
//!
//! * **memory-light** — compute-bound, long stall-free stretches: the
//!   engine spends its time fast-forwarding, so the fixed cost of each
//!   event-loop jump dominates.
//! * **memory-heavy** — a streaming benchmark saturating the read queue:
//!   completion-queue churn and scheduler passes dominate.
//! * **refresh-heavy** — tREFI shrunk 8× by `ctrl_override`: the run is
//!   wall-to-wall refresh drains, exercising refresh-gate legality scans
//!   and post-refresh catch-up bursts.
//! * **burst-gap** — dense request bursts separated by long idle gaps:
//!   alternates completion churn with deep fast-forwards, so one run
//!   pays both the per-request and the per-jump costs.
//!
//! Throughput is reported as *events/sec* (engine loop iterations per
//! wall-clock second) — cycles/sec inflates with fast-forward span
//! length and says nothing about per-event cost. To keep the CI gate
//! meaningful across machines of different speeds, each report carries a
//! calibration rate (a fixed deterministic hash loop timed on the same
//! machine) and comparisons use the *normalised* score
//! `events_per_sec / calib_ops_per_sec`.

use std::time::Instant;

use rop_sim_system::runner::RunSpec;
use rop_sim_system::{RunMetrics, System, SystemConfig, SystemKind};
use rop_stats::Json;
use rop_trace::Benchmark;

/// One canonical workload shape.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Stable shape name (key in `BENCH_baseline.json`).
    pub name: &'static str,
    /// Benchmark driving the single core.
    pub benchmark: Benchmark,
    /// Memory system under test.
    pub kind: SystemKind,
    /// Fixed-work spec.
    pub spec: RunSpec,
    /// When set, `t_refi_base` is divided by this (refresh-heavy shape).
    pub refresh_divisor: u64,
}

impl Shape {
    /// The system configuration this shape runs.
    pub fn config(&self) -> SystemConfig {
        let mut cfg = SystemConfig::single_core(self.benchmark, self.kind, self.spec.seed);
        if self.refresh_divisor > 1 {
            let mut ctrl = self.kind.memctrl_config(cfg.ranks, cfg.seed);
            ctrl.dram.timing.t_refi_base /= self.refresh_divisor;
            cfg.ctrl_override = Some(ctrl);
        }
        cfg
    }

    /// Runs the shape once and returns its metrics.
    pub fn run(&self) -> RunMetrics {
        let mut sys = System::new(self.config());
        sys.run_until(self.spec.instructions, self.spec.max_cycles)
    }
}

/// The four canonical shapes, in report order.
pub fn shapes() -> Vec<Shape> {
    // Sized so each run takes tens of milliseconds: long enough that
    // min-of-N repeats suppresses scheduler noise, short enough that
    // the whole sweep stays under a few seconds on CI.
    let spec = RunSpec {
        instructions: 1_500_000,
        max_cycles: 200_000_000,
        seed: 42,
    };
    vec![
        Shape {
            // gcc: low MPKI, the engine mostly fast-forwards.
            name: "memory-light",
            benchmark: Benchmark::Gcc,
            kind: SystemKind::Baseline,
            spec: RunSpec {
                instructions: 2_000_000,
                ..spec
            },
            refresh_divisor: 1,
        },
        Shape {
            // libquantum: streaming, queue always occupied.
            name: "memory-heavy",
            benchmark: Benchmark::Libquantum,
            kind: SystemKind::Baseline,
            spec,
            refresh_divisor: 1,
        },
        Shape {
            // libquantum under 8× refresh pressure (tREFI 6240 → 780,
            // still > tRFC1 = 280 so the config stays legal).
            name: "refresh-heavy",
            benchmark: Benchmark::Libquantum,
            kind: SystemKind::Baseline,
            spec,
            refresh_divisor: 8,
        },
        Shape {
            // GemsFDTD: 4096-request bursts separated by ~30k-cycle idle
            // gaps — completion churn alternating with deep jumps.
            name: "burst-gap",
            benchmark: Benchmark::GemsFDTD,
            kind: SystemKind::Baseline,
            spec: RunSpec {
                instructions: 1_800_000,
                ..spec
            },
            refresh_divisor: 1,
        },
    ]
}

/// One measured shape, as recorded in the report.
#[derive(Debug, Clone, PartialEq)]
pub struct ShapeRecord {
    /// Shape name.
    pub name: String,
    /// Fixed-work instruction target of the run.
    pub instructions: u64,
    /// Engine events (loop iterations) of one run — engine-dependent
    /// but deterministic, so identical across repeats.
    pub events: u64,
    /// Simulated cycles of one run.
    pub total_cycles: u64,
    /// Best (minimum) wall-clock seconds over the repeats.
    pub wall_seconds: f64,
    /// `events / wall_seconds`.
    pub events_per_sec: f64,
    /// `total_cycles / wall_seconds`.
    pub cycles_per_sec: f64,
}

/// A full perf report (`BENCH_baseline.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Engine label the numbers were measured on.
    pub engine: String,
    /// Calibration rate of the measuring machine (ops/sec of the fixed
    /// hash loop) — divides events/sec for cross-machine comparison.
    pub calib_ops_per_sec: f64,
    /// Per-shape measurements.
    pub shapes: Vec<ShapeRecord>,
}

impl PerfReport {
    /// The record for `name`, if present.
    pub fn shape(&self, name: &str) -> Option<&ShapeRecord> {
        self.shapes.iter().find(|s| s.name == name)
    }

    /// Machine-normalised score for one shape: events/sec per
    /// calibration op/sec.
    pub fn norm_score(&self, s: &ShapeRecord) -> f64 {
        if self.calib_ops_per_sec <= 0.0 {
            return 0.0;
        }
        s.events_per_sec / self.calib_ops_per_sec
    }

    /// Encodes the report as JSON.
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.push("schema", Json::Str("rop-perf-v1".into()))
            .push("engine", Json::Str(self.engine.clone()))
            .push("calib_ops_per_sec", Json::Num(self.calib_ops_per_sec))
            .push(
                "shapes",
                Json::Arr(
                    self.shapes
                        .iter()
                        .map(|s| {
                            let mut o = Json::obj();
                            o.push("name", Json::Str(s.name.clone()))
                                .push("instructions", Json::Num(s.instructions as f64))
                                .push("events", Json::Num(s.events as f64))
                                .push("total_cycles", Json::Num(s.total_cycles as f64))
                                .push("wall_seconds", Json::Num(s.wall_seconds))
                                .push("events_per_sec", Json::Num(s.events_per_sec))
                                .push("cycles_per_sec", Json::Num(s.cycles_per_sec))
                                .push("norm_score", Json::Num(self.norm_score(s)));
                            o
                        })
                        .collect(),
                ),
            );
        j
    }

    /// Decodes a report (strict about types, lenient about missing
    /// fields, like the metrics store).
    pub fn from_json(j: &Json) -> Result<PerfReport, String> {
        if !matches!(j, Json::Obj(_)) {
            return Err("perf report: expected object".into());
        }
        let get_f = |o: &Json, k: &str| o.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let get_u = |o: &Json, k: &str| o.get(k).and_then(Json::as_u64).unwrap_or(0);
        let shapes = j
            .get("shapes")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|o| ShapeRecord {
                name: o
                    .get("name")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                instructions: get_u(o, "instructions"),
                events: get_u(o, "events"),
                total_cycles: get_u(o, "total_cycles"),
                wall_seconds: get_f(o, "wall_seconds"),
                events_per_sec: get_f(o, "events_per_sec"),
                cycles_per_sec: get_f(o, "cycles_per_sec"),
            })
            .collect();
        Ok(PerfReport {
            engine: j
                .get("engine")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            calib_ops_per_sec: get_f(j, "calib_ops_per_sec"),
            shapes,
        })
    }
}

/// Measures one shape: `repeats` deterministic runs, best wall time
/// wins. `handicap_pct` inflates the measured wall time by that
/// percentage — the knob the CI-gate self-test uses to prove the gate
/// fails on an injected slowdown.
pub fn measure(shape: &Shape, repeats: usize, handicap_pct: f64) -> ShapeRecord {
    let mut best: Option<RunMetrics> = None;
    for _ in 0..repeats.max(1) {
        let m = shape.run();
        assert!(!m.hit_cycle_cap, "{}: hit cycle cap", shape.name);
        let better = best
            .as_ref()
            .map(|b| m.wall_seconds < b.wall_seconds)
            .unwrap_or(true);
        if better {
            best = Some(m);
        }
    }
    let m = best.expect("at least one run");
    let wall = m.wall_seconds * (1.0 + handicap_pct / 100.0);
    ShapeRecord {
        name: shape.name.to_string(),
        instructions: shape.spec.instructions,
        events: m.events,
        total_cycles: m.total_cycles,
        wall_seconds: wall,
        events_per_sec: if wall > 0.0 {
            m.events as f64 / wall
        } else {
            0.0
        },
        cycles_per_sec: if wall > 0.0 {
            m.total_cycles as f64 / wall
        } else {
            0.0
        },
    }
}

/// Times a fixed deterministic workload (FNV-1a over a 1 MiB buffer)
/// and returns ops/sec. Dividing a shape's events/sec by this yields a
/// score that is roughly machine-independent, which is what makes a
/// checked-in baseline comparable on CI runners of different speeds.
pub fn calibrate() -> f64 {
    const BUF: usize = 1 << 20;
    let buf: Vec<u8> = (0..BUF).map(|i| (i * 131) as u8).collect();
    // Warm-up pass, then measure ~0.2 s.
    let mut acc = fnv_pass(&buf, 0xcbf2_9ce4_8422_2325);
    let start = Instant::now();
    let mut ops = 0u64;
    while start.elapsed().as_secs_f64() < 0.2 {
        acc = fnv_pass(&buf, acc);
        ops += BUF as u64;
    }
    std::hint::black_box(acc);
    ops as f64 / start.elapsed().as_secs_f64()
}

fn fnv_pass(buf: &[u8], seed: u64) -> u64 {
    let mut h = seed | 1;
    for &b in buf {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// A regression found by [`compare`].
#[derive(Debug, Clone)]
pub struct Regression {
    /// Shape that regressed.
    pub shape: String,
    /// Baseline normalised score.
    pub baseline_score: f64,
    /// Fresh normalised score.
    pub fresh_score: f64,
    /// Fractional slowdown (0.12 = 12% slower).
    pub slowdown: f64,
}

/// Compares a fresh report against the checked-in baseline: any shape
/// whose normalised score dropped by more than `tolerance` (fraction,
/// e.g. 0.10) is a regression. Shapes present only on one side are
/// ignored — adding a shape must not fail old baselines.
pub fn compare(baseline: &PerfReport, fresh: &PerfReport, tolerance: f64) -> Vec<Regression> {
    let mut out = Vec::new();
    for b in &baseline.shapes {
        let Some(f) = fresh.shape(&b.name) else {
            continue;
        };
        let bs = baseline.norm_score(b);
        let fs = fresh.norm_score(f);
        if bs <= 0.0 {
            continue;
        }
        let slowdown = 1.0 - fs / bs;
        if slowdown > tolerance {
            out.push(Regression {
                shape: b.name.clone(),
                baseline_score: bs,
                fresh_score: fs,
                slowdown,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_are_well_formed() {
        let s = shapes();
        assert_eq!(s.len(), 4);
        let names: Vec<_> = s.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["memory-light", "memory-heavy", "refresh-heavy", "burst-gap"]
        );
        for shape in &s {
            shape.config().validate().expect(shape.name);
        }
        // The refresh-heavy override must actually shrink tREFI.
        let rh = &s[2];
        let ctrl = rh.config().ctrl_override.expect("override present");
        assert_eq!(ctrl.dram.timing.t_refi_base, 6240 / 8);
        assert!(ctrl.dram.timing.t_rfc1 < ctrl.dram.timing.t_refi_base);
    }

    #[test]
    fn report_json_roundtrip() {
        let report = PerfReport {
            engine: "timing-wheel".into(),
            calib_ops_per_sec: 1.5e9,
            shapes: vec![ShapeRecord {
                name: "memory-light".into(),
                instructions: 300_000,
                events: 123_456,
                total_cycles: 2_000_000,
                wall_seconds: 0.25,
                events_per_sec: 493_824.0,
                cycles_per_sec: 8_000_000.0,
            }],
        };
        let text = report.to_json().render();
        let back = PerfReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json().render(), text);
    }

    #[test]
    fn checked_in_baseline_still_loads() {
        // The baseline still carries the retired heap-engine keys
        // (`heap_events_per_sec`, `speedup_vs_heap`); the reader skips them.
        let text = include_str!("../../../BENCH_baseline.json");
        let report = PerfReport::from_json(&Json::parse(text).unwrap()).unwrap();
        assert_eq!(report.shapes.len(), shapes().len());
        assert!(report.shapes.iter().all(|s| report.norm_score(s) > 0.0));
    }

    #[test]
    fn compare_flags_only_regressions_beyond_tolerance() {
        let mk = |eps: f64| PerfReport {
            engine: "e".into(),
            calib_ops_per_sec: 1e9,
            shapes: vec![ShapeRecord {
                name: "memory-heavy".into(),
                instructions: 1,
                events: 1,
                total_cycles: 1,
                wall_seconds: 1.0,
                events_per_sec: eps,
                cycles_per_sec: 1.0,
            }],
        };
        let base = mk(1000.0);
        // 5% slower: within a 10% tolerance.
        assert!(compare(&base, &mk(950.0), 0.10).is_empty());
        // 20% slower: flagged.
        let regs = compare(&base, &mk(800.0), 0.10);
        assert_eq!(regs.len(), 1);
        assert!(regs[0].slowdown > 0.19 && regs[0].slowdown < 0.21);
        // Faster is never a regression.
        assert!(compare(&base, &mk(2000.0), 0.10).is_empty());
        // Unknown shapes on either side are ignored.
        let mut extra = mk(1000.0);
        extra.shapes[0].name = "novel".into();
        assert!(compare(&base, &extra, 0.10).is_empty());
        assert!(compare(&extra, &base, 0.10).is_empty());
    }

    #[test]
    fn measure_handicap_inflates_wall_time() {
        // Use the cheapest shape, but keep the run long enough that
        // real work dominates the wall clock: sub-millisecond runs see
        // 4x scheduler noise on a loaded box, which would flip the
        // comparison below. Three repeats each so measure()'s
        // min-of-repeats also discards cold-start outliers.
        let mut shape = shapes().remove(0);
        shape.spec.instructions = 200_000;
        let plain = measure(&shape, 3, 0.0);
        let slow = measure(&shape, 3, 300.0);
        assert_eq!(plain.events, slow.events);
        assert!(slow.wall_seconds > 0.0);
        // The handicap divides straight into the rate.
        assert!(slow.events_per_sec < plain.events_per_sec);
    }
}
