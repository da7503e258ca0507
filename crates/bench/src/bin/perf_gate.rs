//! Perf-baseline recorder and CI regression gate.
//!
//! ```text
//! perf_gate record [--out PATH] [--engine LABEL] [--repeats N]
//!                  [--handicap PCT]
//! perf_gate check  [--baseline PATH] [--out PATH] [--tolerance PCT]
//!                  [--repeats N] [--handicap PCT]
//! ```
//!
//! `record` measures every workload shape and writes a perf report
//! (default `BENCH_baseline.json`).
//!
//! `check` re-measures, writes the fresh report (for artifact upload),
//! and exits non-zero when any shape's machine-normalised score drops
//! more than the tolerance (default 10%) below the baseline. A first
//! pass that finds regressions is re-run once with doubled repeats
//! before the gate fails: co-tenant noise on shared CI runners is
//! bursty and usually clears between passes, while a real slowdown in
//! the engine fails both. `--handicap PCT` injects an artificial
//! slowdown into every measurement (both passes) — the self-test
//! proving the gate actually fails.

use std::process::ExitCode;

use rop_bench::perf::{calibrate, compare, measure, shapes, PerfReport};
use rop_stats::Json;

fn parse_flag(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn load_report(path: &str) -> Result<PerfReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    PerfReport::from_json(&json)
}

fn measure_all(engine: &str, repeats: usize, handicap_pct: f64) -> PerfReport {
    let calib = calibrate();
    eprintln!("# calibration: {calib:.3e} ops/sec");
    let mut report = PerfReport {
        engine: engine.to_string(),
        calib_ops_per_sec: calib,
        shapes: Vec::new(),
    };
    for shape in shapes() {
        let rec = measure(&shape, repeats, handicap_pct);
        eprintln!(
            "# {:<14} {:>10} events  {:>12.0} events/sec  {:>12.0} cycles/sec",
            rec.name, rec.events, rec.events_per_sec, rec.cycles_per_sec
        );
        report.shapes.push(rec);
    }
    report
}

fn write_report(report: &PerfReport, path: &str) -> Result<(), String> {
    let mut text = report.to_json().render();
    text.push('\n');
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str).unwrap_or("help");
    let repeats: usize = parse_flag(&args, "--repeats")
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let handicap: f64 = parse_flag(&args, "--handicap")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);
    match mode {
        "record" => {
            let out = parse_flag(&args, "--out").unwrap_or("BENCH_baseline.json".into());
            let engine = parse_flag(&args, "--engine").unwrap_or("timing-wheel".into());
            let report = measure_all(&engine, repeats, handicap);
            if let Err(e) = write_report(&report, &out) {
                eprintln!("perf_gate: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("# wrote {out}");
            ExitCode::SUCCESS
        }
        "check" => {
            let baseline_path =
                parse_flag(&args, "--baseline").unwrap_or("BENCH_baseline.json".into());
            let tolerance = parse_flag(&args, "--tolerance")
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(10.0)
                / 100.0;
            let baseline = match load_report(&baseline_path) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("perf_gate: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut fresh = measure_all(&baseline.engine, repeats, handicap);
            let mut regressions = compare(&baseline, &fresh, tolerance);
            if !regressions.is_empty() {
                eprintln!(
                    "# {} suspect shape(s) on first pass; re-measuring \
                     with {} repeats",
                    regressions.len(),
                    repeats * 2
                );
                fresh = measure_all(&baseline.engine, repeats * 2, handicap);
                regressions = compare(&baseline, &fresh, tolerance);
            }
            if let Some(out) = parse_flag(&args, "--out") {
                if let Err(e) = write_report(&fresh, &out) {
                    eprintln!("perf_gate: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("# wrote {out}");
            }
            for r in &regressions {
                eprintln!(
                    "PERF REGRESSION {}: {:.1}% slower than baseline \
                     (normalised score {:.4e} -> {:.4e}, tolerance {:.0}%)",
                    r.shape,
                    r.slowdown * 100.0,
                    r.baseline_score,
                    r.fresh_score,
                    tolerance * 100.0
                );
            }
            if regressions.is_empty() {
                eprintln!(
                    "# perf gate clean: {} shapes within {:.0}% of baseline",
                    baseline.shapes.len(),
                    tolerance * 100.0
                );
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => {
            eprintln!(
                "usage: perf_gate record [--out PATH] [--engine LABEL] \
                 [--repeats N] [--handicap PCT]\n       \
                 perf_gate check [--baseline PATH] [--out PATH] [--tolerance PCT] \
                 [--repeats N] [--handicap PCT]"
            );
            ExitCode::FAILURE
        }
    }
}
