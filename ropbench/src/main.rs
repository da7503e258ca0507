//! End-to-end and per-layer benchmark of the ROP simulator.
//!
//! ```text
//! ropbench --workload <closed-rop|openloop-knee|sweep-resume> --seed N
//!          --seconds S --trace <0|1> [--work-dir DIR]
//! ropbench --selftest [--seed N] [--work-dir DIR]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` measures the
//! end-to-end metrics; `--trace 1` runs the traced replicas and prints the
//! per-layer metrics. `--selftest` plants a known delay in one of the
//! benchmark's own wrappers and checks that the trace names that layer.
//! See README.md beside this crate.

mod closed;
mod common;
mod gate;
mod layers;
mod openloop;
mod sweep;
mod tracer;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use common::Outcome;
use layers::LayerCounts;
use tracer::Layer;

/// Span records kept in memory for the span log (the aggregates cover
/// every span).
const SPAN_LOG_CAP: usize = 100_000;

const WORKLOADS: [&str; 3] = ["closed-rop", "openloop-knee", "sweep-resume"];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selftest: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        selftest: false,
        work_dir: PathBuf::from(".ropbench_work"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--work-dir" => a.work_dir = PathBuf::from(value()?),
            "--selftest" => a.selftest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &a.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w} (expected one of {})",
                WORKLOADS.join(", ")
            ));
        }
    } else if !a.selftest {
        return Err("--workload is required".into());
    }
    Ok(a)
}

/// One traced run of `workload` with `plant` busy-waited in its planted
/// wrapper; the tracer is left enabled for the caller to read.
fn traced(workload: &str, seed: u64, work: &Path, plant: Duration) -> Result<LayerCounts, String> {
    tracer::enable(SPAN_LOG_CAP);
    let mut counts = LayerCounts::default();
    match workload {
        // openloop-knee is not listed in BENCHMARK.json (its host time
        // follows its seed too closely to be timed against a 25% bound),
        // so closed-rop's traced run also replicates the open-loop knee
        // jobs: the layers only open-loop traffic reaches (the frontend,
        // forced steps, DARP/SARP/RAIDR) are then measured on a listed
        // workload.
        "closed-rop" => {
            closed::traced(seed, plant, &mut counts)?;
            openloop::traced(seed, plant, &mut counts)?;
        }
        "openloop-knee" => openloop::traced(seed, plant, &mut counts)?,
        _ => return sweep::traced(seed, work, plant),
    }
    Ok(counts)
}

fn run(a: &Args) -> Result<Outcome, String> {
    let workload = a.workload.as_deref().expect("checked by parse_args");
    if !a.trace {
        return match workload {
            "closed-rop" => closed::run(a.seed, a.seconds),
            "openloop-knee" => openloop::run(a.seed, a.seconds),
            _ => sweep::run(a.seed, a.seconds, &a.work_dir),
        };
    }
    let counts = traced(workload, a.seed, &a.work_dir, Duration::ZERO)?;
    let mut out = Outcome {
        attempted: counts.jobs,
        ..Outcome::default()
    };
    layers::report(&counts, &mut out);
    let log = a.work_dir.join(format!("spans-{workload}.jsonl"));
    tracer::write_log(&log).map_err(|e| format!("{}: {e}", log.display()))?;
    eprintln!("# span log: {}", log.display());
    tracer::disable();
    Ok(out)
}

/// The planted layer of each self-tested workload and the delay per call.
const PLANTS: [(&str, Layer, Duration); 2] = [
    ("closed-rop", Layer::Trace, Duration::from_micros(3)),
    ("sweep-resume", Layer::StoreLoad, Duration::from_millis(20)),
];

/// Planted-slowdown self-test: for each planted wrapper, the traced run
/// with the delay must show the extra self time in that layer (at least
/// 70% of the delay planted) and in no other layer (each other layer's
/// self time grows by under 25% of it).
fn selftest(a: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    for (workload, planted, delay) in PLANTS {
        let base = self_times(workload, a, Duration::ZERO)?;
        let slow = self_times(workload, a, delay)?;
        let calls = slow.iter().find(|(l, ..)| *l == planted).map_or(0, |x| x.1);
        let expected = calls as f64 * delay.as_secs_f64();
        let mut named = None;
        let mut worst_other = 0.0f64;
        for ((layer, _, b), (_, _, s)) in base.iter().zip(&slow) {
            let delta = s - b;
            eprintln!(
                "# selftest {workload}: {:<16} self {b:9.4}s -> {s:9.4}s  (+{delta:.4}s)",
                layer.name()
            );
            if named.is_none_or(|(_, d)| delta > d) {
                named = Some((*layer, delta));
            }
            if *layer != planted {
                worst_other = worst_other.max(delta);
            }
        }
        let (named, got) = named.expect("layers exist");
        eprintln!(
            "# selftest {workload}: planted {} ({expected:.4}s over {calls} calls), trace names {} (+{got:.4}s); largest other growth +{worst_other:.4}s",
            planted.name(),
            named.name()
        );
        out.attempted += 1;
        let ok = named == planted && got >= 0.7 * expected && worst_other < 0.25 * expected;
        if !ok {
            out.failed += 1;
            out.fail(format!(
                "{workload}: planted {}, trace named {}",
                planted.name(),
                named.name()
            ));
        }
        out.push(&format!("selftest.{workload}.expected_s"), expected, "s");
        out.push(&format!("selftest.{workload}.named_delta_s"), got, "s");
        out.push(
            &format!("selftest.{workload}.other_max_s"),
            worst_other,
            "s",
        );
    }
    Ok(out)
}

/// Per-layer (calls, self seconds) of one traced run.
fn self_times(workload: &str, a: &Args, plant: Duration) -> Result<Vec<(Layer, u64, f64)>, String> {
    traced(workload, a.seed, &a.work_dir, plant)?;
    let t = tracer::totals()
        .into_iter()
        .map(|(l, t)| (l, t.calls, t.self_time.as_secs_f64()))
        .collect();
    tracer::disable();
    Ok(t)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ropbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.selftest {
        selftest(&args)
    } else {
        run(&args)
    };
    match result {
        Ok(out) => {
            for f in &out.failures {
                eprintln!("# check failed: {f}");
            }
            println!("{}", out.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ropbench: {e}");
            ExitCode::FAILURE
        }
    }
}
