//! The refresh-mechanism zoo, head to head: all-bank auto-refresh,
//! DARP (out-of-order per-bank pull-in), SARP (subarray-level
//! parallelism) and RAIDR (retention-aware binning) on one benchmark,
//! on the stock DDR4 timing and on a refresh-heavy tREFI/8 shape where
//! the mechanisms actually separate.
//!
//! ```text
//! cargo run --release --example refresh_mechanisms [benchmark] [instructions]
//! ```

use rop_sim::sim::experiments::run_mechanisms_with;
use rop_sim::sim::runner::{LocalExecutor, RunSpec};
use rop_sim::trace::{Benchmark, ALL_BENCHMARKS};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let bench = args
        .get(1)
        .map(|name| {
            ALL_BENCHMARKS
                .into_iter()
                .find(|b| b.name().eq_ignore_ascii_case(name))
                .unwrap_or_else(|| {
                    eprintln!("unknown benchmark {name}");
                    std::process::exit(2);
                })
        })
        .unwrap_or(Benchmark::Libquantum);
    let instructions: u64 = args
        .get(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_000_000);

    let spec = RunSpec {
        instructions,
        max_cycles: 4_000_000_000,
        seed: 42,
    };
    println!(
        "=== {} — refresh-mechanism head-to-head ===\n",
        bench.name()
    );
    let res = run_mechanisms_with(&[bench], spec, &LocalExecutor);
    println!("{}", res.render_ipc());
    println!("{}", res.render_blocked());
    println!("{}", res.render_energy());
    println!("{}", res.render_refresh_counts());

    // Pull the refresh-heavy row out for a one-line verdict.
    let heavy = &res.shapes[1].rows[0];
    let blocked: Vec<u64> = heavy
        .per_mechanism
        .iter()
        .map(|m| m.refresh_blocked_cycles)
        .collect();
    println!(
        "refresh-heavy blocking: all-bank {} cycles, DARP {} ({:+.1}%), SARP {} ({:+.1}%), RAIDR {} ({:+.1}%)",
        blocked[0],
        blocked[1],
        (blocked[1] as f64 / blocked[0] as f64 - 1.0) * 100.0,
        blocked[2],
        (blocked[2] as f64 / blocked[0] as f64 - 1.0) * 100.0,
        blocked[3],
        (blocked[3] as f64 / blocked[0] as f64 - 1.0) * 100.0,
    );
}
