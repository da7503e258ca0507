//! Open-loop datacenter traffic: tail latency vs offered load.
//!
//! Drives the open-loop injector — seeded arrivals with no core
//! back-pressure, four tenants pinned to four ranks — across a grid of
//! offered loads and arrival processes, for all four refresh
//! mechanisms. This is where refresh costs live in the tail: a
//! 280-cycle tRFC freeze barely moves the mean read latency but parks
//! an entire arrival burst behind it, so all-bank refresh shows up in
//! p99/p999 while DARP/SARP/RAIDR flatten the curve.
//!
//! ```text
//! cargo run --release --example tail_latency [window_cycles]
//! ```

use rop_sim::sim::experiments::run_tail_latency_with;
use rop_sim::sim::runner::{LocalExecutor, RunSpec};

fn main() {
    let window: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(400_000);

    // Open-loop runs retire no instructions; the instruction quota is
    // reused as the observation window in cycles (~64 refresh
    // intervals per rank at the default).
    let spec = RunSpec {
        instructions: window,
        max_cycles: 4_000_000_000,
        seed: 42,
    };
    println!("=== open-loop tail latency, {window}-cycle windows ===\n");
    let res = run_tail_latency_with(spec, &LocalExecutor);
    println!("{}", res.render_tail());
    println!("{}", res.render_refresh_tail());
    println!("{}", res.render_saturation());

    // One-line verdict: the poisson near-saturation row, all-bank vs
    // the best alternative mechanism.
    let row = res
        .rows
        .iter()
        .find(|r| r.process == "poisson" && r.offered_rpkc == 240.0)
        .expect("poisson/240 row");
    let p999: Vec<u64> = row
        .per_mechanism
        .iter()
        .map(|m| m.open_loop.as_ref().expect("open-loop metrics"))
        .map(|o| o.read_latency.p999())
        .collect();
    let best = p999[1..].iter().copied().min().unwrap_or(p999[0]);
    println!(
        "poisson @ 240 rpkc: all-bank p999 {} cycles, best mechanism p999 {} ({:+.1}%)",
        p999[0],
        best,
        (best as f64 / p999[0] as f64 - 1.0) * 100.0,
    );
}
