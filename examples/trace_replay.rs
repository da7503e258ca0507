//! Trace capture and replay: snapshot a synthetic workload into the
//! portable text trace format, then replay it through the ROP memory
//! system — the integration path for users with *real* traces
//! (Pin/DynamoRIO captures use the same three-column shape).
//!
//! ```text
//! cargo run --release --example trace_replay [records]
//! ```

use rop_sim::cache::{Cache, CacheConfig};
use rop_sim::cpu::{Core, CoreConfig, MemOp, SubmitResult};
use rop_sim::dram::DramConfig;
use rop_sim::memctrl::{MemController, MemCtrlConfig};
use rop_sim::trace::{capture, write_trace, Benchmark, ReplayWorkload};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(50_000);

    // 1. Capture a snapshot of the synthetic gcc stand-in.
    let mut source = Benchmark::Gcc.workload(42);
    let records = capture(&mut source, n);
    let path = std::env::temp_dir().join("rop_gcc_snapshot.trace");
    write_trace(
        std::fs::File::create(&path).expect("create trace file"),
        "gcc-snapshot",
        &records,
    )
    .expect("write trace");
    println!("captured {n} records to {}", path.display());

    // 2. Replay it through a core + LLC + ROP controller.
    let replay = ReplayWorkload::from_file(&path).expect("load trace");
    let mut core = Core::new(CoreConfig::default_ooo(), replay);
    let mut llc = Cache::new(CacheConfig::llc_2mb());
    let mut ctrl = MemController::new(MemCtrlConfig::rop(DramConfig::baseline(1), 64, 42));

    let mut inflight: Vec<rop_sim::memctrl::Completion> = Vec::new();
    let target = (n as u64) * 20; // roughly one full pass of the trace
    let mut now = 0u64;
    while core.stats().instructions < target && now < 500_000_000 {
        inflight.retain(|c| {
            if c.done_at <= now {
                core.complete_read(c.id);
                false
            } else {
                true
            }
        });
        core.tick(|op| {
            let (addr, write) = match op {
                MemOp::Read { addr } => (addr, false),
                MemOp::Write { addr } => (addr, true),
            };
            let line = addr / 64;
            if llc.contains(line) {
                llc.access(line, write);
                return SubmitResult::LlcHit;
            }
            if write {
                if let rop_sim::cache::AccessOutcome::Miss {
                    writeback: Some(victim),
                } = llc.access(line, true)
                {
                    if !ctrl.enqueue_write(victim, 0, now) {
                        return SubmitResult::Retry;
                    }
                }
                SubmitResult::QueuedWrite
            } else {
                match ctrl.enqueue_read(line, 0, now) {
                    Some(id) => {
                        llc.access(line, false);
                        SubmitResult::QueuedRead(id)
                    }
                    None => SubmitResult::Retry,
                }
            }
        });
        ctrl.tick(now);
        ctrl.drain_completions_into(&mut inflight);
        now += 1;
    }

    let s = core.stats();
    println!(
        "replayed: {} instructions in {} cycles (IPC {:.3}), {} DRAM reads, {} refreshes, {} prefetches",
        s.instructions,
        now,
        s.instructions as f64 / (now * 4) as f64,
        s.read_misses,
        ctrl.refreshes_issued(0),
        ctrl.stats().prefetches_issued,
    );
    std::fs::remove_file(&path).ok();
}
