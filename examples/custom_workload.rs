//! Using the library on a workload the paper never saw: define a custom
//! synthetic access pattern, attach it to a core, and drive the ROP
//! memory system directly — the integration path a downstream user would
//! take to evaluate refresh-oriented prefetching on their own traffic.
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```

use rop_sim::cache::{Cache, CacheConfig};
use rop_sim::cpu::{Core, CoreConfig, MemOp, SubmitResult};
use rop_sim::dram::DramConfig;
use rop_sim::memctrl::{MemController, MemCtrlConfig};
use rop_sim::trace::{AddressPattern, SyntheticWorkload, WorkloadParams};

fn main() {
    // A "telemetry ingest" style workload: two interleaved streams — a
    // hot ring buffer (LLC-resident) and a cold append-only log with a
    // strided layout — in bursts with long quiet gaps.
    let params = WorkloadParams {
        name: "telemetry-ingest",
        intensive: true,
        pattern: AddressPattern::MultiDelta {
            deltas: vec![2, 2, 12],
        },
        region_lines: 1 << 20,
        hot_lines: 1 << 13,
        hot_fraction: 0.35,
        write_fraction: 0.40,
        burst_len: 1024,
        burst_gap_mean: 30,
        idle_gap_mean: 20_000,
        base_addr: 0,
    };

    let mut core = Core::new(CoreConfig::default_ooo(), SyntheticWorkload::new(params, 7));
    let mut llc = Cache::new(CacheConfig::llc_2mb());
    let mut ctrl = MemController::new(MemCtrlConfig::rop(DramConfig::baseline(1), 64, 7));

    // Hand-rolled driver loop (the `sim` crate's System does exactly
    // this, plus fast-forwarding): cores submit through the LLC into the
    // controller; completions wake the core.
    let mut inflight: Vec<rop_sim::memctrl::Completion> = Vec::new();
    let target_instructions = 3_000_000u64;
    let mut now = 0u64;
    while core.stats().instructions < target_instructions && now < 1_000_000_000 {
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
    let c = ctrl.stats().clone();
    println!("telemetry-ingest on ROP-64, {} cycles:", now);
    println!(
        "  instructions {}  IPC {:.3}  post-LLC MPKI {:.1}",
        s.instructions,
        s.instructions as f64 / (now * 4) as f64,
        s.read_misses as f64 * 1000.0 / s.instructions as f64
    );
    println!(
        "  refreshes {}  prefetches {}  SRAM-served reads {}  refresh-window hit rate {:.2}",
        ctrl.refreshes_issued(0),
        c.prefetches_issued,
        c.reads_from_sram,
        if c.sram_lookups == 0 {
            0.0
        } else {
            c.sram_hits as f64 / c.sram_lookups as f64
        }
    );
    println!(
        "  ROP state: phase {:?}, (λ, β) = {:?}",
        ctrl.rop_phase(0),
        ctrl.rop_probabilities(0)
    );
}
