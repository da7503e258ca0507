//! Cross-crate integration tests: whole-system behaviour that no single
//! crate can check on its own.

use rop_sim::sim::{System, SystemConfig, SystemKind};
use rop_sim::trace::{Benchmark, WORKLOAD_MIXES};

const QUOTA: u64 = 400_000;
const CAP: u64 = 100_000_000;

fn run(kind: SystemKind, bench: Benchmark, seed: u64) -> rop_sim::sim::RunMetrics {
    let mut sys = System::new(SystemConfig::single_core(bench, kind, seed));
    sys.run_until(QUOTA, CAP)
}

#[test]
fn identical_seeds_give_identical_runs() {
    for kind in [SystemKind::Baseline, SystemKind::Rop { buffer: 32 }] {
        let a = run(kind, Benchmark::Gcc, 7);
        let b = run(kind, Benchmark::Gcc, 7);
        assert_eq!(a.total_cycles, b.total_cycles, "{}", kind.label());
        assert_eq!(a.refreshes, b.refreshes);
        assert_eq!(a.prefetches, b.prefetches);
        assert!((a.energy.total_nj() - b.energy.total_nj()).abs() < 1e-6);
        assert_eq!(a.cores[0].read_misses, b.cores[0].read_misses);
    }
}

#[test]
fn different_seeds_differ() {
    let a = run(SystemKind::Baseline, Benchmark::Omnetpp, 1);
    let b = run(SystemKind::Baseline, Benchmark::Omnetpp, 2);
    assert_ne!(a.total_cycles, b.total_cycles);
}

#[test]
fn no_refresh_bounds_baseline_for_intensive_benchmarks() {
    for bench in [Benchmark::Libquantum, Benchmark::Lbm, Benchmark::Bwaves] {
        let base = run(SystemKind::Baseline, bench, 42);
        let ideal = run(SystemKind::NoRefresh, bench, 42);
        assert_eq!(ideal.refreshes, 0);
        assert!(base.refreshes > 0);
        assert!(
            ideal.ipc() > base.ipc(),
            "{}: refresh must cost performance (base {}, ideal {})",
            bench.name(),
            base.ipc(),
            ideal.ipc()
        );
        assert!(
            base.energy.total_nj() > ideal.energy.total_nj(),
            "{}: refresh must cost energy",
            bench.name()
        );
    }
}

#[test]
fn refresh_rate_is_one_per_trefi() {
    let m = run(SystemKind::Baseline, Benchmark::Libquantum, 42);
    let expected = m.total_cycles / 6240;
    let got = m.refreshes;
    // Due-based scheduling keeps the long-run rate exact (± the warmup
    // offset and the partial tail interval).
    assert!(
        (got as i64 - expected as i64).unsigned_abs() <= 2,
        "refreshes {got} vs expected {expected}"
    );
}

#[test]
fn energy_breakdown_components_sum() {
    let m = run(SystemKind::Rop { buffer: 64 }, Benchmark::GemsFDTD, 42);
    let e = m.energy;
    let sum = e.act_pre_nj + e.read_nj + e.write_nj + e.refresh_nj + e.background_nj + e.sram_nj;
    assert!((e.total_nj() - sum).abs() < 1e-9);
    assert!(e.background_nj > 0.0);
    assert!(e.refresh_nj > 0.0);
}

#[test]
fn fixed_work_quota_is_respected() {
    let m = run(SystemKind::Baseline, Benchmark::Perlbench, 42);
    assert!(!m.hit_cycle_cap);
    assert_eq!(m.cores[0].instructions, QUOTA);
    assert!(m.cores[0].finish_cycle <= m.total_cycles);
}

#[test]
fn multicore_partitioning_isolates_better_than_baseline() {
    // WL1 (all-intensive) is where rank partitioning matters most: each
    // core stops being frozen by the other ranks' refreshes and stops
    // thrashing shared banks.
    let mix = WORKLOAD_MIXES[0];
    let mut base = System::new(SystemConfig::multi_core(
        mix.programs,
        SystemKind::Baseline,
        42,
    ));
    let b = base.run_until(QUOTA, 400_000_000);
    let mut rp = System::new(SystemConfig::multi_core(
        mix.programs,
        SystemKind::BaselineRp,
        42,
    ));
    let r = rp.run_until(QUOTA, 400_000_000);
    let b_tp: f64 = b.cores.iter().map(|c| c.ipc).sum();
    let r_tp: f64 = r.cores.iter().map(|c| c.ipc).sum();
    assert!(
        r_tp > b_tp,
        "rank partitioning must raise WL1 throughput ({r_tp} vs {b_tp})"
    );
}

#[test]
fn rop_trains_and_serves_on_streaming_traffic() {
    let mut sys = System::new(SystemConfig::single_core(
        Benchmark::Libquantum,
        SystemKind::Rop { buffer: 64 },
        42,
    ));
    // Enough work to finish the 50-refresh training and prefetch a while.
    let m = sys.run_until(3_000_000, 400_000_000);
    assert!(
        m.prefetches > 0,
        "streaming workload must trigger prefetching"
    );
    assert!(m.sram_lookups > 0);
    assert!(
        m.sram_hit_rate > 0.5,
        "hit rate {} below the paper's ~0.6 operating point",
        m.sram_hit_rate
    );
    let stats = sys.controller().rop_engine_stats(0).expect("ROP enabled");
    assert!(stats.trainings_completed >= 1);
    let (lambda, beta) = sys.controller().rop_probabilities(0).unwrap();
    assert!(lambda > 0.9, "streaming λ must be high, got {lambda}");
    assert!(beta < 0.2, "streaming β must be low, got {beta}");
}

#[test]
fn quiet_workload_mostly_skips_prefetching() {
    let mut sys = System::new(SystemConfig::single_core(
        Benchmark::Gobmk,
        SystemKind::Rop { buffer: 64 },
        42,
    ));
    // gobmk retires ~4 IPC, so it needs a large quota to live through the
    // 50-refresh training phase plus a meaningful observing stretch.
    let m = sys.run_until(10_000_000, 400_000_000);
    let stats = sys.controller().rop_engine_stats(0).expect("ROP enabled");
    // gobmk's windows are almost always quiet with high β: the throttle
    // must skip far more often than it prefetches.
    assert!(
        stats.skip_decisions > stats.prefetch_decisions,
        "skips {} vs prefetches {}",
        stats.skip_decisions,
        stats.prefetch_decisions
    );
    assert!(m.refreshes > 100);
}

#[test]
fn per_bank_refresh_system_runs_deterministically() {
    let run_pb = || {
        let mut sys = System::new(SystemConfig::single_core(
            Benchmark::Libquantum,
            SystemKind::PerBankRefresh,
            42,
        ));
        sys.run_until(QUOTA, CAP)
    };
    let a = run_pb();
    let b = run_pb();
    assert!(!a.hit_cycle_cap);
    assert_eq!(a.total_cycles, b.total_cycles);
    // Per-bank mode issues ~8x as many (shorter) refreshes; the analysis
    // instrumentation has one slot per bank.
    assert_eq!(a.analysis.len(), 8);
    assert!(a.refreshes > 8 * (a.total_cycles / 6240).saturating_sub(2));
}

#[test]
fn rop_on_per_bank_refresh_runs() {
    let mut sys = System::new(SystemConfig::single_core(
        Benchmark::Libquantum,
        SystemKind::RopPerBank { buffer: 64 },
        42,
    ));
    let m = sys.run_until(2_000_000, 400_000_000);
    assert!(!m.hit_cycle_cap);
    assert!(m.refreshes > 0);
    // Training (50 refresh events) completes 8x faster in per-bank mode.
    assert!(m.prefetches > 0, "per-bank ROP must prefetch");
}

#[test]
fn elastic_refresh_helps_bursty_workloads() {
    // GemsFDTD alternates long streams with idle phases — exactly where
    // postponing refreshes into idle gaps pays.
    let quota = 2_000_000;
    let mut base = System::new(SystemConfig::single_core(
        Benchmark::GemsFDTD,
        SystemKind::Baseline,
        42,
    ));
    let b = base.run_until(quota, CAP);
    let mut elastic = System::new(SystemConfig::single_core(
        Benchmark::GemsFDTD,
        SystemKind::ElasticRefresh,
        42,
    ));
    let e = elastic.run_until(quota, CAP);
    assert!(
        e.ipc() >= b.ipc(),
        "elastic {} must not lose to baseline {}",
        e.ipc(),
        b.ipc()
    );
}

#[test]
fn analysis_windows_are_monotone() {
    // A longer examined window can only see more blocking, never less.
    let m = run(SystemKind::Baseline, Benchmark::Bzip2, 42);
    let [w1, w2, w4] = m.analysis[0];
    assert!(w1.non_blocking_fraction >= w2.non_blocking_fraction - 1e-12);
    assert!(w2.non_blocking_fraction >= w4.non_blocking_fraction - 1e-12);
    assert!(w1.refreshes == w2.refreshes && w2.refreshes == w4.refreshes);
}

/// A host-independent guard on scheduler work: on the paper's ROP-64
/// system with the 4-core WL1 mix, the FR-FCFS scheduler asks the
/// device at most 6 times per call on average. The candidate index
/// passes over candidates whose cached not-before bound lies in the
/// future, or whose row hit the channel's column floor rules out, which
/// keeps it near 3.5 here (4.8 before the floor and the idle-tick
/// shortcut); a scheduler that asks about every candidate it lists made
/// about 10.7 asks per call on this run.
#[test]
fn scheduler_asks_per_call_stay_bounded_on_wl1() {
    let wl1 = WORKLOAD_MIXES[0];
    assert_eq!(wl1.name, "WL1");
    let cfg = SystemConfig::multi_core(wl1.programs, SystemKind::Rop { buffer: 64 }, 1);
    let mut sys = System::new(cfg);
    sys.run_until(100_000, CAP);
    let s = sys.controller().stats();
    assert!(s.schedule_calls > 10_000, "{} calls", s.schedule_calls);
    assert!(s.bound_skips > 0, "no candidate was passed over");
    let per_call = s.issue_attempts as f64 / s.schedule_calls as f64;
    assert!(
        per_call < 6.0,
        "{per_call:.2} device asks per scheduler call ({} asks, {} calls)",
        s.issue_attempts,
        s.schedule_calls
    );
}

/// A host-independent guard on candidate-index upkeep, on the same run
/// as `scheduler_asks_per_call_stay_bounded_on_wl1`. Re-entering a
/// changed bank updates its listed entries in place and slides a
/// changed one, which keeps index moves (entries inserted, removed or
/// slid) near 2.85 per scheduler call here. Taking every entry of a
/// re-entered bank out and putting it back made about 3.4 when every
/// idle tick still called the scheduler. Skipped idle ticks no longer
/// count as calls, which raised this rate from 2.5 to 2.85 with the
/// same moves in total.
#[test]
fn index_moves_per_call_stay_bounded_on_wl1() {
    let wl1 = WORKLOAD_MIXES[0];
    let cfg = SystemConfig::multi_core(wl1.programs, SystemKind::Rop { buffer: 64 }, 1);
    let mut sys = System::new(cfg);
    sys.run_until(100_000, CAP);
    let s = sys.controller().stats();
    assert!(s.schedule_calls > 10_000, "{} calls", s.schedule_calls);
    let per_call = s.index_moves as f64 / s.schedule_calls as f64;
    assert!(
        per_call < 3.0,
        "{per_call:.2} index moves per scheduler call ({} moves, {} calls)",
        s.index_moves,
        s.schedule_calls
    );
}

/// A host-independent guard on refresh bookkeeping: refresh-slot visits
/// (slots examined by the per-slot loops of the controller, the refresh
/// manager and the mechanism) per controller tick, on DARP and SARP
/// 4-tenant open-loop windows, where per-bank refresh runs 32 slots.
/// Walking only the slots whose state can change keeps this near 6.6
/// (DARP) and 1.5 (SARP); walking every slot in every loop makes 186
/// and 141. Each bound sits well below the full walk and under twice the
/// measured rate, so a regression of either mechanism's fast path fails
/// here: DARP's earlier wake, one walk in due order over every slot
/// within the wider lookahead of the best wake, makes 8.65, and walking
/// every slot adds about 16 per tick.
#[test]
fn refresh_slot_visits_per_tick_stay_bounded_on_per_bank_mechanisms() {
    use rop_sim::sim::experiments::tail_latency::{arrival_processes, tail_config};
    use rop_sim::sim::OpenLoopSystem;
    let duration = 20_000;
    let [_, mmpp, _] = arrival_processes(duration);
    for (kind, bound) in [(SystemKind::Darp, 8.0), (SystemKind::Sarp, 3.0)] {
        let mut sys = OpenLoopSystem::new(tail_config(kind, mmpp.clone(), 180.0, duration, 1));
        let m = sys.run();
        let slots = sys.controller().refresh_slots();
        assert_eq!(slots, 32);
        let visits = sys.controller().stats().refresh_slot_visits;
        let per_tick = visits as f64 / m.events as f64;
        assert!(
            per_tick < bound,
            "{}: {per_tick:.2} refresh-slot visits per tick ({visits} visits, {} ticks), bound {bound}",
            kind.label(),
            m.events
        );
    }
}

/// A host-independent guard on idle controller work, on a 4-tenant
/// open-loop window near saturation (Poisson arrivals, 240 rpkc, 20 000
/// cycles, all-bank refresh). The backlog makes the engine step almost
/// every cycle, so most events find the controller with nothing new.
/// A tick before the controller's own hint, with no enqueue since the
/// last full tick, skips its work, and a row hit that the channel's
/// column floor rules out is passed over without a device ask. That
/// keeps this window near 0.76 full ticks and 1.75 device asks per
/// event; a full tick at every event makes 1.00 ticks and 4.74 asks.
#[test]
fn idle_ticks_and_device_asks_stay_bounded_near_saturation() {
    use rop_sim::sim::experiments::tail_latency::{arrival_processes, tail_config};
    use rop_sim::sim::OpenLoopSystem;
    let duration = 20_000;
    let [poisson, _, _] = arrival_processes(duration);
    let cfg = tail_config(SystemKind::Baseline, poisson, 240.0, duration, 3);
    let mut sys = OpenLoopSystem::new(cfg);
    let m = sys.run();
    let s = sys.controller().stats();
    assert!(m.events > 10_000, "{} events", m.events);
    let ticks = s.ticks as f64 / m.events as f64;
    let asks = s.issue_attempts as f64 / m.events as f64;
    assert!(
        ticks < 0.85,
        "{ticks:.2} full ticks per event ({} ticks, {} events)",
        s.ticks,
        m.events
    );
    assert!(
        asks < 2.2,
        "{asks:.2} device asks per event ({} asks, {} events)",
        s.issue_attempts,
        m.events
    );
}
