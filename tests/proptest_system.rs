//! Property-based integration tests: random request streams against the
//! controller + device stack, checking invariants that must hold for any
//! traffic whatsoever.

use proptest::prelude::*;

use rop_sim::dram::DramConfig;
use rop_sim::memctrl::{MemController, MemCtrlConfig};

/// One externally-generated stimulus step.
#[derive(Debug, Clone)]
enum Step {
    Read { line: u64, gap: u8 },
    Write { line: u64, gap: u8 },
    Idle { cycles: u16 },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u64..1 << 22, 0u8..40).prop_map(|(line, gap)| Step::Read { line, gap }),
        (0u64..1 << 22, 0u8..40).prop_map(|(line, gap)| Step::Write { line, gap }),
        (1u16..2000).prop_map(|cycles| Step::Idle { cycles }),
    ]
}

/// Drives the controller with arbitrary traffic; returns
/// (reads accepted, completions delivered, final cycle).
fn drive(mut ctrl: MemController, steps: &[Step]) -> (u64, u64, u64) {
    let mut now = 0u64;
    let mut accepted = 0u64;
    let mut completions = 0u64;
    let mut completion_times: Vec<u64> = Vec::new();
    let mut done = Vec::new();
    for step in steps {
        match *step {
            Step::Read { line, gap } => {
                now += gap as u64;
                ctrl.tick(now);
                if ctrl.enqueue_read(line, 0, now).is_some() {
                    accepted += 1;
                }
            }
            Step::Write { line, gap } => {
                now += gap as u64;
                ctrl.tick(now);
                let _ = ctrl.enqueue_write(line, 0, now);
            }
            Step::Idle { cycles } => {
                let end = now + cycles as u64;
                while now < end {
                    let hint = ctrl.tick(now);
                    now = hint.max(now + 1).min(end);
                }
            }
        }
        done.clear();
        ctrl.drain_completions_into(&mut done);
        for c in &done {
            assert!(
                c.done_at >= now.saturating_sub(1) || c.done_at <= now + 1_000_000,
                "completion time sane"
            );
            completion_times.push(c.done_at);
            completions += 1;
        }
    }
    // Drain: run until every accepted read completed (bounded).
    let deadline = now + 10_000_000;
    while completions < accepted && now < deadline {
        let hint = ctrl.tick(now);
        done.clear();
        ctrl.drain_completions_into(&mut done);
        for c in &done {
            completion_times.push(c.done_at);
            completions += 1;
        }
        now = hint.max(now + 1);
    }
    (accepted, completions, now)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every accepted read eventually completes, exactly once, under any
    /// traffic: no lost or duplicated requests across refreshes, drains,
    /// prefetch interference and queue pressure.
    #[test]
    fn all_accepted_reads_complete(steps in proptest::collection::vec(step_strategy(), 1..120)) {
        for cfg in [
            MemCtrlConfig::baseline(DramConfig::baseline(2)),
            MemCtrlConfig::rop(DramConfig::baseline(2), 32, 9),
        ] {
            let (accepted, completed, _) = drive(MemController::new(cfg), &steps);
            prop_assert_eq!(accepted, completed);
        }
    }

    /// The controller makes forward progress: the fast-forward hint never
    /// goes backwards and the system never deadlocks inside the horizon.
    #[test]
    fn hints_are_monotonic(steps in proptest::collection::vec(step_strategy(), 1..60)) {
        let mut ctrl = MemController::new(MemCtrlConfig::baseline(DramConfig::baseline(1)));
        let mut now = 0u64;
        for step in &steps {
            if let Step::Read { line, gap } = step {
                now += *gap as u64;
                let _ = ctrl.enqueue_read(*line, 0, now);
            }
            let hint = ctrl.tick(now);
            prop_assert!(hint > now, "hint {} must be in the future of {}", hint, now);
            now += 1;
        }
    }

    /// The event-driven engine and the per-cycle reference loop agree
    /// bit-for-bit on total cycles, refreshes and per-core instruction
    /// accounting, for any benchmark, system kind and seed.
    #[test]
    fn event_loop_matches_reference(
        bench_idx in 0usize..12,
        kind_idx in 0usize..4,
        seed in 0u64..1 << 32,
        instructions in 10_000u64..50_000,
    ) {
        use rop_sim::sim::runner::{run_single, run_single_reference, RunSpec};
        use rop_sim::sim::SystemKind;
        use rop_sim::trace::ALL_BENCHMARKS;

        let benchmark = ALL_BENCHMARKS[bench_idx];
        let kind = [
            SystemKind::Baseline,
            SystemKind::BaselineRp,
            SystemKind::Rop { buffer: 64 },
            SystemKind::NoRefresh,
        ][kind_idx];
        let spec = RunSpec { instructions, max_cycles: 50_000_000, seed };
        let ev = run_single(benchmark, kind, spec);
        let rf = run_single_reference(benchmark, kind, spec);
        prop_assert_eq!(ev.total_cycles, rf.total_cycles);
        prop_assert_eq!(ev.refreshes, rf.refreshes);
        prop_assert_eq!(ev.cores.len(), rf.cores.len());
        for (a, b) in ev.cores.iter().zip(&rf.cores) {
            prop_assert_eq!(a.instructions, b.instructions);
            prop_assert_eq!(a.finish_cycle, b.finish_cycle);
            prop_assert_eq!(a.stall_cycles, b.stall_cycles);
            prop_assert_eq!(a.llc_hits, b.llc_hits);
            prop_assert_eq!(a.read_misses, b.read_misses);
        }
    }

    /// Energy is monotone in time: accruing more cycles never decreases
    /// the breakdown total.
    #[test]
    fn energy_monotone_in_time(reads in proptest::collection::vec(0u64..1<<20, 1..40)) {
        let mut ctrl = MemController::new(MemCtrlConfig::baseline(DramConfig::baseline(1)));
        let mut now = 0;
        let mut done = Vec::new();
        for (i, line) in reads.iter().enumerate() {
            let _ = ctrl.enqueue_read(*line, 0, now);
            now = ctrl.tick(now).max(now + 1).min(now + 100);
            done.clear();
            ctrl.drain_completions_into(&mut done);
            let _ = i;
        }
        let e1 = ctrl.energy_breakdown(now).total_nj();
        let e2 = ctrl.energy_breakdown(now + 50_000).total_nj();
        prop_assert!(e2 >= e1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The open-loop injector's event-driven run and its per-cycle
    /// reference agree on the whole metrics payload — latency
    /// histograms, backlog, energy, refresh counters — for any refresh
    /// mechanism, arrival process, load and seed, over windows of at
    /// least two refresh intervals.
    #[test]
    fn open_loop_matches_reference(
        kind_idx in 0usize..5,
        process_idx in 0usize..3,
        rpkc in 40u64..241,
        seed in 0u64..1 << 32,
        duration in 12_500u64..20_000,
    ) {
        use rop_sim::sim::experiments::tail_latency::{arrival_processes, tail_config};
        use rop_sim::sim::{OpenLoopSystem, SystemKind};

        let kind = SystemKind::MECHANISMS
            .into_iter()
            .chain([SystemKind::Rop { buffer: 64 }])
            .nth(kind_idx)
            .expect("five mechanisms");
        let process = arrival_processes(duration)[process_idx].clone();
        let cfg = tail_config(kind, process, rpkc as f64, duration, seed);
        let render = |mut m: rop_sim::sim::RunMetrics| {
            // The event count is what the two modes legitimately differ
            // in, wall-clock time is nondeterministic.
            m.events = 0;
            m.wall_seconds = 0.0;
            m.to_json().render()
        };
        let ev = render(OpenLoopSystem::new(cfg.clone()).run());
        let rf = render(OpenLoopSystem::new(cfg).run_reference());
        prop_assert_eq!(ev, rf);
    }
}
