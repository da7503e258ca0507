//! Pins the simulated output of short runs. Each run's whole
//! `RunMetrics` JSON, engine `events` included and `wall_seconds`
//! zeroed, is hashed with the sweep store's FNV-1a. A change meant to
//! keep the model's behaviour, such as a scheduler speed-up, must leave
//! every hash as it is. A change that moves the model on purpose
//! updates the constants below and says so in CHANGES.md.

use rop_sim::sim::experiments::tail_latency::{arrival_processes, tail_config};
use rop_sim::sim::runner::{fnv1a_64, parallel_map, RunSpec, SweepJob};
use rop_sim::sim::{SystemConfig, SystemKind};
use rop_sim::trace::{Benchmark, WORKLOAD_MIXES};

/// tREFI divisor of the closed-loop runs: a short run then spans enough
/// refreshes for ROP to finish training and for every mechanism's
/// postpone, pull-in and skip paths to act.
const DIVISOR: u64 = 8;

/// `cfg` with tREFI divided by [`DIVISOR`], and the budgets counted in
/// tREFI shrunk with it (as the mechanism figures' refresh-heavy shape
/// does).
fn refresh_heavy(mut cfg: SystemConfig) -> SystemConfig {
    let mut ctrl = cfg.kind.memctrl_config(cfg.ranks, cfg.seed);
    ctrl.dram.timing.t_refi_base /= DIVISOR;
    ctrl.max_refresh_postpone /= DIVISOR;
    ctrl.prefetch_grace /= DIVISOR;
    if let rop_sim::memctrl::MechanismKind::Raidr { bin_period, .. } = &mut ctrl.mechanism {
        *bin_period = 2 * ctrl.dram.timing.t_refi();
    }
    cfg.ctrl_override = Some(ctrl);
    cfg
}

/// The pinned runs: ROP-64 single-core and on WL1, every refresh
/// mechanism of the zoo on lbm, one open-loop MMPP window on the stock
/// timing, and DARP and SARP 4-tenant open-loop windows: the per-bank
/// mechanisms run 32 refresh slots there, which is where the refresh
/// bookkeeping's slot-skipping paths do their work.
fn jobs() -> Vec<SweepJob> {
    let spec = |instructions| RunSpec {
        instructions,
        max_cycles: 5_000_000,
        seed: 1,
    };
    let single = |kind: SystemKind, bench: Benchmark, instructions| {
        SweepJob::custom(
            format!("{}/{}", bench.name(), kind.label()),
            refresh_heavy(SystemConfig::single_core(bench, kind, 1)),
            spec(instructions),
        )
    };
    let mut jobs = vec![single(
        SystemKind::Rop { buffer: 64 },
        Benchmark::Libquantum,
        400_000,
    )];
    let wl1 = WORKLOAD_MIXES[0];
    jobs.push(SweepJob::custom(
        "WL1/ROP-64",
        refresh_heavy(SystemConfig::multi_core(
            wl1.programs,
            SystemKind::Rop { buffer: 64 },
            1,
        )),
        spec(150_000),
    ));
    for kind in [
        SystemKind::Baseline,
        SystemKind::ElasticRefresh,
        SystemKind::PerBankRefresh,
        SystemKind::RopPerBank { buffer: 64 },
        SystemKind::Darp,
        SystemKind::Sarp,
        SystemKind::Raidr,
    ] {
        jobs.push(single(kind, Benchmark::Lbm, 150_000));
    }
    let duration = 25_000;
    let [_, mmpp, _] = arrival_processes(duration);
    jobs.push(SweepJob::custom(
        "open-loop/MMPP/ROP-64",
        tail_config(SystemKind::Rop { buffer: 64 }, mmpp, 200.0, duration, 1),
        spec(duration),
    ));
    let duration = 20_000;
    let [_, mmpp, _] = arrival_processes(duration);
    for kind in [SystemKind::Darp, SystemKind::Sarp] {
        jobs.push(SweepJob::custom(
            format!("open-loop/MMPP/{}", kind.label()),
            tail_config(kind, mmpp.clone(), 180.0, duration, 1),
            spec(duration),
        ));
    }
    jobs
}

#[test]
fn simulated_output_is_pinned() {
    const WANT: [(&str, u64); 12] = [
        ("libquantum/ROP-64", 0xf9f975114d87e6f7),
        ("WL1/ROP-64", 0x6d96d6b1cd456b9a),
        ("lbm/Baseline", 0x6e531ef55d55f214),
        ("lbm/Elastic", 0xeab29700833b4531),
        ("lbm/REFpb", 0xf7230e51cb3a9b1f),
        ("lbm/ROP-pb-64", 0x0b7bdd8075acd900),
        ("lbm/DARP", 0xf8fa1c107f34c70f),
        ("lbm/SARP", 0x1c0ec1caf7e4b315),
        ("lbm/RAIDR", 0xb70c74af24b1fd66),
        ("open-loop/MMPP/ROP-64", 0xefce4ea438a3563e),
        ("open-loop/MMPP/DARP", 0xd33b03d26f9be351),
        ("open-loop/MMPP/SARP", 0xa85d1f233c7389f1),
    ];
    let got = parallel_map(jobs(), |job| {
        let mut m = job.run();
        m.wall_seconds = 0.0;
        (job.label.clone(), fnv1a_64(m.to_json().render().as_bytes()))
    });
    let want: Vec<(String, u64)> = WANT.iter().map(|&(l, h)| (l.to_string(), h)).collect();
    let table: String = got
        .iter()
        .map(|(label, h)| format!("        (\"{label}\", {h:#018x}),\n"))
        .collect();
    assert_eq!(got, want, "new fingerprints:\n{table}");
}
