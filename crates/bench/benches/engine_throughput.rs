//! Engine-throughput bench: simulated cycles per wall-clock second for
//! the event-driven loop vs the per-cycle reference loop.
//!
//! Two workload classes bracket the engine's behaviour:
//!
//! * `memlight` (gobmk) — long idle gaps between bursts, so dead cycles
//!   dominate and hint-driven fast-forward should win big (the
//!   acceptance bar is >= 3x over the reference loop here);
//! * `membound` (libquantum) — pure streaming, an event every couple of
//!   cycles, so the event loop must merely not regress.
//!
//! Throughput is reported in simulated cycles/sec (`Throughput::Elements`
//! with the run's total simulated cycle count).
//!
//! Two further groups reuse the canonical perf-gate shapes
//! (`rop_bench::perf::shapes`): `refresh-heavy` (8x refresh pressure,
//! constant drain/freeze churn) and `burst-gap` (request bursts split
//! by ~30k-cycle idle gaps: completion churn alternating with deep
//! fast-forwards).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rop_bench::perf::shapes;
use rop_sim_system::runner::{run_single, run_single_reference, RunSpec};
use rop_sim_system::{System, SystemKind};
use rop_trace::Benchmark;

const INSTRUCTIONS: u64 = 100_000;

fn spec() -> RunSpec {
    RunSpec {
        instructions: INSTRUCTIONS,
        max_cycles: 100_000_000,
        seed: 42,
    }
}

fn engine_throughput(c: &mut Criterion) {
    for (class, benchmark) in [
        ("memlight", Benchmark::Gobmk),
        ("membound", Benchmark::Libquantum),
    ] {
        let mut g = c.benchmark_group(format!("engine_{class}"));
        g.sample_size(10);
        g.warm_up_time(std::time::Duration::from_millis(300));
        g.measurement_time(std::time::Duration::from_secs(2));

        for kind in [SystemKind::Baseline, SystemKind::Rop { buffer: 64 }] {
            let label = match kind {
                SystemKind::Baseline => "baseline",
                _ => "rop64",
            };
            // One calibration run pins the simulated-cycle count so the
            // ns/iter lines convert to simulated cycles/sec.
            let cycles = run_single(benchmark, kind, spec()).total_cycles;
            g.throughput(Throughput::Elements(cycles));
            g.bench_function(format!("event_{label}"), |b| {
                b.iter(|| {
                    let m = run_single(benchmark, kind, spec());
                    assert_eq!(m.total_cycles, cycles);
                    m.total_cycles
                })
            });
            g.bench_function(format!("reference_{label}"), |b| {
                b.iter(|| {
                    let m = run_single_reference(benchmark, kind, spec());
                    assert_eq!(m.total_cycles, cycles);
                    m.total_cycles
                })
            });
        }
        g.finish();
    }
}

fn shape_throughput(c: &mut Criterion) {
    // Shorter than the perf gate's fixed work so criterion's repeats
    // stay cheap; the shapes' configs (refresh divisor, benchmark,
    // seed) are shared with `BENCH_baseline.json` verbatim.
    const INSTRUCTIONS: u64 = 300_000;
    for name in ["refresh-heavy", "burst-gap"] {
        let shape = shapes()
            .into_iter()
            .find(|s| s.name == name)
            .expect("canonical shape exists");
        let mut g = c.benchmark_group(format!("engine_{name}"));
        g.sample_size(10);
        g.warm_up_time(std::time::Duration::from_millis(300));
        g.measurement_time(std::time::Duration::from_secs(2));

        let run_event = || {
            let mut sys = System::new(shape.config());
            sys.run_until(INSTRUCTIONS, shape.spec.max_cycles)
        };
        let run_reference = || {
            let mut sys = System::new(shape.config());
            sys.run_until_reference(INSTRUCTIONS, shape.spec.max_cycles)
        };
        let cycles = run_event().total_cycles;
        g.throughput(Throughput::Elements(cycles));
        g.bench_function("event", |b| {
            b.iter(|| {
                let m = run_event();
                assert_eq!(m.total_cycles, cycles);
                m.events
            })
        });
        g.bench_function("reference", |b| {
            b.iter(|| {
                let m = run_reference();
                assert_eq!(m.total_cycles, cycles);
                m.events
            })
        });
        g.finish();
    }
}

criterion_group!(benches, engine_throughput, shape_throughput);
criterion_main!(benches);
