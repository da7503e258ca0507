//! Microbenchmarks of the simulator's hot components: DRAM command
//! issue, cache access, address decode, workload generation, prediction
//! table update, candidate generation, and SRAM buffer operations.
//!
//! These bound the simulator's cycles/second and guard against
//! performance regressions in the substrate the experiments run on.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use std::time::Duration;

use rop_cache::{Cache, CacheConfig};
use rop_core::{PredictionTable, Prefetcher, SramBuffer};
use rop_dram::{Command, DramConfig, DramDevice};
use rop_memctrl::{AddressMapping, MappingScheme};
use rop_trace::{Benchmark, WorkloadGen};

fn bench_dram_issue(c: &mut Criterion) {
    let mut g = c.benchmark_group("dram");
    g.throughput(Throughput::Elements(1));
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    g.bench_function("act_read_pre_cycle", |b| {
        let mut dev = DramDevice::new(DramConfig::baseline(1));
        let mut now = 0u64;
        let mut row = 0usize;
        b.iter(|| {
            let act = Command::Activate {
                rank: 0,
                bank: 0,
                row,
            };
            now = dev.earliest_issue(&act, now).unwrap();
            dev.issue(&act, now);
            let rd = Command::Read {
                rank: 0,
                bank: 0,
                column: 0,
            };
            now = dev.earliest_issue(&rd, now).unwrap();
            dev.issue(&rd, now);
            let pre = Command::Precharge { rank: 0, bank: 0 };
            now = dev.earliest_issue(&pre, now).unwrap();
            dev.issue(&pre, now);
            row = (row + 1) % 1024;
            black_box(now)
        });
    });
    g.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache");
    g.throughput(Throughput::Elements(1));
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    g.bench_function("llc_access_stream", |b| {
        let mut cache = Cache::new(CacheConfig::llc_2mb());
        let mut addr = 0u64;
        b.iter(|| {
            let out = cache.access(addr, addr.is_multiple_of(4));
            addr = addr.wrapping_add(1) % (1 << 22);
            black_box(out)
        });
    });
    g.finish();
}

fn bench_address(c: &mut Criterion) {
    let mut g = c.benchmark_group("address");
    g.throughput(Throughput::Elements(1));
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    for (name, scheme) in [
        ("baseline", MappingScheme::RowRankBankCol),
        ("partitioned", MappingScheme::RankPartitioned),
    ] {
        g.bench_function(format!("decode_{name}"), |b| {
            let m = AddressMapping::new(rop_dram::Geometry::ddr4_4rank(), scheme);
            let mut addr = 0u64;
            b.iter(|| {
                addr = addr.wrapping_add(997);
                black_box(m.decode(addr))
            });
        });
    }
    g.finish();
}

fn bench_trace(c: &mut Criterion) {
    let mut g = c.benchmark_group("trace");
    g.throughput(Throughput::Elements(1));
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    for bench in [Benchmark::Libquantum, Benchmark::Gobmk] {
        g.bench_function(format!("gen_{}", bench.name()), |b| {
            let mut w = bench.workload(1);
            b.iter(|| black_box(w.next_record()));
        });
    }
    g.finish();
}

fn bench_rop_components(c: &mut Criterion) {
    let mut g = c.benchmark_group("rop");
    g.throughput(Throughput::Elements(1));
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    g.bench_function("table_update", |b| {
        let mut t = PredictionTable::new(8);
        let mut addr = 0u64;
        b.iter(|| {
            t.update((addr % 8) as usize, addr / 8);
            addr = addr.wrapping_add(1);
        });
    });
    g.bench_function("generate_64", |b| {
        let mut t = PredictionTable::new(8);
        for a in 0..4096u64 {
            t.update((a % 8) as usize, a / 8);
        }
        let mut p = Prefetcher::new((1 << 15) * 128);
        let mut out = Vec::with_capacity(64);
        b.iter(|| {
            p.generate_with_lead(&t, 64, 0, &mut out);
            black_box(out.len())
        });
    });
    g.bench_function("buffer_lookup", |b| {
        let mut buf = SramBuffer::new(64);
        buf.power_on();
        for k in 0..64 {
            buf.insert(k);
        }
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 1) % 128;
            black_box(buf.lookup(k))
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_dram_issue,
    bench_cache,
    bench_address,
    bench_trace,
    bench_rop_components
);
criterion_main!(benches);
