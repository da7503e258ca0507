//! Steady-state allocation audit for the simulation hot loop.
//!
//! The engine's per-cycle paths (timing wheel, controller tick, SoA
//! timing state) are designed to reuse scratch buffers instead of
//! allocating: after a warm-up window every queue, wheel slot and
//! scratch vector has reached its high-water capacity and the loop
//! should touch the allocator exactly zero times per simulated window.
//!
//! This is checked with a counting `#[global_allocator]` that counts
//! per thread, so the test harness's own allocations (its "has been
//! running for over 60 seconds" notice lands at a host-dependent
//! moment) never reach the audit: run a warm-up window, then compare the allocation count of a pure
//! metrics-collection call (zero simulated cycles) against a full
//! simulated window plus the same collection. Identical counts mean
//! the window itself allocated nothing. Everything here is
//! deterministic (fixed seed, synthetic trace), so the assertion is
//! exact, not statistical.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // A const-initialised `Cell` needs no destructor, so touching it
    // from inside the allocator never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: delegates directly to the system allocator; the counter is a
// thread-local cell with no effect on allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Runs `sys` up to `max_cycles` with an unreachable instruction quota,
/// so the call is a pure "advance the clock" window that can be resumed
/// by calling again with a larger `max_cycles`.
fn run_window(sys: &mut rop_sim_system::System, max_cycles: u64) {
    let _ = sys.run_until(u64::MAX, max_cycles);
}

/// Asserts that `sys`, already warmed up to cycle `warmup`, allocates
/// nothing in the next `window` cycles.
fn audit_window(name: &str, sys: &mut rop_sim_system::System, warmup: u64, window: u64) {
    // Collection alone: the drive loop body never runs because the
    // clock already reached `warmup`, so this prices the RunMetrics
    // construction that every `run_until` call pays.
    let before = allocations();
    run_window(sys, warmup);
    let collect_only = allocations() - before;

    // A real simulated window plus the same collection.
    let before = allocations();
    run_window(sys, warmup + window);
    let with_window = allocations() - before;

    assert!(
        with_window <= collect_only,
        "{name}: {} allocations in a {window}-cycle steady-state window \
         (collection alone costs {collect_only})",
        with_window - collect_only,
    );
}

#[test]
fn steady_state_window_is_allocation_free() {
    // The counter sees this thread's allocations.
    let before = allocations();
    drop(std::hint::black_box(vec![0u8; 64]));
    assert_eq!(allocations() - before, 1, "the allocation counter is live");

    // Memory-heavy keeps the queues and wheel busy every cycle;
    // refresh-heavy adds constant REF traffic through the drain-set and
    // scratch paths. Both must be allocation-free after warm-up.
    for name in ["memory-heavy", "refresh-heavy"] {
        let shape = rop_bench::perf::shapes()
            .into_iter()
            .find(|s| s.name == name)
            .expect("canonical shape exists");
        let mut sys = rop_sim_system::System::new(shape.config());
        run_window(&mut sys, 2_000_000);
        audit_window(name, &mut sys, 2_000_000, 500_000);
    }

    // The paper's ROP-64 system on the 4-core WL1 mix, audited only
    // after every rank's engine has trained (50 refreshes, about 312k
    // cycles): the window runs drain snapshots, prefetch bursts, SRAM
    // fills and sweeps through the per-bank scheduler.
    use rop_sim_system::{SystemConfig, SystemKind};
    let wl1 = rop_trace::WORKLOAD_MIXES[0];
    assert_eq!(wl1.name, "WL1");
    let cfg = SystemConfig::multi_core(wl1.programs, SystemKind::Rop { buffer: 64 }, 1);
    let mut sys = rop_sim_system::System::new(cfg);
    run_window(&mut sys, 1_000_000);
    let trained = sys.controller().stats().prefetches_issued;
    assert!(trained > 0, "ROP never prefetched during warm-up");
    audit_window("ROP-64 WL1", &mut sys, 1_000_000, 400_000);
    assert!(
        sys.controller().stats().prefetches_issued > trained,
        "the window must prefetch"
    );

    // An open-loop window: four tenants below the knee under DARP (32
    // per-bank refresh slots), through the arrival front-end's backlog
    // and read table and the controller's refresh-blocked id tap.
    use rop_sim_system::experiments::tail_latency::tail_config;
    let cfg = tail_config(
        SystemKind::Darp,
        rop_trace::ArrivalProcess::Poisson,
        120.0,
        1_000_000,
        1,
    );
    let mut sys = rop_sim_system::OpenLoopSystem::new(cfg);
    sys.advance_to(400_000);
    let reads = sys.controller().stats().reads_completed;
    let before = allocations();
    sys.advance_to(700_000);
    let during = allocations() - before;
    assert_eq!(
        during, 0,
        "open-loop DARP: {during} allocations in a 300000-cycle window"
    );
    assert!(
        sys.controller().stats().reads_completed > reads,
        "the window must serve reads"
    );
}
