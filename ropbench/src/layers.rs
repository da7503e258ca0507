//! Per-layer counts gathered by a traced run, and the per-layer metric
//! set every workload prints under `--trace 1`.
//!
//! A layer a workload does not exercise reports 0 (no cores on
//! openloop-knee, no simulation replica on sweep-resume).

use rop_memctrl::MemController;
use rop_sim_system::RunMetrics;

use crate::common::{geomean, median, Outcome};
use crate::tracer::{self, Layer};

/// Counts summed over every job of a traced run. Times not listed here
/// come from the tracer's span totals.
#[derive(Debug, Default)]
pub struct LayerCounts {
    pub sim_events: u64,
    pub sim_cycles: u64,
    pub sim_forced_steps: u64,
    pub cpu_calls: u64,
    pub cpu_retries: u64,
    pub cpu_stall_cycles: u64,
    pub cache_accesses: u64,
    pub cache_hits: u64,
    pub cache_lookups: u64,
    pub cache_writebacks: u64,
    pub tick_calls: u64,
    pub enqueue_refused: u64,
    /// Σ read-queue length × cycles, over `sim_cycles`.
    pub read_queue_cycles: u128,
    pub row_hits: u64,
    pub row_total: u64,
    pub reads_completed: u64,
    pub sum_read_latency: u64,
    pub refresh_blocked_cycles: u64,
    pub mech_refreshes: u64,
    pub mech_skipped: u64,
    pub mech_pulled_in: u64,
    pub rop_prefetches: u64,
    pub rop_fills: u64,
    pub rop_dropped: u64,
    pub rop_sram_lookups: u64,
    pub rop_sram_hits: u64,
    pub wheel_pushes: u64,
    pub wheel_pops: u64,
    pub wheel_peak: u64,
    pub ol_backlog_peak: u64,
    /// Σ backlog length × cycles, over `ol_cycles`.
    pub ol_backlog_cycles: u128,
    pub ol_reads_scored: u64,
    pub ol_cycles: u64,
    /// Largest per-job read p99 of the untraced program runs.
    pub read_p99: u64,
    pub lint_mech_count: u64,
    pub store_bytes_read: u64,
    pub harness_cache_hits: u64,
    pub harness_executed: u64,
    /// Jobs whose traced run was checked against the untraced program.
    pub jobs: u64,
    /// Instructions retired by the untraced closed-loop program runs, and
    /// the host seconds those runs took.
    pub instructions: u64,
    pub instructions_wall: f64,
    /// IPC of every core of the untraced closed-loop program runs.
    pub core_ipcs: Vec<f64>,
    /// Host seconds of each resume of the untraced sweep round.
    pub resume_walls: Vec<f64>,
    /// Host seconds of the untraced program runs the replicas mirror.
    pub untraced_wall: f64,
    /// Host seconds of the traced replica runs.
    pub traced_wall: f64,
}

/// Adds the controller-side counts of one finished run.
pub fn fold_ctrl(c: &mut LayerCounts, ctrl: &MemController, m: &RunMetrics) {
    let s = ctrl.stats();
    c.row_hits += s.row_buffer.hits();
    c.row_total += s.row_buffer.total();
    c.reads_completed += s.reads_completed;
    c.sum_read_latency += s.sum_read_latency;
    c.refresh_blocked_cycles += s.refresh_blocked_cycles;
    c.mech_refreshes += m.refreshes;
    c.mech_skipped += m.refreshes_skipped;
    c.mech_pulled_in += m.refreshes_pulled_in;
    c.rop_prefetches += s.prefetches_issued;
    c.rop_fills += s.prefetch_fills;
    c.rop_dropped += s.prefetches_dropped;
    c.rop_sram_lookups += s.sram_lookups;
    c.rop_sram_hits += s.sram_hits;
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Pushes every per-layer metric onto `out`.
pub fn report(c: &LayerCounts, out: &mut Outcome) {
    let t = |l: Layer| tracer::layer(l);
    let secs = |l: Layer| t(l).self_time.as_secs_f64();
    let f = |x: u64| x as f64;

    out.push("sim.events", f(c.sim_events), "count");
    out.push("sim.self_s", secs(Layer::Sim), "s");
    out.push(
        "sim.cycles_per_event",
        ratio(f(c.sim_cycles), f(c.sim_events)),
        "cycles/event",
    );
    out.push("sim.forced_steps", f(c.sim_forced_steps), "count");

    out.push("trace.calls", f(t(Layer::Trace).calls), "count");
    out.push("trace.self_s", secs(Layer::Trace), "s");

    out.push("cpu.calls", f(c.cpu_calls), "count");
    out.push("cpu.self_s", secs(Layer::Cpu), "s");
    out.push("cpu.submit_retries", f(c.cpu_retries), "count");
    out.push("cpu.stall_cycles", f(c.cpu_stall_cycles), "cycles");

    out.push("cache.accesses", f(c.cache_accesses), "count");
    out.push("cache.self_s", secs(Layer::Cache), "s");
    out.push(
        "cache.hit_ratio",
        ratio(f(c.cache_hits), f(c.cache_lookups)),
        "ratio",
    );
    out.push("cache.writebacks", f(c.cache_writebacks), "count");

    out.push("memctrl.tick_calls", f(c.tick_calls), "count");
    out.push("memctrl.tick_s", secs(Layer::MemctrlTick), "s");
    out.push("memctrl.enqueue_s", secs(Layer::MemctrlEnqueue), "s");
    out.push("memctrl.other_s", secs(Layer::MemctrlDrain), "s");
    out.push("memctrl.enqueue_refused", f(c.enqueue_refused), "count");
    out.push(
        "memctrl.read_queue_mean",
        ratio(c.read_queue_cycles as f64, f(c.sim_cycles)),
        "entries",
    );
    out.push(
        "memctrl.row_hit_ratio",
        ratio(f(c.row_hits), f(c.row_total)),
        "ratio",
    );
    out.push(
        "memctrl.avg_read_latency_cycles",
        ratio(f(c.sum_read_latency), f(c.reads_completed)),
        "cycles",
    );
    out.push(
        "memctrl.refresh_blocked_cycles",
        f(c.refresh_blocked_cycles),
        "cycles",
    );

    out.push("mechanism.refreshes", f(c.mech_refreshes), "count");
    out.push("mechanism.skipped", f(c.mech_skipped), "count");
    out.push("mechanism.pulled_in", f(c.mech_pulled_in), "count");

    out.push("rop.prefetches", f(c.rop_prefetches), "count");
    out.push("rop.prefetch_fills", f(c.rop_fills), "count");
    out.push("rop.prefetches_dropped", f(c.rop_dropped), "count");
    out.push("rop.sram_lookups", f(c.rop_sram_lookups), "count");
    out.push(
        "rop.sram_hit_ratio",
        ratio(f(c.rop_sram_hits), f(c.rop_sram_lookups)),
        "ratio",
    );
    out.push(
        "rop.prefetch_use_ratio",
        ratio(f(c.rop_sram_hits), f(c.rop_fills)),
        "ratio",
    );

    out.push("wheel.pushes", f(c.wheel_pushes), "count");
    out.push("wheel.pops", f(c.wheel_pops), "count");
    out.push("wheel.self_s", secs(Layer::Wheel), "s");
    out.push("wheel.peak_len", f(c.wheel_peak), "entries");

    out.push("openloop.backlog_peak", f(c.ol_backlog_peak), "entries");
    out.push(
        "openloop.backlog_mean",
        ratio(c.ol_backlog_cycles as f64, f(c.ol_cycles)),
        "entries",
    );
    out.push(
        "openloop.achieved_rpkc",
        ratio(f(c.ol_reads_scored) * 1000.0, f(c.ol_cycles)),
        "rpkc",
    );

    // Workload-level figures that only one workload has, so they cannot be
    // end-to-end metrics (every workload prints every one of those). They
    // come from the untraced program runs of this traced run.
    out.push("read_p99_cycles", f(c.read_p99), "cycles");
    out.push(
        "sim_minstr_per_s",
        ratio(f(c.instructions) / 1e6, c.instructions_wall),
        "Minstr/s",
    );
    let ipc = if c.core_ipcs.is_empty() {
        0.0
    } else {
        geomean(&c.core_ipcs)
    };
    out.push("ipc", ipc, "instr/cycle");
    let resume = if c.resume_walls.is_empty() {
        0.0
    } else {
        median(&c.resume_walls)
    };
    out.push("resume_s", resume, "s");

    out.push(
        "lint.config_s",
        t(Layer::LintConfig).total.as_secs_f64(),
        "s",
    );
    out.push("lint.mech_s", t(Layer::LintMech).total.as_secs_f64(), "s");
    out.push("lint.mech_count", f(c.lint_mech_count), "count");

    out.push(
        "harness.plan_s",
        t(Layer::HarnessPlan).total.as_secs_f64(),
        "s",
    );
    out.push("harness.store_loads", f(t(Layer::StoreLoad).calls), "count");
    out.push("harness.store_bytes_read", f(c.store_bytes_read), "bytes");
    out.push("harness.load_s", secs(Layer::StoreLoad), "s");
    out.push("harness.appends", f(t(Layer::StoreAppend).calls), "count");
    out.push("harness.append_s", secs(Layer::StoreAppend), "s");
    out.push("harness.cache_hits", f(c.harness_cache_hits), "count");
    out.push("harness.executed", f(c.harness_executed), "count");
    out.push("harness.job_s", secs(Layer::HarnessJob), "s");
    out.push("harness.self_s", secs(Layer::Harness), "s");

    out.push(
        "tracing.overhead_ratio",
        ratio(c.traced_wall, c.untraced_wall),
        "ratio",
    );
}
