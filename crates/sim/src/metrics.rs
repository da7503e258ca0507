//! Run-level metrics extracted from a finished simulation, plus their
//! stable serde-free JSON encoding (the sweep store's record payload).

use rop_dram::EnergyBreakdown;
use rop_memctrl::RefreshAnalysisReport;
use rop_stats::Json;

use crate::audit::AuditSummary;
use crate::Cycle;

/// Per-core results.
#[derive(Debug, Clone)]
pub struct CoreMetrics {
    /// Benchmark name driving this core.
    pub benchmark: String,
    /// Instructions the core retired (== the fixed-work target unless the
    /// run hit its cycle cap).
    pub instructions: u64,
    /// Memory cycle at which the core finished its work quota.
    pub finish_cycle: Cycle,
    /// Instructions per *core* cycle.
    pub ipc: f64,
    /// LLC hits observed by this core.
    pub llc_hits: u64,
    /// Reads that missed the LLC (DRAM reads issued).
    pub read_misses: u64,
    /// Memory cycles fully stalled.
    pub stall_cycles: u64,
}

/// Number of fixed log2 buckets in a [`LatencyHistogram`]. Bucket 39
/// tops out at 2³⁸ cycles ≈ 5.7 minutes of DDR4-1600 memory clock —
/// far beyond any latency a bounded-duration run can produce.
pub const LATENCY_BUCKETS: usize = 40;

/// Fixed-bucket log2 latency histogram.
///
/// Bucket 0 counts exact zeros (SRAM same-cycle hits are the only
/// producer); bucket `i ≥ 1` counts values in `[2^(i-1), 2^i)`. The
/// bucket count is a compile-time constant, so the JSON encoding is a
/// fixed-width integer array that round-trips bit-exactly — a figure
/// rendered from a resumed store matches an uninterrupted run
/// byte-for-byte, like the rest of [`RunMetrics`].
///
/// Quantiles are reported as the inclusive upper edge of the bucket the
/// target rank lands in (clamped to the observed maximum), making them
/// conservative: the true quantile is never above the reported one by
/// construction of the bucket, and the log2 width bounds the relative
/// error at 2×.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; LATENCY_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: [0; LATENCY_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            return 0;
        }
        ((64 - v.leading_zeros()) as usize).min(LATENCY_BUCKETS - 1)
    }

    /// Records one latency sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest sample recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// The `q`-quantile (`q` in `[0, 1]`) as the upper edge of the bucket
    /// holding the target rank, clamped to the observed maximum.
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= target {
                if i == 0 {
                    return 0;
                }
                let upper = (1u64 << i) - 1;
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// Median read latency.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th-percentile read latency.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th-percentile read latency.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Encodes as a JSON object (fixed-width bucket array).
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.push(
            "buckets",
            Json::Arr(self.buckets.iter().map(|&n| Json::Num(n as f64)).collect()),
        )
        .push("count", Json::Num(self.count as f64))
        .push("sum", Json::Num(self.sum as f64))
        .push("max", Json::Num(self.max as f64));
        j
    }

    /// Decodes from [`LatencyHistogram::to_json`] output. Strict: the
    /// bucket array must hold exactly [`LATENCY_BUCKETS`] integers.
    pub fn from_json(j: &Json) -> Result<LatencyHistogram, String> {
        if !matches!(j, Json::Obj(_)) {
            return Err("latency histogram: expected object".into());
        }
        let arr = j
            .get("buckets")
            .ok_or("latency histogram: missing field `buckets`")?
            .as_arr()
            .ok_or("latency histogram: field `buckets`: expected array")?;
        if arr.len() != LATENCY_BUCKETS {
            return Err(format!(
                "latency histogram: expected {LATENCY_BUCKETS} buckets, got {}",
                arr.len()
            ));
        }
        let mut buckets = [0u64; LATENCY_BUCKETS];
        for (slot, v) in buckets.iter_mut().zip(arr) {
            *slot = v
                .as_u64()
                .ok_or("latency histogram: bucket: expected unsigned integer")?;
        }
        Ok(LatencyHistogram {
            buckets,
            count: req_u64(j, "count")?,
            sum: req_u64(j, "sum")?,
            max: req_u64(j, "max")?,
        })
    }
}

/// Open-loop (datacenter traffic) results attached to a run.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopMetrics {
    /// Arrival-process label (`poisson`/`mmpp`/`diurnal`).
    pub process: String,
    /// Configured offered load in requests per kilo-cycle.
    pub offered_rpkc: f64,
    /// Reads completed per kilo-cycle actually delivered.
    pub achieved_rpkc: f64,
    /// Read requests injected (accepted by the controller).
    pub reads_injected: u64,
    /// Write requests injected.
    pub writes_injected: u64,
    /// Largest frontend backlog observed (requests waiting because the
    /// controller queues were full).
    pub backlog_peak: u64,
    /// Frontend backlog remaining at end of run.
    pub backlog_final: u64,
    /// True when the run ended with the memory system behind the
    /// arrival schedule (backlog exceeding the read-queue capacity):
    /// the offered load is past the saturation point.
    pub saturated: bool,
    /// Frontend-arrival → data latency of every completed read.
    pub read_latency: LatencyHistogram,
    /// Latency of the subset of reads that overlapped a refresh freeze
    /// (the refresh-attributed tail).
    pub refresh_blocked_latency: LatencyHistogram,
}

impl OpenLoopMetrics {
    /// Encodes as a JSON object.
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.push("process", Json::Str(self.process.clone()))
            .push("offered_rpkc", Json::Num(self.offered_rpkc))
            .push("achieved_rpkc", Json::Num(self.achieved_rpkc))
            .push("reads_injected", Json::Num(self.reads_injected as f64))
            .push("writes_injected", Json::Num(self.writes_injected as f64))
            .push("backlog_peak", Json::Num(self.backlog_peak as f64))
            .push("backlog_final", Json::Num(self.backlog_final as f64))
            .push("saturated", Json::Bool(self.saturated))
            .push("read_latency", self.read_latency.to_json())
            .push(
                "refresh_blocked_latency",
                self.refresh_blocked_latency.to_json(),
            );
        j
    }

    /// Decodes from [`OpenLoopMetrics::to_json`] output (strict).
    pub fn from_json(j: &Json) -> Result<OpenLoopMetrics, String> {
        if !matches!(j, Json::Obj(_)) {
            return Err("open-loop metrics: expected object".into());
        }
        Ok(OpenLoopMetrics {
            process: req_str(j, "process")?,
            offered_rpkc: req_f64(j, "offered_rpkc")?,
            achieved_rpkc: req_f64(j, "achieved_rpkc")?,
            reads_injected: req_u64(j, "reads_injected")?,
            writes_injected: req_u64(j, "writes_injected")?,
            backlog_peak: req_u64(j, "backlog_peak")?,
            backlog_final: req_u64(j, "backlog_final")?,
            saturated: req_bool(j, "saturated")?,
            read_latency: LatencyHistogram::from_json(
                j.get("read_latency")
                    .ok_or("open-loop metrics: missing field `read_latency`")?,
            )?,
            refresh_blocked_latency: LatencyHistogram::from_json(
                j.get("refresh_blocked_latency")
                    .ok_or("open-loop metrics: missing field `refresh_blocked_latency`")?,
            )?,
        })
    }
}

/// Results of one system run.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Label of the system that produced these metrics.
    pub system: String,
    /// Per-core metrics, in core order.
    pub cores: Vec<CoreMetrics>,
    /// Memory cycle at which the last core finished.
    pub total_cycles: Cycle,
    /// Energy breakdown at end of run.
    pub energy: EnergyBreakdown,
    /// Refreshes issued, summed over ranks.
    pub refreshes: u64,
    /// Refresh-mechanism label (`allbank`/`darp`/`sarp`/`raidr`; see
    /// `MechanismKind::metrics_label`).
    pub mechanism: String,
    /// Read-stall cycles attributable to refresh freezes: for every read
    /// queued across a refresh, the cycles from max(refresh start,
    /// arrival) to the thaw.
    pub refresh_blocked_cycles: u64,
    /// RAIDR: retention rounds skipped outright.
    pub refreshes_skipped: u64,
    /// DARP: refreshes pulled in ahead of their nominal due.
    pub refreshes_pulled_in: u64,
    /// SRAM buffer hit rate over reads arriving during refreshes
    /// (0 for systems without ROP, or when no such reads occurred).
    pub sram_hit_rate: f64,
    /// SRAM lookups performed (reads arriving during refreshes).
    pub sram_lookups: u64,
    /// ROP prefetch requests issued.
    pub prefetches: u64,
    /// Refresh analysis per rank (window multipliers 1×/2×/4×).
    pub analysis: Vec<[RefreshAnalysisReport; 3]>,
    /// Row-buffer hit rate at the controller.
    pub row_hit_rate: f64,
    /// Mean read latency in memory cycles (arrival → data).
    pub avg_read_latency: f64,
    /// True when the run hit its safety cycle cap before all cores
    /// finished their instruction quota.
    pub hit_cycle_cap: bool,
    /// Wall-clock seconds spent inside the simulation loop (measured
    /// with the monotonic clock; never fed back into simulated state).
    pub wall_seconds: f64,
    /// Instructions retired summed over all cores (each capped at its
    /// fixed-work target), for throughput reporting.
    pub instructions_total: u64,
    /// Engine loop iterations executed (events processed). The
    /// per-cycle reference loop runs one event per cycle; the
    /// event-driven engine runs far fewer. Events per wall-clock
    /// second is the honest engine-throughput metric — cycles/sec
    /// inflates with fast-forward span lengths.
    pub events: u64,
    /// Invariant-audit outcome, when the run was audited (`None` for
    /// ordinary runs; audited runs that *fail* panic instead, so a
    /// present summary always reports zero violations).
    pub audit: Option<AuditSummary>,
    /// Open-loop traffic results (`None` for closed-loop runs).
    pub open_loop: Option<OpenLoopMetrics>,
}

impl RunMetrics {
    /// IPC of core 0 (convenience for single-core experiments).
    pub fn ipc(&self) -> f64 {
        self.cores.first().map(|c| c.ipc).unwrap_or(0.0)
    }

    /// Total energy in millijoules.
    pub fn energy_mj(&self) -> f64 {
        self.energy.total_mj()
    }

    /// Simulated memory-clock cycles per wall-clock second — the
    /// engine-throughput figure of merit (0 when timing was not captured).
    pub fn cycles_per_sec(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        self.total_cycles as f64 / self.wall_seconds
    }

    /// Engine events (loop iterations) per wall-clock second — the
    /// honest throughput figure for an event-driven engine (0 when
    /// timing was not captured).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        self.events as f64 / self.wall_seconds
    }

    /// Weighted speedup against per-benchmark alone-IPCs:
    /// `Σ IPC_shared / IPC_alone` (paper Equation 4).
    ///
    /// # Panics
    /// Panics if `alone_ipcs` has a different length than the core list.
    pub fn weighted_speedup(&self, alone_ipcs: &[f64]) -> f64 {
        assert_eq!(alone_ipcs.len(), self.cores.len(), "core count mismatch");
        self.cores
            .iter()
            .zip(alone_ipcs)
            .map(|(c, &alone)| if alone > 0.0 { c.ipc / alone } else { 0.0 })
            .sum()
    }
}

// --- JSON encoding -------------------------------------------------------
//
// Hand-rolled per the vendored-stubs policy: no serde in the workspace.
// Numbers use `Json`'s shortest-roundtrip float rendering, so metrics
// survive a store round-trip bit-exactly (figures rendered from a
// resumed store match an uninterrupted run byte-for-byte).
//
// Decoding is strict: a missing or mistyped field is a hard error, so a
// record written before a schema change is quarantined as corrupt by the
// store instead of deserializing as phantom zeros (which `rop-sweep
// diff`/`export` would then report as fake regressions). The only
// exceptions go through the `opt_*` helpers below, which carry an
// explicit default for fields that legitimately predate the v1 record
// schema — absent is fine (the documented default applies), but a
// present-yet-mistyped value is still an error.

fn req_f64(j: &Json, key: &str) -> Result<f64, String> {
    match j.get(key) {
        None => Err(format!("metrics: missing field `{key}`")),
        // The encoder degrades non-finite floats to `null` (JSON has no
        // NaN/Inf); reading that back as 0.0 keeps the store round trip
        // total. Anything else non-numeric is a schema error.
        Some(Json::Null) => Ok(0.0),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| format!("metrics: field `{key}`: expected number")),
    }
}

fn req_u64(j: &Json, key: &str) -> Result<u64, String> {
    match j.get(key) {
        None => Err(format!("metrics: missing field `{key}`")),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| format!("metrics: field `{key}`: expected unsigned integer")),
    }
}

fn req_str(j: &Json, key: &str) -> Result<String, String> {
    match j.get(key) {
        None => Err(format!("metrics: missing field `{key}`")),
        Some(v) => v
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("metrics: field `{key}`: expected string")),
    }
}

fn req_bool(j: &Json, key: &str) -> Result<bool, String> {
    match j.get(key) {
        None => Err(format!("metrics: missing field `{key}`")),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| format!("metrics: field `{key}`: expected bool")),
    }
}

fn opt_f64(j: &Json, key: &str, default: f64) -> Result<f64, String> {
    match j.get(key) {
        None => Ok(default),
        Some(Json::Null) => Ok(0.0),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| format!("metrics: field `{key}`: expected number")),
    }
}

fn opt_u64(j: &Json, key: &str, default: u64) -> Result<u64, String> {
    match j.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| format!("metrics: field `{key}`: expected unsigned integer")),
    }
}

fn opt_str(j: &Json, key: &str, default: &str) -> Result<String, String> {
    match j.get(key) {
        None => Ok(default.to_string()),
        Some(v) => v
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("metrics: field `{key}`: expected string")),
    }
}

fn energy_to_json(e: &EnergyBreakdown) -> Json {
    let mut j = Json::obj();
    j.push("act_pre_nj", Json::Num(e.act_pre_nj))
        .push("read_nj", Json::Num(e.read_nj))
        .push("write_nj", Json::Num(e.write_nj))
        .push("refresh_nj", Json::Num(e.refresh_nj))
        .push("background_nj", Json::Num(e.background_nj))
        .push("sram_nj", Json::Num(e.sram_nj));
    j
}

fn energy_from_json(j: &Json) -> Result<EnergyBreakdown, String> {
    if !matches!(j, Json::Obj(_)) {
        return Err("metrics: field `energy`: expected object".into());
    }
    Ok(EnergyBreakdown {
        act_pre_nj: req_f64(j, "act_pre_nj")?,
        read_nj: req_f64(j, "read_nj")?,
        write_nj: req_f64(j, "write_nj")?,
        refresh_nj: req_f64(j, "refresh_nj")?,
        background_nj: req_f64(j, "background_nj")?,
        sram_nj: req_f64(j, "sram_nj")?,
    })
}

fn report_to_json(r: &RefreshAnalysisReport) -> Json {
    let mut j = Json::obj();
    j.push("window_multiplier", Json::Num(r.window_multiplier as f64))
        .push("refreshes", Json::Num(r.refreshes as f64))
        .push("non_blocking_fraction", Json::Num(r.non_blocking_fraction))
        .push(
            "avg_blocked_per_blocking",
            Json::Num(r.avg_blocked_per_blocking),
        )
        .push("max_blocked", Json::Num(r.max_blocked as f64))
        .push("lambda", Json::Num(r.lambda))
        .push("beta", Json::Num(r.beta))
        .push("dominant_fraction", Json::Num(r.dominant_fraction));
    j
}

fn report_from_json(j: &Json) -> Result<RefreshAnalysisReport, String> {
    if !matches!(j, Json::Obj(_)) {
        return Err("metrics: analysis report: expected object".into());
    }
    Ok(RefreshAnalysisReport {
        window_multiplier: req_u64(j, "window_multiplier")?,
        refreshes: req_u64(j, "refreshes")?,
        non_blocking_fraction: req_f64(j, "non_blocking_fraction")?,
        avg_blocked_per_blocking: req_f64(j, "avg_blocked_per_blocking")?,
        max_blocked: req_u64(j, "max_blocked")?,
        lambda: req_f64(j, "lambda")?,
        beta: req_f64(j, "beta")?,
        dominant_fraction: req_f64(j, "dominant_fraction")?,
    })
}

impl CoreMetrics {
    /// Encodes as a JSON object.
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.push("benchmark", Json::Str(self.benchmark.clone()))
            .push("instructions", Json::Num(self.instructions as f64))
            .push("finish_cycle", Json::Num(self.finish_cycle as f64))
            .push("ipc", Json::Num(self.ipc))
            .push("llc_hits", Json::Num(self.llc_hits as f64))
            .push("read_misses", Json::Num(self.read_misses as f64))
            .push("stall_cycles", Json::Num(self.stall_cycles as f64));
        j
    }

    /// Decodes from [`CoreMetrics::to_json`] output.
    pub fn from_json(j: &Json) -> Result<CoreMetrics, String> {
        if !matches!(j, Json::Obj(_)) {
            return Err("core metrics: expected object".into());
        }
        Ok(CoreMetrics {
            benchmark: req_str(j, "benchmark")?,
            instructions: req_u64(j, "instructions")?,
            finish_cycle: req_u64(j, "finish_cycle")?,
            ipc: req_f64(j, "ipc")?,
            llc_hits: req_u64(j, "llc_hits")?,
            read_misses: req_u64(j, "read_misses")?,
            stall_cycles: req_u64(j, "stall_cycles")?,
        })
    }
}

impl RunMetrics {
    /// Encodes as a JSON object (the sweep store's `metrics` payload).
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.push("system", Json::Str(self.system.clone()))
            .push(
                "cores",
                Json::Arr(self.cores.iter().map(CoreMetrics::to_json).collect()),
            )
            .push("total_cycles", Json::Num(self.total_cycles as f64))
            .push("energy", energy_to_json(&self.energy))
            .push("refreshes", Json::Num(self.refreshes as f64))
            .push("mechanism", Json::Str(self.mechanism.clone()))
            .push(
                "refresh_blocked_cycles",
                Json::Num(self.refresh_blocked_cycles as f64),
            )
            .push(
                "refreshes_skipped",
                Json::Num(self.refreshes_skipped as f64),
            )
            .push(
                "refreshes_pulled_in",
                Json::Num(self.refreshes_pulled_in as f64),
            )
            .push("sram_hit_rate", Json::Num(self.sram_hit_rate))
            .push("sram_lookups", Json::Num(self.sram_lookups as f64))
            .push("prefetches", Json::Num(self.prefetches as f64))
            .push(
                "analysis",
                Json::Arr(
                    self.analysis
                        .iter()
                        .map(|trio| Json::Arr(trio.iter().map(report_to_json).collect()))
                        .collect(),
                ),
            )
            .push("row_hit_rate", Json::Num(self.row_hit_rate))
            .push("avg_read_latency", Json::Num(self.avg_read_latency))
            .push("hit_cycle_cap", Json::Bool(self.hit_cycle_cap))
            .push("wall_seconds", Json::Num(self.wall_seconds))
            .push(
                "instructions_total",
                Json::Num(self.instructions_total as f64),
            )
            .push("events", Json::Num(self.events as f64));
        if let Some(a) = self.audit {
            j.push("audit_events", Json::Num(a.events as f64))
                .push("audit_violations", Json::Num(a.violations as f64));
        }
        if let Some(ol) = &self.open_loop {
            j.push("open_loop", ol.to_json());
        }
        j
    }

    /// Decodes from [`RunMetrics::to_json`] output.
    pub fn from_json(j: &Json) -> Result<RunMetrics, String> {
        if !matches!(j, Json::Obj(_)) {
            return Err("run metrics: expected object".into());
        }
        let cores = j
            .get("cores")
            .ok_or("metrics: missing field `cores`")?
            .as_arr()
            .ok_or("metrics: field `cores`: expected array")?
            .iter()
            .map(CoreMetrics::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let analysis = j
            .get("analysis")
            .ok_or("metrics: missing field `analysis`")?
            .as_arr()
            .ok_or("metrics: field `analysis`: expected array")?
            .iter()
            .map(|trio| -> Result<[RefreshAnalysisReport; 3], String> {
                let items = trio.as_arr().ok_or("analysis: expected array")?;
                if items.len() != 3 {
                    return Err(format!("analysis: expected 3 windows, got {}", items.len()));
                }
                Ok([
                    report_from_json(&items[0])?,
                    report_from_json(&items[1])?,
                    report_from_json(&items[2])?,
                ])
            })
            .collect::<Result<Vec<_>, _>>()?;
        let audit = match j.get("audit_events") {
            None => None,
            Some(v) => {
                let events = v
                    .as_u64()
                    .ok_or("metrics: field `audit_events`: expected unsigned integer")?;
                Some(AuditSummary {
                    events,
                    violations: req_u64(j, "audit_violations")?,
                })
            }
        };
        Ok(RunMetrics {
            system: req_str(j, "system")?,
            cores,
            total_cycles: req_u64(j, "total_cycles")?,
            energy: energy_from_json(j.get("energy").ok_or("metrics: missing field `energy`")?)?,
            refreshes: req_u64(j, "refreshes")?,
            // Fields below the schema's v1 floor decode with explicit
            // defaults when absent: they predate the strict decoder, so
            // genuinely old records carry none of them.
            mechanism: opt_str(j, "mechanism", "allbank")?,
            refresh_blocked_cycles: opt_u64(j, "refresh_blocked_cycles", 0)?,
            refreshes_skipped: opt_u64(j, "refreshes_skipped", 0)?,
            refreshes_pulled_in: opt_u64(j, "refreshes_pulled_in", 0)?,
            sram_hit_rate: req_f64(j, "sram_hit_rate")?,
            sram_lookups: req_u64(j, "sram_lookups")?,
            prefetches: req_u64(j, "prefetches")?,
            analysis,
            row_hit_rate: req_f64(j, "row_hit_rate")?,
            avg_read_latency: req_f64(j, "avg_read_latency")?,
            hit_cycle_cap: req_bool(j, "hit_cycle_cap")?,
            wall_seconds: opt_f64(j, "wall_seconds", 0.0)?,
            instructions_total: opt_u64(j, "instructions_total", 0)?,
            events: opt_u64(j, "events", 0)?,
            audit,
            open_loop: match j.get("open_loop") {
                None => None,
                Some(ol) => Some(OpenLoopMetrics::from_json(ol)?),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core(ipc: f64) -> CoreMetrics {
        CoreMetrics {
            benchmark: "x".into(),
            instructions: 1000,
            finish_cycle: 100,
            ipc,
            llc_hits: 10,
            read_misses: 5,
            stall_cycles: 2,
        }
    }

    fn run(cores: Vec<CoreMetrics>) -> RunMetrics {
        RunMetrics {
            system: "test".into(),
            instructions_total: cores.iter().map(|c| c.instructions).sum(),
            cores,
            total_cycles: 100,
            energy: EnergyBreakdown::default(),
            refreshes: 0,
            mechanism: "allbank".into(),
            refresh_blocked_cycles: 0,
            refreshes_skipped: 0,
            refreshes_pulled_in: 0,
            sram_hit_rate: 0.0,
            sram_lookups: 0,
            prefetches: 0,
            analysis: Vec::new(),
            row_hit_rate: 0.0,
            avg_read_latency: 0.0,
            hit_cycle_cap: false,
            wall_seconds: 0.0,
            events: 0,
            audit: None,
            open_loop: None,
        }
    }

    #[test]
    fn weighted_speedup_eq4() {
        let m = run(vec![core(1.0), core(2.0)]);
        let ws = m.weighted_speedup(&[2.0, 2.0]);
        assert!((ws - 1.5).abs() < 1e-12);
    }

    #[test]
    fn weighted_speedup_handles_zero_alone() {
        let m = run(vec![core(1.0)]);
        assert_eq!(m.weighted_speedup(&[0.0]), 0.0);
    }

    #[test]
    #[should_panic]
    fn weighted_speedup_length_mismatch() {
        run(vec![core(1.0)]).weighted_speedup(&[1.0, 1.0]);
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let mut m = run(vec![core(0.123456789012345), core(2.0 / 3.0)]);
        m.system = "ROP-64".into();
        m.total_cycles = 987_654_321;
        m.energy = EnergyBreakdown {
            act_pre_nj: 1.5,
            read_nj: 0.1 + 0.2, // deliberately non-representable sum
            write_nj: 3.25,
            refresh_nj: 1e-9,
            background_nj: 123456.789,
            sram_nj: 0.0,
        };
        m.refreshes = 4242;
        m.mechanism = "sarp".into();
        m.refresh_blocked_cycles = 31_337;
        m.refreshes_skipped = 11;
        m.refreshes_pulled_in = 23;
        m.sram_hit_rate = 0.6180339887498949;
        m.sram_lookups = 17;
        m.prefetches = 99;
        m.row_hit_rate = 0.75;
        m.avg_read_latency = 41.7;
        m.hit_cycle_cap = true;
        m.wall_seconds = 1.25;
        m.audit = Some(AuditSummary {
            events: 123_456,
            violations: 0,
        });
        m.analysis = vec![[
            RefreshAnalysisReport {
                window_multiplier: 1,
                refreshes: 100,
                non_blocking_fraction: 0.5,
                avg_blocked_per_blocking: 2.5,
                max_blocked: 7,
                lambda: 0.9,
                beta: 0.1,
                dominant_fraction: 0.8,
            },
            RefreshAnalysisReport {
                window_multiplier: 2,
                refreshes: 100,
                non_blocking_fraction: 0.25,
                avg_blocked_per_blocking: 3.5,
                max_blocked: 9,
                lambda: 0.95,
                beta: 0.05,
                dominant_fraction: 0.85,
            },
            RefreshAnalysisReport {
                window_multiplier: 4,
                refreshes: 100,
                non_blocking_fraction: 0.125,
                avg_blocked_per_blocking: 4.5,
                max_blocked: 11,
                lambda: 0.99,
                beta: 0.01,
                dominant_fraction: 0.9,
            },
        ]];

        let text = m.to_json().render();
        let back = RunMetrics::from_json(&Json::parse(&text).unwrap()).unwrap();

        // Bit-exact float fields and identical re-render.
        assert_eq!(back.to_json().render(), text);
        assert_eq!(back.system, m.system);
        assert_eq!(back.cores.len(), 2);
        assert_eq!(back.cores[0].ipc.to_bits(), m.cores[0].ipc.to_bits());
        assert_eq!(back.cores[1].ipc.to_bits(), m.cores[1].ipc.to_bits());
        assert_eq!(back.total_cycles, m.total_cycles);
        assert_eq!(back.energy.read_nj.to_bits(), m.energy.read_nj.to_bits());
        assert_eq!(back.sram_hit_rate.to_bits(), m.sram_hit_rate.to_bits());
        assert_eq!(back.mechanism, "sarp");
        assert_eq!(back.refresh_blocked_cycles, 31_337);
        assert_eq!(back.refreshes_skipped, 11);
        assert_eq!(back.refreshes_pulled_in, 23);
        assert_eq!(back.analysis.len(), 1);
        assert_eq!(back.analysis[0][2].window_multiplier, 4);
        assert_eq!(back.analysis[0][1].max_blocked, 9);
        assert!(back.hit_cycle_cap);
        assert_eq!(
            back.audit,
            Some(AuditSummary {
                events: 123_456,
                violations: 0
            })
        );
    }

    fn sample_open_loop() -> OpenLoopMetrics {
        let mut read_latency = LatencyHistogram::new();
        let mut refresh_blocked_latency = LatencyHistogram::new();
        for v in [0u64, 1, 3, 17, 40, 41, 42, 95, 300, 301, 1023, 5000] {
            read_latency.record(v);
        }
        for v in [300u64, 301, 1023, 5000] {
            refresh_blocked_latency.record(v);
        }
        OpenLoopMetrics {
            process: "mmpp".into(),
            offered_rpkc: 120.5,
            achieved_rpkc: 119.875,
            reads_injected: 36_000,
            writes_injected: 12_000,
            backlog_peak: 130,
            backlog_final: 0,
            saturated: false,
            read_latency,
            refresh_blocked_latency,
        }
    }

    #[test]
    fn histogram_quantiles_are_bucket_upper_edges() {
        let mut h = LatencyHistogram::new();
        // 99 samples at 40 cycles (bucket [32,64)), 1 at 5000
        // (bucket [4096,8192)).
        for _ in 0..99 {
            h.record(40);
        }
        h.record(5000);
        assert_eq!(h.count(), 100);
        assert_eq!(h.max(), 5000);
        assert_eq!(h.p50(), 63); // upper edge of [32,64)
        assert_eq!(h.p99(), 63); // rank 99 still in the 40s bucket
        assert_eq!(h.p999(), 5000); // rank 100, clamped to observed max
        assert!((h.mean() - (99.0 * 40.0 + 5000.0) / 100.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_handles_zero_and_empty() {
        let h = LatencyHistogram::new();
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p999(), 0);
        assert_eq!(h.mean(), 0.0);
        let mut h = LatencyHistogram::new();
        h.record(0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn histogram_json_roundtrip_is_exact() {
        let m = sample_open_loop();
        let text = m.read_latency.to_json().render();
        let back = LatencyHistogram::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, m.read_latency);
        assert_eq!(back.to_json().render(), text);
        // Strict: a truncated bucket array is rejected.
        let bad = Json::parse(r#"{"buckets":[1,2,3],"count":6,"sum":6,"max":3}"#).unwrap();
        assert!(LatencyHistogram::from_json(&bad).is_err());
    }

    #[test]
    fn open_loop_metrics_roundtrip_in_run_metrics() {
        let mut m = run(vec![]);
        m.open_loop = Some(sample_open_loop());
        let text = m.to_json().render();
        let back = RunMetrics::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.to_json().render(), text);
        let ol = back.open_loop.expect("open_loop must survive");
        assert_eq!(ol, sample_open_loop());
        assert_eq!(ol.offered_rpkc.to_bits(), 120.5f64.to_bits());
        // A closed-loop record decodes to no open-loop block.
        let closed = run(vec![core(1.0)]);
        let back =
            RunMetrics::from_json(&Json::parse(&closed.to_json().render()).unwrap()).unwrap();
        assert_eq!(back.open_loop, None);
        // A present-but-stripped open-loop block fails loud.
        let mut j = m.to_json();
        if let Json::Obj(pairs) = &mut j {
            for (k, v) in pairs.iter_mut() {
                if k == "open_loop" {
                    *v = strip_key(v, "saturated");
                }
            }
        }
        assert!(RunMetrics::from_json(&j).is_err());
    }

    #[test]
    fn json_decode_rejects_non_objects() {
        assert!(RunMetrics::from_json(&Json::Num(1.0)).is_err());
        assert!(CoreMetrics::from_json(&Json::Arr(vec![])).is_err());
    }

    #[test]
    fn json_decode_fails_loud_on_stripped_fields() {
        // Regression (ISSUE 8): the old decoder silently defaulted
        // missing fields to zero, so a record from before a schema
        // change deserialized as phantom zeros and diff/export reported
        // fake regressions. Stripping any required field must now be a
        // hard decode error that names the missing key.
        let full = run(vec![core(1.0)]).to_json().render();
        let parsed = Json::parse(&full).unwrap();
        assert!(RunMetrics::from_json(&parsed).is_ok());

        for key in [
            "system",
            "cores",
            "total_cycles",
            "energy",
            "refreshes",
            "sram_hit_rate",
            "sram_lookups",
            "prefetches",
            "analysis",
            "row_hit_rate",
            "avg_read_latency",
            "hit_cycle_cap",
        ] {
            let stripped = strip_key(&parsed, key);
            let err = RunMetrics::from_json(&stripped)
                .expect_err(&format!("decode must fail without `{key}`"));
            assert!(err.contains(key), "error for `{key}` should name it: {err}");
        }

        // A bare skeleton (the old lenient decoder's happy case) fails.
        let j = Json::parse(r#"{"system":"Baseline","cores":[]}"#).unwrap();
        assert!(RunMetrics::from_json(&j).is_err());
    }

    fn strip_key(j: &Json, key: &str) -> Json {
        match j {
            Json::Obj(pairs) => {
                Json::Obj(pairs.iter().filter(|(k, _)| k != key).cloned().collect())
            }
            other => other.clone(),
        }
    }

    #[test]
    fn json_decode_rejects_mistyped_fields() {
        let full = run(vec![core(1.0)]).to_json();
        let mut pairs = match full {
            Json::Obj(p) => p,
            _ => unreachable!(),
        };
        for (k, v) in pairs.iter_mut() {
            if k == "total_cycles" {
                *v = Json::Str("fifty".into());
            }
        }
        let err = RunMetrics::from_json(&Json::Obj(pairs)).unwrap_err();
        assert!(err.contains("total_cycles"), "{err}");
    }

    #[test]
    fn json_decode_applies_pre_v1_defaults() {
        // Fields that predate the strict decoder carry explicit
        // versioned defaults: absent is fine, mistyped is still an
        // error (covered above for required fields; same helpers).
        let full = run(vec![core(1.0)]).to_json();
        let mut j = full;
        for key in [
            "mechanism",
            "refresh_blocked_cycles",
            "refreshes_skipped",
            "refreshes_pulled_in",
            "wall_seconds",
            "instructions_total",
            "events",
        ] {
            j = strip_key(&j, key);
        }
        let m = RunMetrics::from_json(&j).unwrap();
        assert_eq!(m.mechanism, "allbank");
        assert_eq!(m.refresh_blocked_cycles, 0);
        assert_eq!(m.refreshes_skipped, 0);
        assert_eq!(m.refreshes_pulled_in, 0);
        assert_eq!(m.wall_seconds, 0.0);
        assert_eq!(m.instructions_total, 0);
        assert_eq!(m.events, 0);
        // An un-audited record decodes to no audit summary.
        assert_eq!(m.audit, None);
    }
}
