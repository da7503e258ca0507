//! Outside-in span tracer.
//!
//! Every call the benchmark makes into a layer's public API can be wrapped
//! in a span: name (the layer), start, end and the span that was open when
//! it began (its parent). Spans nest on a per-thread stack, so a layer's
//! *self* time is its span time minus the time of the spans opened inside
//! it — `Core::tick` minus the cache and controller calls its submit
//! closure makes, for example.
//!
//! Aggregates (calls, total and self time per layer) cover every span.
//! The raw span records are kept in memory up to a fixed cap and written
//! out when the benchmark ends; the cap keeps a multi-million-span run
//! from growing the process's memory without bound.
//!
//! Tracing is off unless [`enable`] was called on the thread, and the
//! untraced workloads never go through the wrappers at all.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The layers the trace splits host time across.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The engine loop (the benchmark's replica of it).
    Sim,
    /// Workload generators: `WorkloadGen::next_record`, `ArrivalGen`.
    Trace,
    /// `rop_cpu::Core` calls.
    Cpu,
    /// `rop_cache::Cache` calls.
    Cache,
    /// `MemController::tick`.
    MemctrlTick,
    /// `MemController::enqueue_read` / `enqueue_write`.
    MemctrlEnqueue,
    /// `MemController` drains and queue probes.
    MemctrlDrain,
    /// `TimingWheel` calls.
    Wheel,
    /// `render_experiment` through the store executor, minus its children.
    Harness,
    /// `plan_jobs`.
    HarnessPlan,
    /// Store reads (through the counting `StoreIo`).
    StoreLoad,
    /// Store appends (through the counting `StoreIo`).
    StoreAppend,
    /// Simulation jobs the harness pool runs.
    HarnessJob,
    /// `lint_jobs`.
    LintConfig,
    /// `mech::gate_jobs`.
    LintMech,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 15] = [
        Layer::Sim,
        Layer::Trace,
        Layer::Cpu,
        Layer::Cache,
        Layer::MemctrlTick,
        Layer::MemctrlEnqueue,
        Layer::MemctrlDrain,
        Layer::Wheel,
        Layer::Harness,
        Layer::HarnessPlan,
        Layer::StoreLoad,
        Layer::StoreAppend,
        Layer::HarnessJob,
        Layer::LintConfig,
        Layer::LintMech,
    ];

    /// Span name as written to the span log.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Sim => "sim",
            Layer::Trace => "trace",
            Layer::Cpu => "cpu",
            Layer::Cache => "cache",
            Layer::MemctrlTick => "memctrl.tick",
            Layer::MemctrlEnqueue => "memctrl.enqueue",
            Layer::MemctrlDrain => "memctrl.other",
            Layer::Wheel => "wheel",
            Layer::Harness => "harness",
            Layer::HarnessPlan => "harness.plan",
            Layer::StoreLoad => "harness.load",
            Layer::StoreAppend => "harness.append",
            Layer::HarnessJob => "harness.job",
            Layer::LintConfig => "lint.config",
            Layer::LintMech => "lint.mech",
        }
    }
}

/// Calls, total and self time of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    /// Spans closed.
    pub calls: u64,
    /// Summed span durations.
    pub total: Duration,
    /// Summed span durations minus their child spans.
    pub self_time: Duration,
}

/// One recorded span, times in nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy)]
struct SpanRec {
    id: u64,
    /// 0 for a root span.
    parent: u64,
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
}

struct Frame {
    id: u64,
    layer: Layer,
    start: Instant,
    child: Duration,
}

struct Tracer {
    epoch: Instant,
    next_id: u64,
    stack: Vec<Frame>,
    totals: [LayerTotals; Layer::ALL.len()],
    log: Vec<SpanRec>,
    log_cap: usize,
    dropped: u64,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts tracing on this thread, discarding any previous trace. At most
/// `log_cap` span records are kept for [`write_log`].
pub fn enable(log_cap: usize) {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            epoch: Instant::now(),
            next_id: 1,
            stack: Vec::with_capacity(64),
            totals: [LayerTotals::default(); Layer::ALL.len()],
            log: Vec::with_capacity(log_cap),
            log_cap,
            dropped: 0,
        })
    });
}

/// Stops tracing on this thread.
pub fn disable() {
    TRACER.with(|t| *t.borrow_mut() = None);
}

fn open(layer: Layer) {
    TRACER.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            let id = tr.next_id;
            tr.next_id += 1;
            tr.stack.push(Frame {
                id,
                layer,
                start: Instant::now(),
                child: Duration::ZERO,
            });
        }
    });
}

fn close() {
    TRACER.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            let end = Instant::now();
            let f = tr.stack.pop().expect("span close without open");
            tr.close_frame(f, end);
        }
    });
}

impl Tracer {
    fn close_frame(&mut self, f: Frame, end: Instant) {
        let dur = end.saturating_duration_since(f.start);
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child += dur;
                p.id
            }
            None => 0,
        };
        let tot = &mut self.totals[f.layer as usize];
        tot.calls += 1;
        tot.total += dur;
        tot.self_time += dur.saturating_sub(f.child);
        if self.log.len() < self.log_cap {
            self.log.push(SpanRec {
                id: f.id,
                parent,
                layer: f.layer,
                start_ns: f.start.saturating_duration_since(self.epoch).as_nanos() as u64,
                end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
            });
        } else {
            self.dropped += 1;
        }
    }
}

/// Runs `f` inside a span of `layer` (a plain call when tracing is off).
#[inline]
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    open(layer);
    let r = f();
    close();
    r
}

/// Records a span that ran on another thread while this thread waited
/// inside its currently open span (the harness pool's worker running a
/// job): it becomes a child of that open span.
pub fn record_foreign(layer: Layer, start: Instant, end: Instant) {
    TRACER.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            let id = tr.next_id;
            tr.next_id += 1;
            let f = Frame {
                id,
                layer,
                start,
                child: Duration::ZERO,
            };
            tr.close_frame(f, end);
        }
    });
}

/// Per-layer totals so far (all zero when tracing is off).
pub fn totals() -> Vec<(Layer, LayerTotals)> {
    TRACER.with(|t| match t.borrow().as_ref() {
        Some(tr) => Layer::ALL
            .into_iter()
            .map(|l| (l, tr.totals[l as usize]))
            .collect(),
        None => Layer::ALL
            .into_iter()
            .map(|l| (l, LayerTotals::default()))
            .collect(),
    })
}

/// Totals of one layer.
pub fn layer(l: Layer) -> LayerTotals {
    totals()
        .into_iter()
        .find(|(x, _)| *x == l)
        .map(|(_, t)| t)
        .unwrap_or_default()
}

/// Writes the kept span records as JSON lines
/// (`{"id","parent","name","start_ns","end_ns"}`) to `path`, followed by
/// one line counting the spans past the cap.
pub fn write_log(path: &std::path::Path) -> std::io::Result<()> {
    let text = TRACER.with(|t| {
        let b = t.borrow();
        let Some(tr) = b.as_ref() else {
            return String::new();
        };
        let mut out = String::with_capacity(tr.log.len() * 80);
        for s in &tr.log {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent,
                s.layer.name(),
                s.start_ns,
                s.end_ns
            );
        }
        let _ = writeln!(out, "{{\"spans_not_kept\":{}}}", tr.dropped);
        out
    });
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}
