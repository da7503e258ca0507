//! Shared pieces: the result line, robust statistics, process memory and
//! the simulated-output fingerprint the determinism checks compare.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use rop_sim_system::RunMetrics;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run reports: job accounting plus its metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable reasons for every failed check (printed to stderr).
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records a failed check against the job it belongs to.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failures.push(why.into());
    }

    /// `jobs passing every check / jobs attempted`.
    pub fn ok_ratio(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.failures.is_empty(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                v,
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    let n = xs.len().max(1) as f64;
    (xs.iter().map(|x| x.ln()).sum::<f64>() / n).exp()
}

/// Host seconds `f` took, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// The simulated part of a run's metrics: everything but host time, so
/// two runs of the same inputs must produce identical strings.
pub fn sim_fingerprint(m: &RunMetrics) -> String {
    let mut m = m.clone();
    m.wall_seconds = 0.0;
    m.to_json().render()
}

/// Runs `f`, turning a panic into an error carrying its message.
pub fn catch<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .map_err(|p| rop_sim_system::runner::panic_message(&*p))
}

/// Busy-waits `d` (the planted slowdown: a sleep would be rounded up to
/// the scheduler's tick).
pub fn spin(d: Duration) {
    let t = Instant::now();
    while t.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// Seeds a run cycles through, one per pass. A seed's traffic can cost
/// up to a fifth more host time than another's (openloop-knee, seed 1
/// against seeds 2–4), so a run averages over several.
pub const SUB_SEEDS: usize = 3;

/// The seed of pass `pass` of a run with seed `seed`.
pub fn pass_seed(seed: u64, pass: usize) -> u64 {
    seed.wrapping_mul(SUB_SEEDS as u64)
        .wrapping_add((pass % SUB_SEEDS) as u64)
}

/// Repeats `f` until `budget` seconds have passed and at least `min`
/// repetitions ran, in whole cycles of [`SUB_SEEDS`] repetitions, so
/// every pass seed is measured equally often; returns each repetition's
/// result.
pub fn repeat_for<R>(budget: f64, min: usize, mut f: impl FnMut(usize) -> R) -> Vec<R> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || start.elapsed().as_secs_f64() < budget || out.len() % SUB_SEEDS != 0 {
        out.push(f(out.len()));
    }
    out
}

/// Seconds of one pass over a job list, estimated robustly from several
/// passes (over every pass seed): the sum over jobs of each job's median
/// time.
pub fn pass_time<M>(passes: &[Vec<(M, f64)>]) -> f64 {
    (0..passes[0].len())
        .map(|j| median(&passes.iter().map(|p| p[j].1).collect::<Vec<_>>()))
        .sum()
}

/// Seconds [`kernel`] is defined to take: its uncontended time on the
/// development host (Intel Xeon, 2 vCPUs). Calibrated seconds are host
/// seconds rescaled so that the kernel takes exactly this long.
pub const KERNEL_NOMINAL_S: f64 = 1.25e-3;

/// The calibration kernel: 16 independent multiply-add chains. It uses
/// none of the program's code, so a change to the program leaves it
/// alone.
///
/// The development host shares its cores with other tenants, whose load
/// comes and goes in phases from under a second to many minutes. While
/// it is high, this throughput-bound simulator runs up to twice as slow,
/// and so does this kernel, which needs the same execution ports;
/// kernels bound by latency or by cache misses barely slow. Over a
/// 40-second probe the simulator's 2-second medians ranged 1.97×, their
/// ratio to this kernel 1.14×.
pub fn kernel() -> f64 {
    let (acc, s) = timed(|| {
        let mut a = [1u64; 16];
        for i in 0..std::hint::black_box(200_000u64) {
            for (j, x) in a.iter_mut().enumerate() {
                *x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(i ^ j as u64);
            }
        }
        a.iter().fold(0, |s, x| s ^ x)
    });
    std::hint::black_box(acc);
    s
}

/// A clock that reads calibrated seconds: the interval it measures is cut
/// into segments at each [`CalClock::mark`], a [`kernel`] is timed at
/// every cut, and each segment's host seconds are scaled by
/// [`KERNEL_NOMINAL_S`] over the mean of the two kernel readings around
/// it. Kernel time itself is not counted.
pub struct CalClock {
    segment: Instant,
    kernel: f64,
    total: f64,
    raw: f64,
}

impl CalClock {
    pub fn start() -> Self {
        let kernel = kernel();
        CalClock {
            segment: Instant::now(),
            kernel,
            total: 0.0,
            raw: 0.0,
        }
    }

    /// Closes the current segment and opens the next.
    pub fn mark(&mut self) {
        let raw = self.segment.elapsed().as_secs_f64();
        let k = kernel();
        self.total += raw * 2.0 * KERNEL_NOMINAL_S / (self.kernel + k);
        self.raw += raw;
        self.kernel = k;
        self.segment = Instant::now();
    }

    /// Calibrated seconds from the start to now.
    pub fn read(&mut self) -> f64 {
        self.mark();
        self.total
    }

    /// Host seconds of the segments closed so far, kernels excluded.
    pub fn raw(&self) -> f64 {
        self.raw
    }
}

/// Calibrated seconds `f` took (see [`CalClock`]), with its result.
pub fn timed_cal<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let mut clock = CalClock::start();
    let r = f();
    (r, clock.read())
}

/// Prints the quartiles of a run's samples of `name` to stderr.
pub fn note_samples(name: &str, xs: &[f64]) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |f: f64| v[((v.len() - 1) as f64 * f) as usize];
    eprintln!(
        "# {name}: {} samples, min {:.6} q1 {:.6} median {:.6} q3 {:.6} max {:.6}",
        v.len(),
        v[0],
        q(0.25),
        median(xs),
        q(0.75),
        v[v.len() - 1]
    );
}
