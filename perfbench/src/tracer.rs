//! Timing seen from outside the library: a transparent
//! [`OnlineScheduler`] wrapper that times every hook, and a log-linear
//! histogram that keeps the wrapper allocation-free on the event path.

use dlflow_sim::engine::{ActiveSet, Allocation, JobView, OnlineScheduler, ResolveStats};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Sub-buckets per power of two: bucket bounds are within 1/16 (6.25 %)
/// of any recorded value.
const SUB: usize = 16;
const SUB_BITS: u32 = 4;
const BUCKETS: usize = 64 * SUB;

/// A fixed-size log-linear histogram of nanosecond durations. Recording
/// never allocates, so it can sit on the engine's event path without
/// moving the allocation count it is measured beside.
#[derive(Clone)]
pub struct Hist {
    counts: Box<[u64; BUCKETS]>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: Box::new([0; BUCKETS]),
            n: 0,
        }
    }
}

impl Hist {
    fn index(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let e = 63 - v.leading_zeros(); // e >= SUB_BITS
        let mant = (v >> (e - SUB_BITS)) as usize & (SUB - 1);
        (e - SUB_BITS + 1) as usize * SUB + mant
    }

    /// The midpoint of bucket `i`'s value range.
    fn value(i: usize) -> f64 {
        if i < SUB {
            return i as f64;
        }
        let e = (i / SUB) as u32 + SUB_BITS - 1;
        let mant = (i % SUB) as u64;
        let lo = (SUB as u64 + mant) << (e - SUB_BITS);
        lo as f64 + (1u64 << (e - SUB_BITS)) as f64 / 2.0
    }

    /// Records one duration.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.n += 1;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.n += other.n;
    }

    /// Nearest-rank quantile `q ∈ [0, 1]`, as a bucket midpoint; 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value(i);
            }
        }
        unreachable!("rank <= n")
    }
}

/// Per-hook counts and wall time of one wrapped policy.
#[derive(Clone, Default)]
pub struct HookStats {
    /// `plan` calls.
    pub plans: u64,
    /// Nanoseconds inside `plan`.
    pub plan_ns: u64,
    /// Distribution of single `plan` calls.
    pub plan_hist: Hist,
    /// `on_arrival` calls.
    pub arrivals: u64,
    /// `on_completion` calls.
    pub completions: u64,
    /// Nanoseconds inside every hook, `plan` included.
    pub hook_ns: u64,
    /// Heap allocations inside every hook (counted when `allocmeter` is
    /// the global allocator). The count is process-wide, so in a
    /// multi-threaded drain a hook's window can take in another
    /// thread's allocations.
    pub hook_allocs: u64,
}

impl HookStats {
    /// Adds another policy's counts (sharded runs, campaign scenarios).
    pub fn merge(&mut self, o: &HookStats) {
        self.plans += o.plans;
        self.plan_ns += o.plan_ns;
        self.plan_hist.merge(&o.plan_hist);
        self.arrivals += o.arrivals;
        self.completions += o.completions;
        self.hook_ns += o.hook_ns;
        self.hook_allocs += o.hook_allocs;
    }
}

/// A transparent policy wrapper: every [`OnlineScheduler`] method
/// delegates to the wrapped policy unchanged, and the mutating hooks are
/// timed with [`Instant`]. The report a run renders through it must be
/// byte-identical to the unwrapped run's; the benchmark checks that on
/// every traced run.
///
/// Counts are kept locally and merged into the shared sink when the
/// wrapper drops: a sharded drain owns its policies as
/// `Box<dyn OnlineScheduler>`, so nothing can be read back out of them.
pub struct Traced {
    inner: Box<dyn OnlineScheduler + Send>,
    stats: HookStats,
    sink: Arc<Mutex<HookStats>>,
}

impl Traced {
    /// Wraps `inner`; its counts go to `sink` on drop.
    pub fn new(inner: Box<dyn OnlineScheduler + Send>, sink: Arc<Mutex<HookStats>>) -> Traced {
        Traced {
            inner,
            stats: HookStats::default(),
            sink,
        }
    }
}

impl Drop for Traced {
    fn drop(&mut self) {
        // A poisoned sink means another wrapper panicked; that run is
        // already failed, so its counts may be dropped.
        if let Ok(mut total) = self.sink.lock() {
            total.merge(&self.stats);
        }
    }
}

/// Where a hook started: wall clock and allocation count.
struct Span(Instant, u64);

impl Span {
    fn start() -> Span {
        Span(Instant::now(), allocmeter::alloc_count())
    }

    /// Adds the hook's time and allocations to `stats`; returns its ns.
    fn end(self, stats: &mut HookStats) -> u64 {
        let ns = self.0.elapsed().as_nanos() as u64;
        stats.hook_ns += ns;
        stats.hook_allocs += allocmeter::alloc_count() - self.1;
        ns
    }
}

impl OnlineScheduler for Traced {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn on_arrival(&mut self, now: f64, job: JobView<'_>) {
        let span = Span::start();
        self.inner.on_arrival(now, job);
        span.end(&mut self.stats);
        self.stats.arrivals += 1;
    }

    fn on_completion(&mut self, now: f64, job_id: usize) {
        let span = Span::start();
        self.inner.on_completion(now, job_id);
        span.end(&mut self.stats);
        self.stats.completions += 1;
    }

    fn plan(&mut self, now: f64, active: &ActiveSet<'_>, alloc: &mut Allocation) {
        let span = Span::start();
        self.inner.plan(now, active, alloc);
        let ns = span.end(&mut self.stats);
        self.stats.plans += 1;
        self.stats.plan_ns += ns;
        self.stats.plan_hist.record(ns);
    }

    fn on_platform_change(&mut self, now: f64, up: &[bool]) {
        let span = Span::start();
        self.inner.on_platform_change(now, up);
        span.end(&mut self.stats);
    }

    fn snapshot_state(&self) -> String {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        let span = Span::start();
        let r = self.inner.restore_state(state);
        span.end(&mut self.stats);
        r
    }

    fn reset(&mut self) {
        let span = Span::start();
        self.inner.reset();
        span.end(&mut self.stats);
    }

    fn resolve_stats(&self) -> Option<ResolveStats> {
        self.inner.resolve_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_within_a_bucket() {
        let mut h = Hist::default();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (q, exact) in [(0.5, 5_000.0), (0.99, 9_900.0), (1.0, 10_000.0)] {
            let got = h.quantile(q);
            assert!((got - exact).abs() / exact < 1.0 / SUB as f64, "{q}: {got}");
        }
        assert_eq!(Hist::default().quantile(0.5), 0.0);
        for v in [0u64, 1, 15, 16, 17, 31, 32, 1 << 40, u64::MAX] {
            let i = Hist::index(v);
            assert!(i < BUCKETS);
            let mid = Hist::value(i);
            assert!(v < SUB as u64 || (mid - v as f64).abs() <= v as f64 / SUB as f64);
        }
    }
}
