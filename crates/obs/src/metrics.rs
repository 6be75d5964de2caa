//! Metrics: counters, gauges, and log-linear histograms in a registry.
//!
//! The histogram is the workhorse: fixed-size, lock-free, allocation-free
//! after construction, with relative bucket error bounded by 1/32 (5
//! sub-bucket bits per octave) — plenty for p50/p95/p99 latency summaries
//! while staying cheap enough to record on every request.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Sub-bucket resolution bits: 32 linear sub-buckets per power of two.
const SUB_BITS: u32 = 5;
/// Values below this are counted exactly (bucket width 1).
const EXACT: u64 = 1 << (SUB_BITS + 1); // 64
/// Total buckets: 64 exact + 32 per octave for exponents 6..=63.
pub const BUCKETS: usize = EXACT as usize + 32 * (64 - (SUB_BITS as usize + 1)); // 1920

/// Bucket index for a sample. Exact below [`EXACT`]; log-linear above.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < EXACT {
        return v as usize;
    }
    let e = 63 - v.leading_zeros(); // e >= 6
    let sub = ((v >> (e - SUB_BITS)) & 31) as usize;
    EXACT as usize + (e as usize - (SUB_BITS as usize + 1)) * 32 + sub
}

/// Half-open `[lo, hi)` value range of bucket `i` (hi saturates at
/// `u64::MAX` for the top bucket).
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    if i < EXACT as usize {
        return (i as u64, i as u64 + 1);
    }
    let g = (i - EXACT as usize) / 32;
    let e = g as u32 + SUB_BITS + 1;
    let s = ((i - EXACT as usize) % 32) as u64;
    let lo = (32 + s) << (e - SUB_BITS);
    let hi = lo.saturating_add(1u64 << (e - SUB_BITS));
    (lo, hi)
}

/// Monotonic counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Point-in-time signed value.
#[derive(Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Histogram(count={}, sum={}, max={})", self.count(), self.sum(), self.max())
    }
}

/// Lock-free log-linear histogram over `u64` samples.
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            buckets: Box::new(std::array::from_fn(|_| AtomicU64::new(0))),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Nearest-rank quantile estimate: the lower bound of the bucket
    /// holding the rank-`ceil(q * count)` sample (so the estimate is
    /// within one bucket width below the exact quantile). An empty
    /// histogram reports 0 for every quantile — sparse and empty
    /// populations are handled uniformly, no window-fill assumptions.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((n as f64 * q).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_bounds(i).0;
            }
        }
        self.max()
    }

    /// Fold `other` into `self`: bucketwise count addition, summed
    /// totals, max of maxes. Used to aggregate per-worker histogram
    /// shards into one population before taking quantiles — recording
    /// into thread-local shards and merging once is cheaper than N
    /// threads contending on one histogram's cache lines. Merging is
    /// exact: the merged histogram is indistinguishable from one that
    /// recorded both sample streams directly.
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let c = theirs.load(Ordering::Relaxed);
            if c != 0 {
                mine.fetch_add(c, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(other.count(), Ordering::Relaxed);
        self.sum.fetch_add(other.sum(), Ordering::Relaxed);
        self.max.fetch_max(other.max(), Ordering::Relaxed);
    }

    /// Visit the non-empty buckets in index order as `(index, count)`.
    pub fn for_each_bucket(&self, mut f: impl FnMut(usize, u64)) {
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c != 0 {
                f(i, c);
            }
        }
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// Borrowed view of one registered metric, as yielded by
/// [`MetricsRegistry::for_each`]. Counters and gauges are read at visit
/// time; histograms hand out the live handle so the visitor chooses what
/// to snapshot.
pub enum MetricView<'a> {
    Counter(u64),
    Gauge(i64),
    Histogram(&'a Histogram),
}

/// A named set of metrics. Handles are `Arc`s: call sites keep their
/// handle and record lock-free; the registry is only locked to create or
/// enumerate. Instantiable (not global) so each subsystem — e.g. one
/// server instance — owns its metrics and tests don't share state.
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter named `name`. Panics if the name is
    /// already registered as a different metric type.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut m = self.metrics.lock().unwrap();
        match m.entry(name.to_string()).or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Visit every metric in name order (the registry's natural sort).
    /// The registry lock is held for the duration of the walk; visitors
    /// must not call back into the registry.
    pub fn for_each(&self, mut f: impl FnMut(&str, MetricView<'_>)) {
        let m = self.metrics.lock().unwrap();
        for (name, metric) in m.iter() {
            match metric {
                Metric::Counter(c) => f(name, MetricView::Counter(c.get())),
                Metric::Gauge(g) => f(name, MetricView::Gauge(g.get())),
                Metric::Histogram(h) => f(name, MetricView::Histogram(h)),
            }
        }
    }
}

impl fmt::Display for MetricsRegistry {
    /// One line per metric, name-sorted (BTreeMap order) for determinism.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = self.metrics.lock().unwrap();
        for (name, metric) in m.iter() {
            match metric {
                Metric::Counter(c) => writeln!(f, "{name}: {}", c.get())?,
                Metric::Gauge(g) => writeln!(f, "{name}: {}", g.get())?,
                Metric::Histogram(h) => writeln!(
                    f,
                    "{name}: count={} mean={:.1} p50={} p95={} p99={} max={}",
                    h.count(),
                    h.mean(),
                    h.quantile(0.50),
                    h.quantile(0.95),
                    h.quantile(0.99),
                    h.max()
                )?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_consistent() {
        // Every index maps to bounds that contain exactly the values that
        // map back to it, across the exact and log-linear regions.
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert!(lo < hi, "bucket {i} empty: [{lo}, {hi})");
            assert_eq!(bucket_index(lo), i, "lower bound of bucket {i}");
            if hi != u64::MAX {
                assert_eq!(bucket_index(hi - 1), i, "upper bound of bucket {i}");
            }
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(63), 63);
        assert_eq!(bucket_index(64), 64);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn exact_region_quantiles_are_exact() {
        let h = Histogram::new();
        for v in 1..=50u64 {
            h.record(v);
        }
        // All samples < 64 so every bucket has width 1: exact answers.
        assert_eq!(h.quantile(0.5), 25);
        assert_eq!(h.quantile(1.0), 50);
        assert_eq!(h.max(), 50);
        assert_eq!(h.count(), 50);
        assert_eq!(h.sum(), 50 * 51 / 2);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let h = Histogram::new();
        h.record(7);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 7, "q={q}");
        }
    }

    #[test]
    fn log_region_quantile_within_bucket_width() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        // Exact p99 of 1..=100 is 99; bucket [98, 100) reports 98.
        let p99 = h.quantile(0.99);
        assert!((98..=99).contains(&p99), "p99 = {p99}");
        assert_eq!(h.quantile(0.5), 50); // still exact below 64
    }

    #[test]
    fn registry_handles_are_shared_and_render_sorted() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("served");
        let b = reg.counter("served");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("served").get(), 3);
        reg.gauge("queue_depth").set(-1);
        reg.histogram("latency_us").record(10);
        let text = reg.to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("latency_us:"));
        assert!(lines[1].starts_with("queue_depth: -1"));
        assert!(lines[2].starts_with("served: 3"));
    }

    #[test]
    fn merge_equals_pooled_recording() {
        let a = Histogram::new();
        let b = Histogram::new();
        let pooled = Histogram::new();
        for v in [1u64, 5, 64, 1000, 1_000_000] {
            a.record(v);
            pooled.record(v);
        }
        for v in [2u64, 5, 128, 70_000] {
            b.record(v);
            pooled.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), pooled.count());
        assert_eq!(a.sum(), pooled.sum());
        assert_eq!(a.max(), pooled.max());
        let mut merged_buckets = Vec::new();
        a.for_each_bucket(|i, c| merged_buckets.push((i, c)));
        let mut pooled_buckets = Vec::new();
        pooled.for_each_bucket(|i, c| pooled_buckets.push((i, c)));
        assert_eq!(merged_buckets, pooled_buckets);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(a.quantile(q), pooled.quantile(q), "q={q}");
        }
    }

    #[test]
    fn merge_into_empty_copies_other() {
        let a = Histogram::new();
        let b = Histogram::new();
        b.record(42);
        a.merge(&b);
        assert_eq!(a.count(), 1);
        assert_eq!(a.quantile(0.5), 42);
        // Merging an empty histogram is a no-op.
        a.merge(&Histogram::new());
        assert_eq!(a.count(), 1);
        assert_eq!(a.sum(), 42);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_confusion_panics() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("x");
        let _ = reg.histogram("x");
    }
}
