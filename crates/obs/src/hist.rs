//! Log-bucketed latency histograms (HDR-style).
//!
//! A [`Histogram`] is a fixed array of `AtomicU64` bucket counters — no
//! allocation, no lock, no ordering stronger than `Relaxed` on the
//! record path. Buckets are log-linear: values below 2⁵ are exact
//! (unit-width buckets); every larger power-of-two range is split into
//! 2⁵ linear sub-buckets, so the quantile error is bounded by the log
//! base: a reported quantile `q` for a true value `v` satisfies
//! `v - q ≤ v / 32` (the report is the bucket's lower bound, hence
//! never an overestimate).
//!
//! [`ShardedHistogram`] spreads recording across per-thread shards
//! (threads are striped over [`HIST_SHARDS`] plain histograms by a
//! thread-local index drawn once per thread), keeping the record path
//! contention-free; shards merge losslessly at snapshot time — bucket
//! counts are plain sums, so `merge(shards)` equals the histogram of
//! the concatenated samples exactly.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// log₂ of the linear sub-bucket count per power-of-two range.
pub const SUB_BITS: u32 = 5;
/// Linear sub-buckets per power-of-two range (the inverse of the
/// relative error bound).
pub const SUB_BUCKETS: usize = 1 << SUB_BITS;
/// Power-of-two ranges: one unit-width range plus one per exponent
/// `SUB_BITS..=63`.
const RANGES: usize = 64 - SUB_BITS as usize + 1;
/// Total bucket slots.
pub const SLOTS: usize = RANGES * SUB_BUCKETS;

/// A lock-free log-bucketed histogram of `u64` samples (nanoseconds,
/// by convention).
pub struct Histogram {
    counts: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    /// Summarized — 2048 bucket counters would drown any containing
    /// struct's debug output.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count())
            .field("max", &s.max())
            .field("mean", &s.mean())
            .finish_non_exhaustive()
    }
}

impl Histogram {
    /// An empty histogram (allocates its fixed bucket array once).
    pub fn new() -> Histogram {
        Histogram {
            counts: (0..SLOTS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// The slot a value lands in.
    #[inline]
    pub fn index_of(v: u64) -> usize {
        if v < SUB_BUCKETS as u64 {
            v as usize
        } else {
            let exp = 63 - v.leading_zeros();
            let range = (exp - SUB_BITS + 1) as usize;
            let sub = ((v >> (exp - SUB_BITS)) & (SUB_BUCKETS as u64 - 1)) as usize;
            range * SUB_BUCKETS + sub
        }
    }

    /// The lower bound of a slot — the value quantiles report, so a
    /// quantile never overestimates and underestimates by at most
    /// `value / SUB_BUCKETS`.
    #[inline]
    pub fn lower_bound(slot: usize) -> u64 {
        let range = slot / SUB_BUCKETS;
        let sub = (slot % SUB_BUCKETS) as u64;
        if range == 0 {
            sub
        } else {
            (SUB_BUCKETS as u64 + sub) << (range - 1)
        }
    }

    /// Records one sample. Lock-free: two relaxed `fetch_add`s, one
    /// relaxed `fetch_max`, no allocation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.counts[Self::index_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Copies the counters out into an owned snapshot.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An owned, mergeable copy of a histogram's counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl HistSnapshot {
    /// Adds another snapshot's counts into this one (shard merging —
    /// exact, since buckets are plain sums).
    pub fn merge(&mut self, other: &HistSnapshot) {
        if self.counts.is_empty() {
            self.counts = vec![0; SLOTS];
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        // Wrapping, to match the recorder's atomic `fetch_add`: a sum
        // of u64 nanoseconds only wraps after centuries of recorded
        // time, but when it does, merged shards and a flat histogram
        // must still agree bit-for-bit.
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The counters accumulated since `before` (element-wise saturating
    /// difference). The maximum cannot be windowed after the fact, so
    /// the *current* maximum is kept — an overestimate when the true
    /// window maximum predates `before`.
    pub fn since(&self, before: &HistSnapshot) -> HistSnapshot {
        if before.counts.is_empty() {
            return self.clone();
        }
        HistSnapshot {
            counts: self
                .counts
                .iter()
                .zip(before.counts.iter())
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            count: self.count.saturating_sub(before.count),
            sum: self.sum.saturating_sub(before.sum),
            max: self.max,
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact running sum of the samples (not bucketed; wraps like the
    /// recorder's atomic).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample recorded (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the samples (exact, from the running sum).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The value at quantile `q` in `[0, 1]`: the lower bound of the
    /// first bucket whose cumulative count reaches `ceil(q · count)`.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (slot, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Histogram::lower_bound(slot);
            }
        }
        self.max
    }

    /// Collapses the snapshot into the fixed-size summary used in
    /// reports.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            p50: self.value_at_quantile(0.50),
            p90: self.value_at_quantile(0.90),
            p99: self.value_at_quantile(0.99),
            max: self.max,
            mean: self.mean(),
        }
    }
}

/// Fixed-size quantile summary of one histogram (all values in
/// nanoseconds). `Copy` so it can ride in `ExecReport`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Exact maximum.
    pub max: u64,
    /// Exact arithmetic mean.
    pub mean: u64,
}

/// Shards recording is striped over.
pub const HIST_SHARDS: usize = 16;

static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Each thread draws one stripe index for its lifetime, so a shard
    /// has a stable (usually singleton) writer set.
    static THREAD_SLOT: usize = NEXT_THREAD_SLOT.fetch_add(1, Ordering::Relaxed);
}

#[inline]
fn thread_shard() -> usize {
    THREAD_SLOT.with(|s| *s) % HIST_SHARDS
}

/// A histogram striped over [`HIST_SHARDS`] shards to keep concurrent
/// recording contention-free; merged losslessly at snapshot time.
pub struct ShardedHistogram {
    shards: Vec<Histogram>,
}

impl Default for ShardedHistogram {
    fn default() -> Self {
        ShardedHistogram::new()
    }
}

impl ShardedHistogram {
    /// An empty sharded histogram.
    pub fn new() -> ShardedHistogram {
        ShardedHistogram {
            shards: (0..HIST_SHARDS).map(|_| Histogram::new()).collect(),
        }
    }

    /// Records one sample into the calling thread's shard.
    #[inline]
    pub fn record(&self, v: u64) {
        self.shards[thread_shard()].record(v);
    }

    /// Merges every shard into one snapshot.
    pub fn merged(&self) -> HistSnapshot {
        let mut out = HistSnapshot {
            counts: vec![0; SLOTS],
            ..HistSnapshot::default()
        };
        for s in &self.shards {
            out.merge(&s.snapshot());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..SUB_BUCKETS as u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), SUB_BUCKETS as u64);
        for v in 0..SUB_BUCKETS as u64 {
            assert_eq!(Histogram::lower_bound(Histogram::index_of(v)), v);
        }
        assert_eq!(s.value_at_quantile(1.0 / SUB_BUCKETS as f64), 0);
    }

    #[test]
    fn buckets_are_contiguous_and_monotonic() {
        let mut last = 0usize;
        for exp in 0..64u32 {
            let v = 1u64 << exp;
            let i = Histogram::index_of(v);
            assert!(i >= last, "index monotone at 2^{exp}");
            assert!(i < SLOTS);
            assert!(Histogram::lower_bound(i) <= v);
            last = i;
        }
        assert_eq!(Histogram::index_of(u64::MAX), SLOTS - 1);
    }

    #[test]
    fn relative_error_bounded_by_log_base() {
        for v in [5u64, 31, 32, 33, 100, 1_000, 123_456, 1 << 40, u64::MAX / 3] {
            let rep = Histogram::lower_bound(Histogram::index_of(v));
            assert!(rep <= v);
            assert!(
                v - rep <= v / SUB_BUCKETS as u64,
                "error {} > {}/{} for {v}",
                v - rep,
                v,
                SUB_BUCKETS
            );
        }
    }

    #[test]
    fn quantiles_and_mean() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        assert_eq!(s.max(), 1000);
        assert_eq!(s.mean(), 500);
        let p50 = s.value_at_quantile(0.5);
        assert!(p50 <= 500 && p50 >= 500 - 500 / SUB_BUCKETS as u64);
        let p99 = s.value_at_quantile(0.99);
        assert!(p99 <= 990 && p99 >= 990 - 990 / SUB_BUCKETS as u64);
    }

    #[test]
    fn since_windows_counts() {
        let h = Histogram::new();
        h.record(10);
        let before = h.snapshot();
        h.record(20);
        h.record(20);
        let d = h.snapshot().since(&before);
        assert_eq!(d.count(), 2);
        assert_eq!(d.value_at_quantile(0.5), 20);
    }

    #[test]
    fn sharded_merge_equals_concat() {
        let sh = ShardedHistogram::new();
        let mut reference = Histogram::new();
        for v in [1u64, 50, 50, 999, 1 << 20] {
            sh.record(v);
            reference.record(v);
        }
        // Recording from one thread lands in one shard; merged() must
        // still equal the flat histogram.
        let _ = &mut reference;
        assert_eq!(sh.merged(), reference.snapshot());
    }
}
