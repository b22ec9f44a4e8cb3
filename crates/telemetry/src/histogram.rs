//! Log-linear latency histogram (HDR-style): every `u64` value maps to
//! one of 976 fixed buckets — the 16 exact values `0..16`, then 16
//! linear sub-buckets per power of two. Recording is lock-free (one
//! relaxed atomic increment per sample plus the count/sum/max updates),
//! the memory footprint is fixed (~8 KiB per histogram), and the
//! relative quantile error is bounded by the sub-bucket width: at most
//! 1/16 = 6.25 %. The maximum is tracked exactly.
//!
//! Percentile readout is deterministic: `value_at_percentile(q)` walks
//! the cumulative bucket counts to the bucket containing the
//! `ceil(q·count)`-th sample and returns that bucket's upper bound,
//! clamped to the exact observed maximum — so `value_at_percentile(1.0)
//! == max()` always, and hand-computed assertions at bucket edges are
//! stable (see the tests).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Sub-buckets per power of two (and the number of exact low values).
const SUB: u64 = 16;
/// log2(SUB).
const SUB_BITS: u32 = 4;
/// Total bucket count: 16 exact values + 60 octaves × 16 sub-buckets.
pub const BUCKETS: usize = (SUB as usize) + 60 * (SUB as usize);

/// Bucket index of `v` (total order preserving).
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // ≥ SUB_BITS
    let octave = (msb - SUB_BITS + 1) as usize;
    let sub = ((v >> (msb - SUB_BITS)) & (SUB - 1)) as usize;
    octave * SUB as usize + sub
}

/// Inclusive value range `[lo, hi]` covered by bucket `i`.
fn bucket_bounds(i: usize) -> (u64, u64) {
    if i < SUB as usize {
        return (i as u64, i as u64);
    }
    let octave = (i >> SUB_BITS) as u32; // ≥ 1
    let sub = (i as u64) & (SUB - 1);
    let width = 1u64 << (octave - 1);
    let lo = (SUB + sub) << (octave - 1);
    (lo, lo + (width - 1))
}

/// Shared histogram state. All counters are atomics so the service's
/// concurrent workers can record into one histogram without locks.
pub struct HistogramCore {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    /// Minimum tracked as `u64::MAX - min` so `fetch_max` works;
    /// `u64::MAX` sentinel means "no samples".
    min_inv: AtomicU64,
}

impl HistogramCore {
    fn new() -> HistogramCore {
        HistogramCore {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            min_inv: AtomicU64::new(0),
        }
    }
}

/// A lock-free log-linear histogram handle (cheaply clonable).
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Histogram {
        Histogram(Arc::new(HistogramCore::new()))
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        let c = &self.0;
        c.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
        c.max.fetch_max(v, Ordering::Relaxed);
        c.min_inv.fetch_max(u64::MAX - v, Ordering::Relaxed);
    }

    /// Record a duration in nanoseconds.
    pub fn record_nanos(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Exact maximum recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.0.max.load(Ordering::Relaxed)
    }

    /// Exact minimum recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        let inv = self.0.min_inv.load(Ordering::Relaxed);
        if self.count() == 0 {
            0
        } else {
            u64::MAX - inv
        }
    }

    /// Arithmetic mean of the recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket holding the `ceil(q·count)`-th smallest sample, clamped to
    /// the exact observed maximum. Returns 0 for an empty histogram.
    pub fn value_at_percentile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.0.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                let (_, hi) = bucket_bounds(i);
                return hi.min(self.max());
            }
        }
        self.max()
    }

    /// Reset every counter to zero.
    pub fn reset(&self) {
        let c = &self.0;
        for b in &c.buckets {
            b.store(0, Ordering::Relaxed);
        }
        c.count.store(0, Ordering::Relaxed);
        c.sum.store(0, Ordering::Relaxed);
        c.max.store(0, Ordering::Relaxed);
        c.min_inv.store(0, Ordering::Relaxed);
    }

    /// Point-in-time summary (count, sum, min/mean/max, key quantiles).
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            mean: self.mean(),
            p50: self.value_at_percentile(0.50),
            p90: self.value_at_percentile(0.90),
            p95: self.value_at_percentile(0.95),
            p99: self.value_at_percentile(0.99),
        }
    }
}

/// A snapshot of a histogram's headline statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistogramSummary {
    /// Sample count.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Exact minimum.
    pub min: u64,
    /// Exact maximum.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (bucket-resolution, clamped to max).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_values_are_exact_buckets() {
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, v));
        }
    }

    #[test]
    fn bucket_boundaries_hand_computed() {
        // First octave [16, 32): width-1 buckets 16..32.
        assert_eq!(bucket_index(16), 16);
        assert_eq!(bucket_index(31), 31);
        assert_eq!(bucket_bounds(16), (16, 16));
        assert_eq!(bucket_bounds(31), (31, 31));
        // Second octave [32, 64): width-2 buckets.
        assert_eq!(bucket_index(32), 32);
        assert_eq!(bucket_index(33), 32, "32 and 33 share a width-2 bucket");
        assert_eq!(bucket_index(34), 33);
        assert_eq!(bucket_index(63), 47);
        assert_eq!(bucket_bounds(32), (32, 33));
        assert_eq!(bucket_bounds(47), (62, 63));
        // Third octave [64, 128): width-4 buckets.
        assert_eq!(bucket_index(64), 48);
        assert_eq!(bucket_index(67), 48);
        assert_eq!(bucket_index(68), 49);
        assert_eq!(bucket_bounds(48), (64, 67));
        // Index is monotone across every octave edge.
        for v in 1..100_000u64 {
            assert!(bucket_index(v) >= bucket_index(v - 1), "v={v}");
        }
        // The top bucket covers u64::MAX.
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        let (_, hi) = bucket_bounds(BUCKETS - 1);
        assert_eq!(hi, u64::MAX);
    }

    #[test]
    fn percentiles_at_bucket_edges_hand_computed() {
        // 100 exact samples 0..100? No: keep everything under 16 so every
        // bucket is exact and the percentiles are exact too.
        let h = Histogram::new();
        for v in 1..=10u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.sum(), 55);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 10);
        // rank(0.5) = ceil(5) = 5 → value 5; rank(0.9) = 9 → value 9.
        assert_eq!(h.value_at_percentile(0.50), 5);
        assert_eq!(h.value_at_percentile(0.90), 9);
        assert_eq!(h.value_at_percentile(0.99), 10);
        assert_eq!(h.value_at_percentile(1.0), 10);
        // q = 0 still returns the smallest sample's bucket.
        assert_eq!(h.value_at_percentile(0.0), 1);
    }

    #[test]
    fn percentile_reports_bucket_upper_bound_clamped_to_max() {
        let h = Histogram::new();
        h.record(32); // bucket [32, 33]
        assert_eq!(h.value_at_percentile(0.5), 32, "upper bound 33 clamps to the exact max 32");
        h.record(33); // same bucket
        assert_eq!(h.value_at_percentile(1.0), 33);
        // A second sample far away: median is the first bucket's upper
        // bound (33), now no longer clamped.
        let h = Histogram::new();
        h.record(32);
        h.record(1000);
        assert_eq!(h.value_at_percentile(0.5), 33, "bucket upper bound");
        assert_eq!(h.max(), 1000);
        // 1000 lands in octave 6 ([512,1024), width 32): lo = (16+15)<<5
        // = 992, hi = 1023 → clamped to 1000.
        assert_eq!(bucket_bounds(bucket_index(1000)), (992, 1023));
        assert_eq!(h.value_at_percentile(1.0), 1000);
    }

    #[test]
    fn relative_error_bounded_by_sub_bucket_width() {
        let h = Histogram::new();
        for v in [100u64, 1_000, 10_000, 123_456, 9_999_999] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}]");
            assert!(
                (hi - lo) as f64 <= v as f64 / 16.0 + 1.0,
                "bucket width {} too wide for {v}",
                hi - lo
            );
            h.record(v);
        }
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn reset_zeroes_everything() {
        let h = Histogram::new();
        h.record(5);
        h.record(500);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.value_at_percentile(0.5), 0);
    }

    #[test]
    fn summary_is_consistent() {
        let h = Histogram::new();
        for v in 1..=4u64 {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 10);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.p50, 2);
        assert_eq!(s.max, 4);
    }
}
