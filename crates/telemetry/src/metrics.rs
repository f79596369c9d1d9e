//! The instruments: counters, gauges and histograms. Intervals are timed
//! by [`Span::timed`](crate::trace::Span::timed), which observes into a
//! [`Histogram`]; nothing here reads a clock.
//!
//! All instruments are lock-free (`Relaxed` atomics — each metric is an
//! independent statistic, so no cross-metric ordering is needed) and
//! compile to zero-sized no-ops without the `enabled` feature.

#[cfg(feature = "enabled")]
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};

/// Number of histogram buckets: one for zero plus one per power of two of
/// the `u64` range (`[2^(i-1), 2^i − 1]` for bucket `i ≥ 1`).
pub const BUCKETS: usize = 65;

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter {
    #[cfg(feature = "enabled")]
    value: AtomicU64,
}

impl Counter {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        #[cfg(feature = "enabled")]
        self.value.fetch_add(n, Relaxed);
        #[cfg(not(feature = "enabled"))]
        let _ = n;
    }

    /// Current value (0 when telemetry is compiled out).
    pub fn get(&self) -> u64 {
        #[cfg(feature = "enabled")]
        {
            self.value.load(Relaxed)
        }
        #[cfg(not(feature = "enabled"))]
        0
    }

    #[cfg_attr(not(feature = "enabled"), allow(dead_code))]
    pub(crate) fn reset(&self) {
        #[cfg(feature = "enabled")]
        self.value.store(0, Relaxed);
    }
}

/// A last-value instrument for integer quantities that go up and down
/// (queue depths, live regions).
#[derive(Debug, Default)]
pub struct Gauge {
    #[cfg(feature = "enabled")]
    value: AtomicI64,
}

impl Gauge {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        #[cfg(feature = "enabled")]
        self.value.store(v, Relaxed);
        #[cfg(not(feature = "enabled"))]
        let _ = v;
    }

    /// Adds `d` (may be negative).
    #[inline]
    pub fn add(&self, d: i64) {
        #[cfg(feature = "enabled")]
        self.value.fetch_add(d, Relaxed);
        #[cfg(not(feature = "enabled"))]
        let _ = d;
    }

    /// Current value (0 when telemetry is compiled out).
    pub fn get(&self) -> i64 {
        #[cfg(feature = "enabled")]
        {
            self.value.load(Relaxed)
        }
        #[cfg(not(feature = "enabled"))]
        0
    }

    #[cfg_attr(not(feature = "enabled"), allow(dead_code))]
    pub(crate) fn reset(&self) {
        #[cfg(feature = "enabled")]
        self.value.store(0, Relaxed);
    }
}

/// A last-value instrument for fractional quantities (hit rates, ratios);
/// stores the `f64` bit pattern in an atomic word.
#[derive(Debug, Default)]
pub struct FloatGauge {
    #[cfg(feature = "enabled")]
    bits: AtomicU64,
}

impl FloatGauge {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        #[cfg(feature = "enabled")]
        self.bits.store(v.to_bits(), Relaxed);
        #[cfg(not(feature = "enabled"))]
        let _ = v;
    }

    /// Current value (0.0 when telemetry is compiled out).
    pub fn get(&self) -> f64 {
        #[cfg(feature = "enabled")]
        {
            f64::from_bits(self.bits.load(Relaxed))
        }
        #[cfg(not(feature = "enabled"))]
        0.0
    }

    #[cfg_attr(not(feature = "enabled"), allow(dead_code))]
    pub(crate) fn reset(&self) {
        #[cfg(feature = "enabled")]
        self.bits.store(0, Relaxed);
    }
}

/// A log2-bucketed distribution of `u64` samples (typically nanoseconds).
///
/// Bucket 0 holds exact zeros; bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i − 1]`. 65 buckets cover the full `u64` range, so
/// recording never saturates or clips, and a bucket index is one
/// `leading_zeros` instruction — cheap enough for per-query hot paths.
/// Quantiles are estimated from the bucket counts with linear
/// interpolation inside the target bucket (see
/// [`HistogramSnapshot::quantile`]).
#[derive(Debug)]
pub struct Histogram {
    #[cfg(feature = "enabled")]
    buckets: [AtomicU64; BUCKETS],
    #[cfg(feature = "enabled")]
    count: AtomicU64,
    #[cfg(feature = "enabled")]
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for a sample: 0 for 0, else `64 − leading_zeros(v)`.
#[cfg(feature = "enabled")]
#[inline]
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i` (`0`, `2^i − 1`, …, `u64::MAX`).
pub(crate) fn bucket_upper_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

/// Inclusive lower bound of bucket `i`.
fn bucket_lower_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

impl Histogram {
    pub(crate) fn new() -> Self {
        Self {
            #[cfg(feature = "enabled")]
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            #[cfg(feature = "enabled")]
            count: AtomicU64::new(0),
            #[cfg(feature = "enabled")]
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn observe(&self, v: u64) {
        #[cfg(feature = "enabled")]
        {
            let i = bucket_index(v);
            self.buckets[i].fetch_add(1, Relaxed);
            self.count.fetch_add(1, Relaxed);
            self.sum.fetch_add(v, Relaxed);
        }
        #[cfg(not(feature = "enabled"))]
        let _ = v;
    }

    /// Number of recorded samples (0 when telemetry is compiled out).
    pub fn count(&self) -> u64 {
        #[cfg(feature = "enabled")]
        {
            self.count.load(Relaxed)
        }
        #[cfg(not(feature = "enabled"))]
        0
    }

    /// A point-in-time copy of the bucket counts. Buckets are read one by
    /// one without a global lock, so a snapshot taken during concurrent
    /// recording may be torn by a handful of in-flight samples — fine for
    /// reporting, which is the only consumer.
    pub fn snapshot(&self) -> HistogramSnapshot {
        #[cfg(feature = "enabled")]
        {
            HistogramSnapshot {
                count: self.count.load(Relaxed),
                sum: self.sum.load(Relaxed),
                buckets: self.buckets.iter().map(|b| b.load(Relaxed)).collect(),
            }
        }
        #[cfg(not(feature = "enabled"))]
        HistogramSnapshot {
            count: 0,
            sum: 0,
            buckets: vec![0; BUCKETS],
        }
    }

    #[cfg_attr(not(feature = "enabled"), allow(dead_code))]
    pub(crate) fn reset(&self) {
        #[cfg(feature = "enabled")]
        {
            for b in &self.buckets {
                b.store(0, Relaxed);
            }
            self.count.store(0, Relaxed);
            self.sum.store(0, Relaxed);
        }
    }
}

/// A point-in-time copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples (wrapping).
    pub sum: u64,
    /// Per-bucket (non-cumulative) counts; `buckets[i]` covers
    /// `[2^(i-1), 2^i − 1]` (bucket 0 is exact zeros).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Inclusive upper bound of bucket `i`.
    pub fn upper_bound(i: usize) -> u64 {
        bucket_upper_bound(i)
    }

    /// Mean sample value, or 0.0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`q` in `[0, 1]`).
    ///
    /// Interpolation rule: the target rank is the *nearest rank*
    /// `ceil(count · q)`, clamped to `[1, count]` (so `q = 0` targets the
    /// first sample and `q = 1` the last). The estimate is a linear
    /// interpolation between the lower and upper bound of the bucket
    /// containing that rank, at fraction `(rank − seen) / bucket_count`
    /// through the bucket. With power-of-two buckets the result is exact
    /// to within one power of two; an empty histogram returns 0.0.
    ///
    /// Consequences worth knowing:
    /// - a single observation yields the same estimate for every `q`
    ///   (always the bucket's upper bound, since `frac = 1`), which may
    ///   be *above* the observed value but never above its bucket bound;
    /// - `q = 0` does **not** return the bucket lower bound — it returns
    ///   the rank-1 interpolation point, strictly inside the first
    ///   non-empty bucket.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]` or NaN.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.count == 0 {
            return 0.0;
        }
        let target = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= target {
                let lb = bucket_lower_bound(i) as f64;
                let ub = bucket_upper_bound(i) as f64;
                let frac = (target - seen) as f64 / n as f64;
                return lb + (ub - lb) * frac;
            }
            seen += n;
        }
        bucket_upper_bound(BUCKETS - 1) as f64
    }

    /// The pre-interpolation quantile estimate: the inclusive *upper
    /// bound* of the bucket containing the nearest-rank sample
    /// (`ceil(count · q)` clamped to `[1, count]`). Always ≥
    /// [`quantile`](Self::quantile) for the same `q`, and biased high by
    /// up to 2× on log2 buckets — kept for consumers that want a
    /// conservative (never-underestimating) latency bound.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]` or NaN.
    pub fn quantile_upper_bound(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.count == 0 {
            return 0.0;
        }
        let target = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if n > 0 && seen >= target {
                return bucket_upper_bound(i) as f64;
            }
        }
        bucket_upper_bound(BUCKETS - 1) as f64
    }
}
