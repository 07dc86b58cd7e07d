//! Log-bucketed histograms: statics at instrumentation sites, fixed-size
//! relaxed-atomic bucket arrays, lazy self-registration — the same contract
//! as [`crate::Counter`] (one relaxed load while disabled, no allocation,
//! no registration).
//!
//! Buckets are logarithmic with [`SUB_BUCKETS`] sub-buckets per power of
//! two, giving ~3–6% relative resolution (≈2 significant figures) across
//! the full `u64` range — nanoseconds to minutes and beyond without
//! configuration. A histogram is a plain `[AtomicU64; N]`, so it is
//! const-initializable, never allocates, and merges across threads by
//! construction: every thread records into the same process-global atomics,
//! which makes the flush snapshot deterministic for deterministic workloads
//! at any thread count (value-based histograms like FTRAN nnz are
//! bit-identical 1-thread vs N-thread; duration histograms keep identical
//! counts with wall-clock-dependent bucket placement).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Sub-buckets per power of two. 16 sub-buckets bound the relative bucket
/// width to `1/16` (6.25%) of the bucket's lower edge.
pub const SUB_BUCKETS: usize = 16;
const SUB_BITS: u32 = 4; // log2(SUB_BUCKETS)

/// Total bucket count: values `< 16` map to exact unit buckets, every
/// octave `[2^m, 2^{m+1})` for `m in 4..=63` contributes [`SUB_BUCKETS`].
pub const N_BUCKETS: usize = SUB_BUCKETS + (64 - SUB_BITS as usize) * SUB_BUCKETS;

static HISTOGRAMS: Mutex<Vec<&'static Histogram>> = Mutex::new(Vec::new());

/// Maps a value to its bucket index. Exact for `v < 16`, then the top
/// [`SUB_BITS`] bits below the leading bit select the sub-bucket.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // >= SUB_BITS
    let octave = (msb - SUB_BITS) as usize;
    let sub = ((v >> (msb - SUB_BITS)) as usize) & (SUB_BUCKETS - 1);
    SUB_BUCKETS + octave * SUB_BUCKETS + sub
}

/// Inclusive lower bound of bucket `i` — the value quantiles report.
#[inline]
fn bucket_lower(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        return i as u64;
    }
    let octave = ((i - SUB_BUCKETS) / SUB_BUCKETS) as u32;
    let sub = ((i - SUB_BUCKETS) % SUB_BUCKETS) as u64;
    (SUB_BUCKETS as u64 + sub) << octave
}

/// Log-bucketed distribution recorder. Declare as a `static` next to the
/// code it measures:
///
/// ```
/// use a2a_obs::Histogram;
/// static FTRAN_NNZ: Histogram = Histogram::new("lp.ftran_nnz");
/// FTRAN_NNZ.record(42);
/// ```
///
/// Disabled cost: one relaxed load, nothing else — safe on the hottest
/// loops. Enabled cost: three relaxed `fetch_add`s plus one relaxed
/// `fetch_max` (plus a one-time registry insertion on first use).
pub struct Histogram {
    name: &'static str,
    buckets: [AtomicU64; N_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    registered: AtomicBool,
}

impl Histogram {
    pub const fn new(name: &'static str) -> Self {
        Histogram {
            name,
            buckets: [const { AtomicU64::new(0) }; N_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    #[inline]
    pub fn record(&'static self, v: u64) {
        if !crate::is_enabled() {
            return;
        }
        if !self.registered.load(Ordering::Relaxed) {
            self.register_slow();
        }
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Starts a duration measurement; the returned guard records the
    /// elapsed nanoseconds on drop. While disabled the guard is inert — no
    /// clock read on either end.
    #[inline]
    pub fn start(&'static self) -> HistogramTimer {
        if !crate::is_enabled() {
            return HistogramTimer { inner: None };
        }
        HistogramTimer {
            inner: Some((self, crate::now_nanos())),
        }
    }

    #[cold]
    fn register_slow(&'static self) {
        let Ok(mut reg) = HISTOGRAMS.lock() else {
            return;
        };
        // Re-check under the lock: two threads can both see `registered`
        // false, but only the first to take the lock inserts.
        if !self.registered.load(Ordering::Relaxed) {
            reg.push(self);
            self.registered.store(true, Ordering::Relaxed);
        }
    }
}

/// RAII duration recorder returned by [`Histogram::start`].
#[must_use = "a histogram timer measures the scope it is bound to"]
pub struct HistogramTimer {
    inner: Option<(&'static Histogram, u64)>,
}

impl Drop for HistogramTimer {
    fn drop(&mut self) {
        if let Some((hist, t0)) = self.inner {
            hist.record(crate::now_nanos().saturating_sub(t0));
        }
    }
}

/// Point-in-time histogram state captured by [`crate::flush`]. Only
/// nonzero buckets are materialized, as `(bucket lower bound, count)`
/// pairs in ascending bucket order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub name: &'static str,
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    /// `(inclusive lower bound, count)` for every nonzero bucket,
    /// ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Value at quantile `q` in `[0, 1]`: the lower bound of the bucket
    /// holding the `ceil(q * count)`-th recorded value. Reported values are
    /// therefore under-estimates by at most one bucket width (≤ 6.25% of
    /// the value). Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(lower, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return lower;
            }
        }
        self.buckets.last().map_or(0, |&(lower, _)| lower)
    }

    /// Arithmetic mean of recorded values (exact — tracked outside the
    /// buckets). 0.0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

pub(crate) fn snapshot() -> Vec<HistogramSnapshot> {
    let mut out: Vec<HistogramSnapshot> = match HISTOGRAMS.lock() {
        Ok(reg) => reg
            .iter()
            .map(|h| HistogramSnapshot {
                name: h.name,
                count: h.count.load(Ordering::Relaxed),
                sum: h.sum.load(Ordering::Relaxed),
                max: h.max.load(Ordering::Relaxed),
                buckets: h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter_map(|(i, b)| {
                        let n = b.load(Ordering::Relaxed);
                        (n > 0).then_some((bucket_lower(i), n))
                    })
                    .collect(),
            })
            .collect(),
        Err(_) => Vec::new(),
    };
    out.sort_by_key(|s| s.name);
    out
}

pub(crate) fn reset_all() {
    if let Ok(reg) = HISTOGRAMS.lock() {
        for h in reg.iter() {
            for b in &h.buckets {
                b.store(0, Ordering::Relaxed);
            }
            h.count.store(0, Ordering::Relaxed);
            h.sum.store(0, Ordering::Relaxed);
            h.max.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_lower_round_trip() {
        // Every value maps to a bucket whose [lower, next-lower) range
        // contains it, and small values are exact.
        for v in 0..SUB_BUCKETS as u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower(v as usize), v);
        }
        for &v in &[16u64, 17, 31, 32, 100, 1_000, 123_456_789, u64::MAX] {
            let i = bucket_index(v);
            let lower = bucket_lower(i);
            assert!(lower <= v, "lower {lower} > v {v}");
            if i + 1 < N_BUCKETS {
                assert!(bucket_lower(i + 1) > v, "v {v} not below next bucket");
            }
        }
    }

    #[test]
    fn bucket_lowers_are_strictly_increasing() {
        for i in 1..N_BUCKETS {
            assert!(bucket_lower(i) > bucket_lower(i - 1), "bucket {i}");
        }
        assert_eq!(bucket_index(u64::MAX), N_BUCKETS - 1);
    }

    #[test]
    fn relative_resolution_is_two_sig_figs() {
        // Bucket width / lower bound <= 1/16 for all v >= 16.
        for &v in &[16u64, 100, 5_000, 1_000_000_000, 60_000_000_000] {
            let i = bucket_index(v);
            let width = bucket_lower(i + 1) - bucket_lower(i);
            assert!(
                (width as f64) <= bucket_lower(i) as f64 / 16.0 + 1.0,
                "v={v} width={width} lower={}",
                bucket_lower(i)
            );
        }
    }
}
