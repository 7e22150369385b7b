//! Log-bucketed latency/size histograms with exact extrema and
//! percentile estimation.
//!
//! [`Hist`] is the workspace's one histogram type: 64 power-of-two
//! buckets (`buckets[i]` counts samples whose `floor(log2(v)) == i`,
//! with `v == 0` folded into bucket 0), plus exact `count`, `sum`,
//! `min`, and `max`. The record path is branch-light and allocation
//! free, so it is safe to call from the hottest simulation paths
//! (per-block splice stages, per-request disk service times).
//!
//! Percentiles are *estimates*: the reported value is the upper bound
//! of the bucket containing the target rank, clamped into the exact
//! `[min, max]` range. That makes p50/p90/p99/p999 accurate to within
//! a factor of two (much better near the observed extrema), which is
//! plenty for the order-of-magnitude stage comparisons the profiler
//! reports, while keeping the type `Copy`-free, fixed-size, and
//! mergeable.
//!
//! Histograms from different runs or shards [`merge`](Hist::merge)
//! exactly (bucket-wise addition; count/sum/min/max combine
//! losslessly), so merging is associative and commutative — a property
//! `tests/profile.rs` pins down.

use std::fmt;

use crate::json::Json;

/// A sampled witness for one histogram bucket: the concrete value plus
/// the trace/connection identity that produced it, linking a percentile
/// bucket in a bench artifact back to the span in the trace ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Exemplar {
    /// The recorded sample (same unit as the histogram).
    pub value: u64,
    /// Trace sequence number current when the sample's request began;
    /// `None` when the trace ring was off, so there is nothing to link to.
    pub trace_seq: Option<u64>,
    /// Connection (socket) id the sample belongs to.
    pub conn: u32,
}

/// A power-of-two bucketed histogram of `u64` samples (latencies in ns,
/// request sizes, queue depths).
#[derive(Clone)]
pub struct Hist {
    /// `buckets[i]` counts samples with `floor(log2(v)) == i` (bucket 0 also
    /// holds v == 0).
    buckets: [u64; 64],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
    /// Per-bucket exemplars, allocated lazily on the first
    /// [`Hist::record_with_exemplar`] so plain histograms stay heap-free
    /// and serialize exactly as before.
    exemplars: Option<Box<[Option<Exemplar>; 64]>>,
}

impl Default for Hist {
    fn default() -> Self {
        Self::new()
    }
}

impl Hist {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Hist {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            exemplars: None,
        }
    }

    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            63 - v.leading_zeros() as usize
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let idx = Self::bucket_of(v);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Records one sample and offers it as the bucket's exemplar. Each
    /// bucket keeps the largest-valued exemplar seen (first wins on
    /// ties), so the witness for a tail bucket is its worst case —
    /// deterministic under replay.
    pub fn record_with_exemplar(&mut self, v: u64, trace_seq: Option<u64>, conn: u32) {
        self.record(v);
        let slots = self.exemplars.get_or_insert_with(|| Box::new([None; 64]));
        let slot = &mut slots[Self::bucket_of(v)];
        if slot.is_none_or(|e| v > e.value) {
            *slot = Some(Exemplar {
                value: v,
                trace_seq,
                conn,
            });
        }
    }

    /// The exemplar witnessing bucket `i`, if one was offered.
    pub fn exemplar(&self, i: usize) -> Option<Exemplar> {
        self.exemplars.as_ref().and_then(|e| e.get(i).copied())?
    }

    /// The exemplar witnessing the bucket that contains the p-th
    /// percentile rank — e.g. `exemplar_at(0.999)` links the p999
    /// estimate to the actual request that produced it.
    pub fn exemplar_at(&self, p: f64) -> Option<Exemplar> {
        self.exemplar(self.percentile_bucket(p)?)
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The raw bucket counts (`buckets[i]` covers `[2^i, 2^(i+1))`).
    pub fn buckets(&self) -> &[u64; 64] {
        &self.buckets
    }

    /// Index of the bucket containing the p-th percentile rank, or
    /// `None` for an empty histogram / out-of-range `p`. This is the
    /// digest's native resolution: two histograms over the same
    /// distribution agree on the bucket even when min/max clamping
    /// makes their [`Hist::percentile`] values differ.
    pub fn percentile_bucket(&self, p: f64) -> Option<usize> {
        if self.count == 0 || !(0.0..=1.0).contains(&p) {
            return None;
        }
        let target = ((self.count as f64) * p).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Some(i);
            }
        }
        // Unreachable with a consistent count, but degrade to the top
        // occupied bucket rather than panicking.
        Some(Self::bucket_of(self.max))
    }

    /// Approximate p-th percentile (0.0–1.0) using bucket upper bounds.
    ///
    /// The raw estimate is the chosen bucket's upper bound, clamped into
    /// the exact observed `[min, max]`; the clamp means a bucket whose
    /// recorded samples straddle its boundary with `min`/`max` can never
    /// report below `min` or above `max`.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        let i = self.percentile_bucket(p)?;
        let hi = if i >= 63 { u64::MAX } else { (2u64 << i) - 1 };
        Some(hi.clamp(self.min, self.max))
    }

    /// Median estimate (`percentile(0.50)`).
    pub fn p50(&self) -> Option<u64> {
        self.percentile(0.50)
    }

    /// 90th percentile estimate.
    pub fn p90(&self) -> Option<u64> {
        self.percentile(0.90)
    }

    /// 99th percentile estimate.
    pub fn p99(&self) -> Option<u64> {
        self.percentile(0.99)
    }

    /// 99.9th percentile estimate.
    pub fn p999(&self) -> Option<u64> {
        self.percentile(0.999)
    }

    /// Folds `other` into `self` (bucket-wise addition). Exact:
    /// merging is associative and commutative, and count/sum/min/max
    /// combine losslessly.
    pub fn merge(&mut self, other: &Hist) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        if let Some(theirs) = other.exemplars.as_deref() {
            let ours = self.exemplars.get_or_insert_with(|| Box::new([None; 64]));
            for (slot, candidate) in ours.iter_mut().zip(theirs.iter()) {
                match (&slot, candidate) {
                    (None, Some(e)) => *slot = Some(*e),
                    (Some(cur), Some(e)) if e.value > cur.value => *slot = Some(*e),
                    _ => {}
                }
            }
        }
    }

    /// Serializes the summary the dashboards key on: exact
    /// count/min/mean/max plus the four estimated quantiles. Empty
    /// histograms render every statistic as `null` so consumers can
    /// distinguish "no samples" from "all zero".
    pub fn to_json(&self) -> Json {
        let num = |v: Option<u64>| match v {
            Some(v) => Json::Num(v as f64),
            None => Json::Null,
        };
        Json::obj()
            .with("count", Json::Num(self.count as f64))
            .with("min", num(self.min()))
            .with("mean", self.mean().map_or(Json::Null, Json::Num))
            .with("max", num(self.max()))
            .with("p50", num(self.p50()))
            .with("p90", num(self.p90()))
            .with("p99", num(self.p99()))
            .with("p999", num(self.p999()))
    }
}

impl fmt::Debug for Hist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Hist(n={}, min={:?}, mean={:?}, max={:?})",
            self.count,
            self.min(),
            self.mean(),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_basic_stats() {
        let mut h = Hist::new();
        for v in [1u64, 2, 3, 4, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(100));
        assert!((h.mean().unwrap() - 22.0).abs() < 1e-9);
    }

    #[test]
    fn hist_zero_sample() {
        let mut h = Hist::new();
        h.record(0);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(0));
    }

    #[test]
    fn hist_empty_is_none() {
        let h = Hist::new();
        assert_eq!(h.mean(), None);
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.p50(), None);
        assert_eq!(h.p999(), None);
    }

    #[test]
    fn hist_percentile_monotone() {
        let mut h = Hist::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.percentile(0.5).unwrap();
        let p99 = h.percentile(0.99).unwrap();
        assert!(p50 <= p99);
        assert!(p99 <= 1000 * 2); // bucket granularity bound
    }

    #[test]
    fn merge_matches_recording_everything_in_one() {
        let mut a = Hist::new();
        let mut b = Hist::new();
        let mut all = Hist::new();
        for v in [1u64, 5, 9, 200] {
            a.record(v);
            all.record(v);
        }
        for v in [0u64, 3, 4096, u64::MAX] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.sum(), all.sum());
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
        assert_eq!(a.buckets(), all.buckets());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Hist::new();
        for v in [7u64, 8, 9] {
            a.record(v);
        }
        let before = a.buckets().to_vec();
        a.merge(&Hist::new());
        assert_eq!(a.buckets().to_vec(), before);
        assert_eq!(a.count(), 3);
    }

    #[test]
    fn single_sample_percentiles_are_exact() {
        // With one sample every percentile clamps to [min, max] = the
        // sample itself, regardless of the bucket's upper bound.
        for v in [0u64, 1, 2, 3, 4095, 4096, u64::MAX] {
            let mut h = Hist::new();
            h.record(v);
            for p in [0.001, 0.5, 0.9, 0.99, 0.999, 1.0] {
                assert_eq!(h.percentile(p), Some(v), "p{p} of single {v}");
            }
        }
    }

    #[test]
    fn bucket_boundary_values_stay_in_range() {
        // Powers of two sit on bucket lower edges; the raw bucket upper
        // bound is 2v-1, so the [min, max] clamp is what keeps the
        // estimate honest. All-equal samples must report exactly v.
        for v in [1u64, 2, 8, 1 << 20, 1 << 62, 1 << 63] {
            let mut h = Hist::new();
            for _ in 0..10 {
                h.record(v);
            }
            assert_eq!(h.p50(), Some(v));
            assert_eq!(h.p999(), Some(v));
        }
        // Mixed boundary values: percentiles stay within the observed
        // range and are monotone in p.
        let mut h = Hist::new();
        for v in [4u64, 8, 16, 32] {
            h.record(v);
        }
        let (p50, p90, p99) = (h.p50().unwrap(), h.p90().unwrap(), h.p99().unwrap());
        assert!(p50 <= p90 && p90 <= p99);
        assert!((4..=32).contains(&p50) && (4..=32).contains(&p99));
    }

    #[test]
    fn straddled_bucket_percentile_never_reports_below_min() {
        // min=6 lands in bucket 2 ([4,8)), max=9 in bucket 3 ([8,16)):
        // the recorded extrema straddle the bucket-2/3 boundary. Every
        // percentile resolved from bucket 2 has a raw upper bound of 7,
        // which is >= min here — and the clamp guarantees that even if a
        // bucket's bound undercut the observed min, the report could
        // never fall below it.
        let mut h = Hist::new();
        for v in [6u64, 7, 8, 9] {
            h.record(v);
        }
        for p in [0.01, 0.25, 0.5, 0.75, 0.99, 0.999, 1.0] {
            let got = h.percentile(p).unwrap();
            assert!(
                (6..=9).contains(&got),
                "p{p} reported {got}, outside observed [6, 9]"
            );
        }
        // And monotone across the straddle.
        assert!(h.p50().unwrap() <= h.p99().unwrap());
    }

    #[test]
    fn percentile_always_within_observed_range_brute_force() {
        // Exhaustive small-sample sweep around bucket boundaries: for
        // every multiset drawn from values straddling powers of two, no
        // percentile may escape [min, max].
        let candidates = [0u64, 1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 1023, 1024];
        for &a in &candidates {
            for &b in &candidates {
                for &c in &candidates {
                    let mut h = Hist::new();
                    for v in [a, b, c] {
                        h.record(v);
                    }
                    let lo = a.min(b).min(c);
                    let hi = a.max(b).max(c);
                    for p in [0.0, 0.001, 0.5, 0.99, 0.999, 1.0] {
                        let got = h.percentile(p).unwrap();
                        assert!(
                            (lo..=hi).contains(&got),
                            "p{p} of {:?} reported {got}, outside [{lo}, {hi}]",
                            [a, b, c]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn exemplars_witness_buckets_and_survive_merge() {
        let mut h = Hist::new();
        assert_eq!(h.exemplar(0), None, "no exemplars until offered");
        h.record_with_exemplar(6, Some(100), 1); // bucket 2
        h.record_with_exemplar(7, Some(101), 2); // bucket 2, larger value wins
        h.record_with_exemplar(7, Some(102), 3); // tie: first winner kept
        h.record_with_exemplar(1 << 20, Some(200), 9);
        let e = h.exemplar(2).unwrap();
        assert_eq!((e.value, e.trace_seq, e.conn), (7, Some(101), 2));
        assert_eq!(h.exemplar(3), None);

        // The tail exemplar links the top percentile to its request.
        let tail = h.exemplar_at(0.999).unwrap();
        assert_eq!((tail.value, tail.conn), (1 << 20, 9));

        // Merge keeps the larger witness per bucket.
        let mut other = Hist::new();
        other.record_with_exemplar(5, Some(300), 7); // bucket 2, smaller: loses
        other.record_with_exemplar(40, Some(301), 8); // bucket 5: fills a gap
        h.merge(&other);
        assert_eq!(h.exemplar(2).unwrap().trace_seq, Some(101));
        assert_eq!(h.exemplar(5).unwrap().conn, 8);

        // Exemplar-free histograms still serialize identically.
        let mut plain = Hist::new();
        plain.record(6);
        plain.record(7);
        let mut tagged = Hist::new();
        tagged.record_with_exemplar(6, Some(1), 1);
        tagged.record_with_exemplar(7, Some(2), 2);
        assert_eq!(plain.to_json().render(), tagged.to_json().render());
    }

    #[test]
    fn percentile_rejects_out_of_range_p() {
        let mut h = Hist::new();
        h.record(7);
        assert_eq!(h.percentile(-0.1), None);
        assert_eq!(h.percentile(1.1), None);
        assert_eq!(h.percentile(f64::NAN), None);
    }

    #[test]
    fn saturated_value_merge_is_exact() {
        // Top-bucket (u64::MAX) samples: sum must not wrap (u128
        // accumulator), the top bucket's open upper bound must clamp to
        // max, and merging saturated histograms stays exact.
        let mut a = Hist::new();
        let mut b = Hist::new();
        for _ in 0..3 {
            a.record(u64::MAX);
        }
        b.record(u64::MAX);
        b.record(1);
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.sum(), 4 * (u64::MAX as u128) + 1);
        assert_eq!(a.min(), Some(1));
        assert_eq!(a.max(), Some(u64::MAX));
        assert_eq!(a.p999(), Some(u64::MAX));
        assert_eq!(a.buckets()[63], 4);
    }

    #[test]
    fn high_count_merge_accumulates_without_distortion() {
        // Bucket counts add linearly even at large magnitudes: merging
        // a million-sample histogram into itself repeatedly keeps
        // count/sum/percentiles consistent.
        let mut base = Hist::new();
        for v in 1..=1_000u64 {
            for _ in 0..10 {
                base.record(v);
            }
        }
        let mut merged = base.clone();
        for _ in 0..3 {
            let snapshot = merged.clone();
            merged.merge(&snapshot);
        }
        assert_eq!(merged.count(), base.count() * 8);
        assert_eq!(merged.sum(), base.sum() * 8);
        assert_eq!(merged.p50(), base.p50(), "percentiles scale-invariant");
        assert_eq!(merged.p99(), base.p99());
    }

    #[test]
    fn to_json_has_quantile_keys() {
        let mut h = Hist::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let j = h.to_json();
        for key in ["count", "min", "mean", "max", "p50", "p90", "p99", "p999"] {
            assert!(j.get(key).is_some(), "missing {key}");
        }
        assert_eq!(j.get("count").unwrap().as_u64(), Some(100));
        let empty = Hist::new().to_json();
        assert_eq!(empty.get("p50"), Some(&Json::Null));
    }
}
