//! Structured kernel statistics (`kstat`): typed spans, gauges, and
//! latency distributions.
//!
//! Plain counters are typed fields kept by their owners: the kernel's
//! metrics sections, the cache, the CPU engine and the network stack.
//! The paper's evaluation, however, is also about the *shape* of a
//! splice over time: when the first read was issued, how far the write
//! side lagged, how the watermark flow control held pending work inside
//! its bands, how long each `bread` / `bwrite` took to come back through
//! `biodone`. This module holds the typed layer the kernel records that
//! shape into:
//!
//! * [`SpliceSpan`] — one per splice descriptor: lifecycle timestamps
//!   (created → first read issued → first write scheduled → drained →
//!   completion delivered), cumulative counters, and the high-water
//!   gauges of pending reads and writes. A span is a fold of its
//!   descriptor's [`TraceEvent`]s ([`SpliceSpan::apply`]): the kernel
//!   records each splice fact once, as an event, and the span, the
//!   counters and the trace ring all derive from it.
//! * [`SpliceSpans`] — the per-kernel collection, indexable by splice
//!   descriptor id (`kstat.spans[desc]`).
//! * [`Kstat`] — the kernel-owned holder combining the spans with
//!   [`Hist`]-backed latency distributions for block I/O completion.
//! * [`HistSummary`] — a compact, serializable digest of a [`Hist`].

use std::collections::BTreeMap;
use std::ops::Index;
use std::sync::Arc;

use crate::hist::Hist;
use crate::json::Json;
use crate::time::SimTime;
use crate::trace::TraceEvent;

/// Lifecycle and flow-control record for one splice descriptor.
///
/// Timestamps are `Option<SimTime>`: a field is `None` until the event
/// happens (a splice that dies early simply never fills the later
/// ones). The ordering invariant — created ≤ first read ≤ first write
/// ≤ drained ≤ completed, each when present — is asserted by the
/// observability integration test.
#[derive(Clone, Debug, Default)]
pub struct SpliceSpan {
    /// Splice descriptor id this span describes.
    pub id: u64,
    /// When `splice(2)` built the descriptor.
    pub created: Option<SimTime>,
    /// First read issued (or satisfied from cache) on the source.
    pub first_read: Option<SimTime>,
    /// First write scheduled on the sink: noted when a block arrives
    /// and its write is queued for the sink backend, not when the sink
    /// handler later issues it (the trace's `SpliceWriteIssue` marks
    /// that moment).
    pub first_write: Option<SimTime>,
    /// All blocks/bytes moved; the write side has drained.
    pub drained: Option<SimTime>,
    /// Completion delivered to the process (SIGIO posted or the
    /// synchronous sleeper woken).
    pub completed: Option<SimTime>,

    /// Device reads issued.
    pub reads_issued: u64,
    /// Reads satisfied from the buffer cache.
    pub read_hits: u64,
    /// Writes scheduled: one per arrived block, counted when its write is
    /// queued for the sink backend (retries of the same block do not
    /// count again).
    pub writes_issued: u64,
    /// Blocks (or pump chunks) fully completed.
    pub blocks_done: u64,
    /// Payload bytes moved end to end.
    pub bytes_moved: u64,
    /// Refill bursts: times the watermark logic restarted the read side.
    pub refill_bursts: u64,
    /// Backoffs: buffer waits (read, write and append side), device-sink
    /// pacing stalls, and retries after a device error.
    pub backoffs: u64,

    /// High-water mark of reads outstanding.
    pub max_pending_reads: u32,
    /// High-water mark of writes outstanding.
    pub max_pending_writes: u32,
}

impl SpliceSpan {
    /// Folds one event of this span's descriptor into it.
    /// `pending_reads`/`pending_writes` are the descriptor's gauges at
    /// the instant of the event; they feed the high-water marks of the
    /// events that move them. Events that carry no span fact (write
    /// issue, abort) change nothing.
    pub fn apply(
        &mut self,
        now: SimTime,
        ev: &TraceEvent,
        pending_reads: u32,
        pending_writes: u32,
    ) {
        match *ev {
            TraceEvent::SpliceStart { .. } => {
                self.created.get_or_insert(now);
            }
            TraceEvent::SpliceReadIssue { hit, .. } => {
                self.first_read.get_or_insert(now);
                if hit {
                    self.read_hits += 1;
                } else {
                    self.reads_issued += 1;
                }
                self.observe(pending_reads, pending_writes);
            }
            // An arrived block's write is scheduled on the sink at the
            // instant its read is done.
            TraceEvent::SpliceReadDone { .. } => {
                self.first_write.get_or_insert(now);
                self.writes_issued += 1;
                self.observe(pending_reads, pending_writes);
            }
            TraceEvent::SpliceWriteDone { bytes, drained, .. } => {
                self.blocks_done += 1;
                self.bytes_moved += bytes;
                self.observe(pending_reads, pending_writes);
                if drained {
                    self.drained.get_or_insert(now);
                }
            }
            TraceEvent::SpliceRefill { .. } => self.refill_bursts += 1,
            TraceEvent::SpliceBackoff { .. } | TraceEvent::SpliceRetry { .. } => self.backoffs += 1,
            TraceEvent::SpliceComplete { .. } => {
                self.completed.get_or_insert(now);
            }
            _ => {}
        }
    }

    fn observe(&mut self, pending_reads: u32, pending_writes: u32) {
        self.max_pending_reads = self.max_pending_reads.max(pending_reads);
        self.max_pending_writes = self.max_pending_writes.max(pending_writes);
    }
}

/// All splice spans recorded by a kernel, keyed by descriptor id.
///
/// Indexable (`spans[desc]`) for ergonomic assertions; panics on an
/// unknown id like a slice would.
///
/// The map sits behind an [`Arc`], so a clone (every
/// `Kernel::metrics` snapshot takes one) is O(1) and shares the
/// history instead of copying it. [`SpliceSpans::entry`] copies on
/// write only while a clone is still alive.
#[derive(Clone, Debug, Default)]
pub struct SpliceSpans {
    spans: Arc<BTreeMap<u64, SpliceSpan>>,
}

impl SpliceSpans {
    /// Creates an empty collection.
    pub fn new() -> SpliceSpans {
        SpliceSpans::default()
    }

    /// The span of descriptor `id`, created empty on first use (its
    /// `SpliceStart` event then sets `created`).
    pub fn entry(&mut self, id: u64) -> &mut SpliceSpan {
        Arc::make_mut(&mut self.spans)
            .entry(id)
            .or_insert_with(|| SpliceSpan {
                id,
                ..SpliceSpan::default()
            })
    }

    /// Shared access by id.
    pub fn get(&self, id: u64) -> Option<&SpliceSpan> {
        self.spans.get(&id)
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if no splice has run.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Iterates spans in descriptor-id order.
    pub fn iter(&self) -> impl Iterator<Item = &SpliceSpan> + '_ {
        self.spans.values()
    }
}

impl Index<u64> for SpliceSpans {
    type Output = SpliceSpan;
    fn index(&self, id: u64) -> &SpliceSpan {
        self.get(id)
            .unwrap_or_else(|| panic!("no splice span for descriptor {id}"))
    }
}

impl<'a> IntoIterator for &'a SpliceSpans {
    type Item = &'a SpliceSpan;
    type IntoIter = std::collections::btree_map::Values<'a, u64, SpliceSpan>;
    fn into_iter(self) -> Self::IntoIter {
        self.spans.values()
    }
}

/// Compact digest of a [`Hist`], cheap to copy into snapshots and
/// serialize. All values are in the histogram's native unit
/// (nanoseconds for the kernel's latency histograms).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistSummary {
    /// Samples recorded.
    pub count: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Arithmetic mean (0.0 when empty).
    pub mean: f64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Median, to bucket granularity (0 when empty).
    pub p50: u64,
    /// 90th percentile, to bucket granularity (0 when empty).
    pub p90: u64,
    /// 99th percentile, to bucket granularity (0 when empty).
    pub p99: u64,
    /// 99.9th percentile, to bucket granularity (0 when empty).
    pub p999: u64,
}

impl From<&Hist> for HistSummary {
    fn from(h: &Hist) -> HistSummary {
        HistSummary {
            count: h.count(),
            min: h.min().unwrap_or(0),
            mean: h.mean().unwrap_or(0.0),
            max: h.max().unwrap_or(0),
            p50: h.p50().unwrap_or(0),
            p90: h.p90().unwrap_or(0),
            p99: h.p99().unwrap_or(0),
            p999: h.p999().unwrap_or(0),
        }
    }
}

impl HistSummary {
    /// Serializes the digest with the schema every `BENCH_*.json`
    /// consumer keys on (`count`/`min`/`mean`/`max`/`p50`/`p90`/`p99`/
    /// `p999`).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("count", Json::Num(self.count as f64))
            .with("min", Json::Num(self.min as f64))
            .with("mean", Json::Num(self.mean))
            .with("max", Json::Num(self.max as f64))
            .with("p50", Json::Num(self.p50 as f64))
            .with("p90", Json::Num(self.p90 as f64))
            .with("p99", Json::Num(self.p99 as f64))
            .with("p999", Json::Num(self.p999 as f64))
    }
}

/// Per-stage latency histograms for the splice pipeline, all in
/// nanoseconds of simulated time. One block contributes one sample to
/// each stage it passes through, so under error-free operation the
/// stage counts agree and `end_to_end ≈ read_service + read_to_write +
/// write_service` per block (queue-wait is measured at the device and
/// overlaps `read_service`).
#[derive(Clone, Debug, Default)]
pub struct StageHists {
    /// Submission-queue admission wait: how far into its
    /// `sys_ring_submit` crossing's CPU charge an SQE sat before the
    /// engine dispatched it. The simulated clock does not advance
    /// inside one crossing, so this is the *virtual* offset — later
    /// entries in a batch wait behind the admission and launch CPU of
    /// the entries ahead of them. Empty for workloads that never use
    /// an explicit ring (the legacy `splice(2)` path has no batch to
    /// wait in).
    pub sqe_wait: Hist,
    /// Time a buffer read spent queued at the device before service
    /// began (0 for requests that started immediately, and for the
    /// synchronous RAM-disk path).
    pub read_queue_wait: Hist,
    /// Splice read issue → block arrival at the engine (device queue +
    /// service + completion handler dispatch).
    pub read_service: Hist,
    /// Block arrival → sink write actually issued (the decoupling gap:
    /// deferred-work queueing plus any buffer-shortage backoff).
    pub read_to_write: Hist,
    /// Sink write issue → write completion observed by the engine.
    pub write_service: Hist,
    /// Backoff delays scheduled by the retry path (exponential, per
    /// attempt).
    pub retry_backoff: Hist,
    /// Read issue → write completion for one block (the paper's
    /// per-block "decoupled device access period").
    pub end_to_end: Hist,
}

impl StageHists {
    /// Iterates `(stage name, histogram)` in pipeline order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &Hist)> {
        [
            ("sqe_wait", &self.sqe_wait),
            ("read_queue_wait", &self.read_queue_wait),
            ("read_service", &self.read_service),
            ("read_to_write", &self.read_to_write),
            ("write_service", &self.write_service),
            ("retry_backoff", &self.retry_backoff),
            ("end_to_end", &self.end_to_end),
        ]
        .into_iter()
    }

    /// Serializes every stage digest keyed by stage name.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        for (name, h) in self.iter() {
            obj.set(name, h.to_json());
        }
        obj
    }
}

/// The kernel-owned structured-statistics block: splice spans plus
/// latency distributions for the block-I/O completion path.
#[derive(Clone, Debug, Default)]
pub struct Kstat {
    /// Per-descriptor splice lifecycle spans.
    pub spans: SpliceSpans,
    /// `bread` issue → `biodone` latency (ns).
    pub bread_latency: Hist,
    /// `bwrite` issue → `biodone` latency (ns).
    pub bwrite_latency: Hist,
    /// Time a process spent asleep in `biowait` on the read path (ns).
    pub read_wait: Hist,
    /// Per-stage splice pipeline latency distributions.
    pub stages: StageHists,
}

impl Kstat {
    /// Creates an empty kstat block.
    pub fn new() -> Kstat {
        Kstat::default()
    }

    /// Resets all spans and histograms.
    pub fn clear(&mut self) {
        *self = Kstat::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + crate::time::Dur::from_us(us)
    }

    #[test]
    fn span_lifecycle_orders_timestamps() {
        let mut spans = SpliceSpans::new();
        let (desc, lblk) = (1, 0);
        let span = spans.entry(desc);
        span.apply(t(10), &TraceEvent::SpliceStart { desc, bytes: 4096 }, 0, 0);
        let issue = TraceEvent::SpliceReadIssue {
            desc,
            lblk,
            hit: false,
        };
        span.apply(t(11), &issue, 1, 0);
        span.apply(t(12), &TraceEvent::SpliceReadDone { desc, lblk }, 0, 1);
        let done = TraceEvent::SpliceWriteDone {
            desc,
            lblk,
            bytes: 4096,
            drained: true,
        };
        span.apply(t(13), &done, 0, 0);
        span.apply(t(14), &TraceEvent::SpliceComplete { desc, ok: true }, 0, 0);

        let s = &spans[1];
        assert_eq!(s.created, Some(t(10)));
        assert_eq!(s.first_read, Some(t(11)));
        assert_eq!(s.first_write, Some(t(12)));
        assert_eq!(s.drained, Some(t(13)));
        assert_eq!(s.completed, Some(t(14)));
        assert_eq!(s.bytes_moved, 4096);
        assert_eq!(s.blocks_done, 1);
    }

    #[test]
    fn first_timestamps_are_sticky() {
        let mut spans = SpliceSpans::new();
        let desc = 7;
        let span = spans.entry(desc);
        span.apply(t(1), &TraceEvent::SpliceStart { desc, bytes: 1 }, 0, 0);
        for (lblk, at, pending) in [(0, t(2), 1), (1, t(5), 2)] {
            let issue = TraceEvent::SpliceReadIssue {
                desc,
                lblk,
                hit: false,
            };
            span.apply(at, &issue, pending, 0);
        }
        let s = &spans[desc];
        assert_eq!(s.first_read, Some(t(2)));
        assert_eq!(s.reads_issued, 2);
        assert_eq!(s.max_pending_reads, 2);
    }

    #[test]
    fn hist_summary_digests() {
        let mut h = Hist::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        let s = HistSummary::from(&h);
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 10);
        assert_eq!(s.max, 30);
        assert!((s.mean - 20.0).abs() < 1e-9);
        assert!(s.p50 <= s.p99);
    }

    #[test]
    fn empty_summary_is_zero() {
        let s = HistSummary::from(&Hist::new());
        assert_eq!(s, HistSummary::default());
    }

    #[test]
    #[should_panic(expected = "no splice span")]
    fn indexing_unknown_span_panics() {
        let spans = SpliceSpans::new();
        let _ = &spans[42];
    }
}
