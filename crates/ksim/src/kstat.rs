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
//!   (created → first read issued → first write issued → drained →
//!   completion delivered), cumulative counters, watermark gauges, and
//!   a bounded ring of [`FlowSample`]s for offline analysis.
//! * [`SpliceSpans`] — the per-kernel collection, indexable by splice
//!   descriptor id (`kstat.spans[desc]`).
//! * [`Kstat`] — the kernel-owned holder combining the spans with
//!   [`Hist`]-backed latency distributions for block I/O completion.
//! * [`HistSummary`] — a compact, serializable digest of a [`Hist`].

use std::collections::BTreeMap;
use std::ops::Index;

use crate::hist::Hist;
use crate::json::Json;
use crate::time::SimTime;

/// Upper bound on retained [`FlowSample`]s per span. Beyond this the
/// span keeps updating its scalar gauges but stops appending samples
/// and sets [`SpliceSpan::samples_truncated`].
pub const MAX_FLOW_SAMPLES: usize = 4096;

/// One flow-control observation, taken whenever the splice engine
/// issues or retires work on a descriptor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowSample {
    /// Simulated time of the observation.
    pub at: SimTime,
    /// Reads issued so far (cache misses that went to the device).
    pub reads_issued: u64,
    /// Reads satisfied from the buffer cache.
    pub read_hits: u64,
    /// Writes issued so far (shared-header `bwrite`s, device pushes).
    pub writes_issued: u64,
    /// Reads outstanding at the device at this instant.
    pub pending_reads: u32,
    /// Writes outstanding at this instant.
    pub pending_writes: u32,
}

impl FlowSample {
    /// Reads started by any means (device reads plus cache hits).
    pub fn reads_started(&self) -> u64 {
        self.reads_issued + self.read_hits
    }
}

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
    /// First write issued on the sink.
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
    /// Writes issued.
    pub writes_issued: u64,
    /// Blocks (or pump chunks) fully completed.
    pub blocks_done: u64,
    /// Payload bytes moved end to end.
    pub bytes_moved: u64,
    /// Refill bursts: times the watermark logic restarted the read side.
    pub refill_bursts: u64,
    /// Backoffs: times issue was deferred by flow control or resource
    /// exhaustion (read-side watermark holds, write backpressure).
    pub backoffs: u64,

    /// High-water mark of reads outstanding.
    pub max_pending_reads: u32,
    /// High-water mark of writes outstanding.
    pub max_pending_writes: u32,

    /// Bounded time series of flow observations.
    pub samples: Vec<FlowSample>,
    /// True if the sample ring hit [`MAX_FLOW_SAMPLES`].
    pub samples_truncated: bool,
}

impl SpliceSpan {
    fn new(id: u64, now: SimTime) -> SpliceSpan {
        SpliceSpan {
            id,
            created: Some(now),
            ..SpliceSpan::default()
        }
    }

    /// Records a device read issue.
    pub fn note_read_issued(&mut self, now: SimTime, pending_reads: u32, pending_writes: u32) {
        self.first_read.get_or_insert(now);
        self.reads_issued += 1;
        self.observe(now, pending_reads, pending_writes);
    }

    /// Records a read satisfied from the buffer cache.
    pub fn note_read_hit(&mut self, now: SimTime, pending_reads: u32, pending_writes: u32) {
        self.first_read.get_or_insert(now);
        self.read_hits += 1;
        self.observe(now, pending_reads, pending_writes);
    }

    /// Records a write issue.
    pub fn note_write_issued(&mut self, now: SimTime, pending_reads: u32, pending_writes: u32) {
        self.first_write.get_or_insert(now);
        self.writes_issued += 1;
        self.observe(now, pending_reads, pending_writes);
    }

    /// Records a fully completed block (or pump chunk) of `bytes`.
    pub fn note_block_done(
        &mut self,
        now: SimTime,
        bytes: u64,
        pending_reads: u32,
        pending_writes: u32,
    ) {
        self.blocks_done += 1;
        self.bytes_moved += bytes;
        self.observe(now, pending_reads, pending_writes);
    }

    /// Records a watermark-triggered read-side refill burst.
    pub fn note_refill(&mut self) {
        self.refill_bursts += 1;
    }

    /// Records a flow-control or backpressure deferral.
    pub fn note_backoff(&mut self) {
        self.backoffs += 1;
    }

    /// Marks the transfer drained (all data moved).
    pub fn note_drained(&mut self, now: SimTime) {
        self.drained.get_or_insert(now);
    }

    /// Marks completion delivery (SIGIO posted / sleeper woken).
    pub fn note_completed(&mut self, now: SimTime) {
        self.completed.get_or_insert(now);
    }

    fn observe(&mut self, now: SimTime, pending_reads: u32, pending_writes: u32) {
        self.max_pending_reads = self.max_pending_reads.max(pending_reads);
        self.max_pending_writes = self.max_pending_writes.max(pending_writes);
        if self.samples.len() < MAX_FLOW_SAMPLES {
            self.samples.push(FlowSample {
                at: now,
                reads_issued: self.reads_issued,
                read_hits: self.read_hits,
                writes_issued: self.writes_issued,
                pending_reads,
                pending_writes,
            });
        } else {
            self.samples_truncated = true;
        }
    }
}

/// All splice spans recorded by a kernel, keyed by descriptor id.
///
/// Indexable (`spans[desc]`) for ergonomic assertions; panics on an
/// unknown id like a slice would.
#[derive(Clone, Debug, Default)]
pub struct SpliceSpans {
    spans: BTreeMap<u64, SpliceSpan>,
}

impl SpliceSpans {
    /// Creates an empty collection.
    pub fn new() -> SpliceSpans {
        SpliceSpans::default()
    }

    /// Starts a span for descriptor `id` at `now`. Replaces any stale
    /// span under the same id (descriptor ids are never reused by the
    /// splice engine, so this only matters for defensive callers).
    pub fn start(&mut self, id: u64, now: SimTime) -> &mut SpliceSpan {
        self.spans
            .entry(id)
            .or_insert_with(|| SpliceSpan::new(id, now))
    }

    /// Mutable access for the instrumentation sites; `None` for ids
    /// that never started a span.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut SpliceSpan> {
        self.spans.get_mut(&id)
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
        spans.start(1, t(10));
        let s = spans.get_mut(1).unwrap();
        s.note_read_issued(t(11), 1, 0);
        s.note_write_issued(t(12), 0, 1);
        s.note_block_done(t(13), 4096, 0, 0);
        s.note_drained(t(13));
        s.note_completed(t(14));

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
        spans.start(7, t(1));
        let s = spans.get_mut(7).unwrap();
        s.note_read_issued(t(2), 1, 0);
        s.note_read_issued(t(5), 2, 0);
        assert_eq!(s.first_read, Some(t(2)));
        assert_eq!(s.reads_issued, 2);
        assert_eq!(s.max_pending_reads, 2);
    }

    #[test]
    fn samples_cap_and_flag_truncation() {
        let mut spans = SpliceSpans::new();
        spans.start(3, t(0));
        let s = spans.get_mut(3).unwrap();
        for i in 0..(MAX_FLOW_SAMPLES as u64 + 10) {
            s.note_read_issued(t(i), 1, 0);
        }
        assert_eq!(s.samples.len(), MAX_FLOW_SAMPLES);
        assert!(s.samples_truncated);
        assert_eq!(s.reads_issued, MAX_FLOW_SAMPLES as u64 + 10);
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
