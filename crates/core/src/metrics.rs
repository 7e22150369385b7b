//! The typed metrics surface: [`MetricsSnapshot`] and its sub-structs.
//!
//! Each counter has one typed home. Counters the kernel keeps itself
//! live in a crate-private `Counts` block built from these same
//! section types. Most are folds of the kernel's event stream: a site
//! records a fact once, as a [`ksim::TraceEvent`], and the counters,
//! the splice spans and the trace ring all derive from it, so they
//! agree whether or not tracing is on. Counters with no tracepoint of
//! their own, such as copy bytes, are bumped at their site
//! (`self.counts.copy.copyout_bytes += n`); DESIGN.md §7 lists which is
//! which. The buffer cache, CPU engine and network stack keep theirs in
//! their own `Copy` stats structs. [`Kernel::metrics`] copies all of
//! them, plus the structured [`ksim::Kstat`] block (splice spans,
//! latency histograms), into one typed, self-describing snapshot:
//!
//! ```
//! use khw::DiskProfile;
//! use kproc::programs::Scp;
//! use splice::KernelBuilder;
//!
//! let mut k = KernelBuilder::new()
//!     .disk("d0", DiskProfile::ramdisk())
//!     .disk("d1", DiskProfile::ramdisk())
//!     .build();
//! k.setup_file("/d0/data", 16 * 1024, 7);
//! k.spawn(Box::new(Scp::new("/d0/data", "/d1/copy")));
//! let horizon = k.horizon(60);
//! k.run_to_exit(horizon);
//!
//! let m = k.metrics();
//! assert_eq!(m.copy.copyout_bytes, 0); // the point of the paper
//! assert_eq!(m.splice.completed, 1);
//! assert!(m.splice[1].writes_issued > 0); // per-descriptor span
//! ```
//!
//! Snapshots serialize to JSON ([`MetricsSnapshot::to_json`]) with the
//! dependency-free [`ksim::Json`] writer; the bench binaries persist
//! them as `BENCH_*.json`.

use std::ops::Index;

use ksim::{BackoffKind, HistSummary, Json, SimTime, SpliceSpan, SpliceSpans, TraceEvent};

use crate::kernel::Kernel;

/// Bytes moved by each copy path (the paper's central accounting:
/// splice exists to drive the first two to zero).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CopyMetrics {
    /// `copyin` traffic: user → kernel (write(2), send(2)).
    pub copyin_bytes: u64,
    /// `copyout` traffic: kernel → user (read(2), recv(2)).
    pub copyout_bytes: u64,
    /// Driver/pseudo-DMA traffic at the device boundary.
    pub driver_bytes: u64,
    /// Cache-to-cache copies (zero when the shared-header path works).
    /// No path copies cache-to-cache, so this is always 0; it is kept
    /// for the artifact schema.
    pub cache_bytes: u64,
    /// Socket-buffer copies on the network path.
    pub net_bytes: u64,
}

/// Block-I/O volume at the device layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoMetrics {
    /// Bytes read from block devices.
    pub read_bytes: u64,
    /// Bytes written to block devices.
    pub write_bytes: u64,
    /// Sequential read-aheads triggered by `read(2)`.
    pub readaheads: u64,
    /// Failed transfers: block transfers that completed with `B_ERROR`,
    /// plus injected character-device write failures (both come from
    /// fault injection).
    pub errors: u64,
}

/// Buffer-cache behavior (kbuf's own counters plus the kernel's
/// truncation bookkeeping).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheMetrics {
    /// `bread` served from cache.
    pub hits: u64,
    /// `bread` that went to the device.
    pub misses: u64,
    /// Delayed-write buffers flushed to reclaim space.
    pub reclaim_flushes: u64,
    /// Read-ahead transfers started by the cache.
    pub readaheads: u64,
    /// Valid blocks evicted to recycle their buffer.
    pub evictions: u64,
    /// `biodone` completions routed to `B_CALL` handlers.
    pub bcall_completions: u64,
    /// Cached blocks purged by truncation.
    pub trunc_purged: u64,
    /// Busy blocks detached (orphaned) by truncation.
    pub trunc_detached: u64,
}

/// The splice engine: totals plus per-descriptor lifecycle spans.
///
/// Indexable by descriptor id — `snapshot.splice[desc].reads_issued` —
/// matching how tests reason about a single transfer.
#[derive(Clone, Debug, Default)]
pub struct SpliceMetrics {
    /// Descriptors created.
    pub started: u64,
    /// Transfers completed (SIGIO posted or sleeper woken).
    pub completed: u64,
    /// `splice(2)` calls refused before a descriptor was built (bad fds,
    /// missing endpoint capability, alignment, unconnected socket, …) —
    /// every rejection funnels through the one helper that counts this.
    pub rejected: u64,
    /// Source reads issued across all splices: device block reads plus
    /// stream pulls (datagrams, framebuffer chunks).
    pub reads_issued: u64,
    /// Reads satisfied from the buffer cache.
    pub read_hits: u64,
    /// Read-side waits on a busy buffer or an empty free list (one per
    /// contention; the splice parks until the buffer is released).
    pub read_backoffs: u64,
    /// Shared-header writes (the §5.2.2 no-copy write side).
    pub shared_writes: u64,
    /// Write-side waits on a busy destination block (one per contention).
    pub write_backoffs: u64,
    /// Device-sink pacing stalls (DAC back-pressure).
    pub dev_backpressure: u64,
    /// Socket-sink send failures.
    pub sock_send_errs: u64,
    /// Append-path waits on a busy block or an empty free list.
    pub append_backoffs: u64,
    /// Append-path bytes dropped for lack of disk space.
    pub append_enospc: u64,
    /// Block retries after a device error (read or write side).
    pub retries: u64,
    /// Splices aborted with a typed errno after retries were exhausted.
    pub aborted: u64,
    /// Per-descriptor lifecycle spans (timestamps, counters, gauges).
    pub spans: SpliceSpans,
}

impl Index<u64> for SpliceMetrics {
    type Output = SpliceSpan;
    fn index(&self, desc: u64) -> &SpliceSpan {
        &self.spans[desc]
    }
}

/// Scheduler events.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedMetrics {
    /// Context-switch dispatches.
    pub ctx_switches: u64,
    /// Wakeup preemptions of user-mode chunks.
    pub preemptions: u64,
    /// Lost-wakeup races closed by the retry path.
    pub wakeup_races: u64,
    /// Dispatches that found the CPU re-occupied.
    pub dispatch_races: u64,
    /// Processes that exited.
    pub exits: u64,
}

/// Kernel CPU time by work class (the availability accounting): the
/// CPU engine's own counters.
pub use kproc::CpuStats as CpuMetrics;

/// Network stack counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetMetrics {
    /// Datagrams sent.
    pub sent: u64,
    /// Datagrams delivered to a socket.
    pub delivered: u64,
    /// Datagrams dropped in the network (all buckets).
    pub dropped: u64,
    /// Drops with no receiver (unbound destination or closed socket).
    pub dropped_no_listener: u64,
    /// Drops at a full receive buffer.
    pub dropped_rcv_full: u64,
    /// Connection requests refused by a full accept backlog.
    pub dropped_backlog: u64,
    /// Datagrams lost to the link model's loss draw.
    pub lost_link: u64,
    /// Sends bounced by send-buffer backpressure (retried, not lost).
    pub snd_blocked: u64,
    /// Delivered-but-unread datagrams thrown away when their socket
    /// closed.
    pub discarded_close: u64,
    /// Connection sockets carved off listeners.
    pub conns_opened: u64,
    /// Payload bytes delivered.
    pub bytes_delivered: u64,
    /// Datagrams dropped at a full receive queue.
    pub rx_dropped: u64,
    /// Deepest pending-connection queue any listener reached.
    pub backlog_peak: u64,
}

/// The resident request-observability pipeline: trace-loss visibility
/// (satellite of the sampled-span work — silent ring truncation is now
/// countable in every bench JSON) plus span, sampling, and SLO-monitor
/// counters, the end-to-end request latency digest, and the tail
/// exemplar linking the p999 bucket back into the trace.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ObsMetrics {
    /// Trace records emitted over the run (the next sequence number).
    pub trace_emitted: u64,
    /// Trace records lost to ring wrap.
    pub trace_dropped: u64,
    /// Sampler ring samples lost to wrap (0 when the sampler is off).
    pub sampler_dropped: u64,
    /// Requests observed (staged connections that closed).
    pub requests: u64,
    /// Requests that errored or exceeded the SLO latency target.
    pub violations: u64,
    /// Requests that errored.
    pub errors: u64,
    /// SLO burn-rate alerts fired.
    pub alerts: u64,
    /// Peak simultaneously-staged request scratch entries.
    pub staged_peak: u64,
    /// Request spans committed (head-sampled or tail-retained).
    pub spans_committed: u64,
    /// Committed spans kept by the deterministic head-sampling draw.
    pub spans_head_sampled: u64,
    /// Committed spans kept only because they errored or ran over SLO.
    pub spans_tail_retained: u64,
    /// Committed spans evicted from the bounded span ring.
    pub spans_dropped: u64,
    /// End-to-end request latency (every request, sampled or not).
    pub request_latency: HistSummary,
    /// `(conn, trace_seq)` of the exemplar witnessing the p999 bucket;
    /// the trace link is `None` when the trace ring was off.
    pub p999_exemplar: Option<(u32, Option<u64>)>,
}

/// Latency distributions (ns), as compact digests.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencyMetrics {
    /// Time a process slept in `biowait` on the read(2) path.
    pub read_wait: HistSummary,
    /// `bread` issue → `biodone`.
    pub bread: HistSummary,
    /// `bwrite` issue → `biodone`.
    pub bwrite: HistSummary,
    /// Splice block round-trip: read issue → write completion (the
    /// `end_to_end` stage histogram).
    pub splice_block: HistSummary,
}

/// One coherent, typed view of everything the kernel measured.
///
/// Built by [`Kernel::metrics`]; cheap enough to take repeatedly: the
/// spans share the kernel's map (an O(1) clone that copies on the
/// kernel's next span update only while the snapshot is alive), and
/// everything else is `Copy`.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Simulated time the snapshot was taken.
    pub at: SimTime,
    /// Copy-path bytes.
    pub copy: CopyMetrics,
    /// Device I/O volume.
    pub io: IoMetrics,
    /// Buffer-cache behavior.
    pub cache: CacheMetrics,
    /// Splice engine totals and spans.
    pub splice: SpliceMetrics,
    /// Scheduler events.
    pub sched: SchedMetrics,
    /// Kernel CPU time by class.
    pub cpu: CpuMetrics,
    /// Network counters.
    pub net: NetMetrics,
    /// Latency digests.
    pub latency: LatencyMetrics,
    /// Request observability: trace loss, span sampling, SLO counters.
    pub obs: ObsMetrics,
    /// Buffers flushed by the `update` daemon.
    pub update_flushes: u64,
    /// Harness cold-cache flushes (experiment setup, not workload).
    pub cold_caches: u64,
}

/// The counters the kernel keeps itself, each in the snapshot section
/// that reports it. Counters with a tracepoint of their own are folds of
/// the event stream ([`Counts::apply`]); the rest (copy bytes, context
/// switches, drops that share a `net.drop` event with other causes, …)
/// are bumped at their site (`self.counts.copy.copyout_bytes += n`).
/// [`Kernel::metrics`] copies the sections out.
#[derive(Debug, Default)]
pub(crate) struct Counts {
    pub(crate) copy: CopyMetrics,
    pub(crate) io: IoMetrics,
    pub(crate) sched: SchedMetrics,
    /// Splice totals. `spans` stays empty: the live spans are `kstat`'s.
    pub(crate) splice: SpliceMetrics,
    /// Cached blocks purged by truncation.
    pub(crate) trunc_purged: u64,
    /// Busy blocks detached by truncation.
    pub(crate) trunc_detached: u64,
    /// Datagrams dropped on delivery.
    pub(crate) rx_dropped: u64,
    /// Buffers flushed by the `update` daemon.
    pub(crate) update_flushes: u64,
    /// Harness cold-cache flushes.
    pub(crate) cold_caches: u64,
}

impl Counts {
    /// Folds one kernel event into the counters it stands for.
    pub(crate) fn apply(&mut self, ev: &TraceEvent) {
        let s = &mut self.splice;
        match *ev {
            TraceEvent::SpliceStart { .. } => s.started += 1,
            TraceEvent::SpliceReject { .. } => s.rejected += 1,
            TraceEvent::SpliceReadIssue { hit: false, .. } => s.reads_issued += 1,
            TraceEvent::SpliceReadIssue { hit: true, .. } => s.read_hits += 1,
            TraceEvent::SpliceBackoff { kind, .. } => match kind {
                BackoffKind::Read => s.read_backoffs += 1,
                BackoffKind::Write => s.write_backoffs += 1,
                BackoffKind::Append => s.append_backoffs += 1,
                BackoffKind::DevPacing => s.dev_backpressure += 1,
            },
            TraceEvent::SpliceRetry { .. } => s.retries += 1,
            TraceEvent::SpliceAbort { .. } => s.aborted += 1,
            TraceEvent::SpliceComplete { ok, .. } => s.completed += ok as u64,
            TraceEvent::SchedPreempt { .. } => self.sched.preemptions += 1,
            TraceEvent::DiskIssue { len, write, .. } => {
                if write {
                    self.io.write_bytes += len as u64;
                } else {
                    self.io.read_bytes += len as u64;
                }
            }
            TraceEvent::DiskError { .. } => self.io.errors += 1,
            _ => {}
        }
    }
}

impl MetricsSnapshot {
    /// Serializes the snapshot (including per-splice span summaries) as
    /// a JSON object.
    pub fn to_json(&self) -> Json {
        let c = &self.copy;
        let copy = Json::obj()
            .with("copyin_bytes", Json::Num(c.copyin_bytes as f64))
            .with("copyout_bytes", Json::Num(c.copyout_bytes as f64))
            .with("driver_bytes", Json::Num(c.driver_bytes as f64))
            .with("cache_bytes", Json::Num(c.cache_bytes as f64))
            .with("net_bytes", Json::Num(c.net_bytes as f64));
        let io = Json::obj()
            .with("read_bytes", Json::Num(self.io.read_bytes as f64))
            .with("write_bytes", Json::Num(self.io.write_bytes as f64))
            .with("readaheads", Json::Num(self.io.readaheads as f64))
            .with("errors", Json::Num(self.io.errors as f64));
        let ca = &self.cache;
        let cache = Json::obj()
            .with("hits", Json::Num(ca.hits as f64))
            .with("misses", Json::Num(ca.misses as f64))
            .with("reclaim_flushes", Json::Num(ca.reclaim_flushes as f64))
            .with("readaheads", Json::Num(ca.readaheads as f64))
            .with("evictions", Json::Num(ca.evictions as f64))
            .with("bcall_completions", Json::Num(ca.bcall_completions as f64))
            .with("trunc_purged", Json::Num(ca.trunc_purged as f64))
            .with("trunc_detached", Json::Num(ca.trunc_detached as f64));
        let s = &self.splice;
        let splice = Json::obj()
            .with("started", Json::Num(s.started as f64))
            .with("completed", Json::Num(s.completed as f64))
            .with("rejected", Json::Num(s.rejected as f64))
            .with("reads_issued", Json::Num(s.reads_issued as f64))
            .with("read_hits", Json::Num(s.read_hits as f64))
            .with("read_backoffs", Json::Num(s.read_backoffs as f64))
            .with("shared_writes", Json::Num(s.shared_writes as f64))
            .with("write_backoffs", Json::Num(s.write_backoffs as f64))
            .with("dev_backpressure", Json::Num(s.dev_backpressure as f64))
            .with("sock_send_errs", Json::Num(s.sock_send_errs as f64))
            .with("append_backoffs", Json::Num(s.append_backoffs as f64))
            .with("append_enospc", Json::Num(s.append_enospc as f64))
            .with("retries", Json::Num(s.retries as f64))
            .with("aborted", Json::Num(s.aborted as f64))
            .with("spans", Json::Arr(s.spans.iter().map(span_json).collect()));
        let sc = &self.sched;
        let sched = Json::obj()
            .with("ctx_switches", Json::Num(sc.ctx_switches as f64))
            .with("preemptions", Json::Num(sc.preemptions as f64))
            .with("wakeup_races", Json::Num(sc.wakeup_races as f64))
            .with("dispatch_races", Json::Num(sc.dispatch_races as f64))
            .with("exits", Json::Num(sc.exits as f64));
        let cp = &self.cpu;
        let cpu = Json::obj()
            .with("intr_ns", Json::Num(cp.intr_time.as_ns() as f64))
            .with("soft_ns", Json::Num(cp.soft_time.as_ns() as f64))
            .with("idle_soft_ns", Json::Num(cp.idle_soft_time.as_ns() as f64))
            .with("intr_items", Json::Num(cp.intr_items as f64))
            .with("soft_items", Json::Num(cp.soft_items as f64))
            .with("soft_deferred", Json::Num(cp.soft_deferred as f64))
            .with("idle_soft_items", Json::Num(cp.idle_soft_items as f64));
        let n = &self.net;
        let net = Json::obj()
            .with("sent", Json::Num(n.sent as f64))
            .with("delivered", Json::Num(n.delivered as f64))
            .with("dropped", Json::Num(n.dropped as f64))
            .with(
                "dropped_no_listener",
                Json::Num(n.dropped_no_listener as f64),
            )
            .with("dropped_rcv_full", Json::Num(n.dropped_rcv_full as f64))
            .with("dropped_backlog", Json::Num(n.dropped_backlog as f64))
            .with("lost_link", Json::Num(n.lost_link as f64))
            .with("snd_blocked", Json::Num(n.snd_blocked as f64))
            .with("discarded_close", Json::Num(n.discarded_close as f64))
            .with("conns_opened", Json::Num(n.conns_opened as f64))
            .with("bytes_delivered", Json::Num(n.bytes_delivered as f64))
            .with("rx_dropped", Json::Num(n.rx_dropped as f64))
            .with("backlog_peak", Json::Num(n.backlog_peak as f64));
        let o = &self.obs;
        let obs = Json::obj()
            .with("trace.emitted", Json::Num(o.trace_emitted as f64))
            .with("trace.dropped", Json::Num(o.trace_dropped as f64))
            .with("sampler.dropped", Json::Num(o.sampler_dropped as f64))
            .with("slo.requests", Json::Num(o.requests as f64))
            .with("slo.violations", Json::Num(o.violations as f64))
            .with("slo.errors", Json::Num(o.errors as f64))
            .with("slo.alerts", Json::Num(o.alerts as f64))
            .with("spans.staged_peak", Json::Num(o.staged_peak as f64))
            .with("spans.committed", Json::Num(o.spans_committed as f64))
            .with("spans.head_sampled", Json::Num(o.spans_head_sampled as f64))
            .with(
                "spans.tail_retained",
                Json::Num(o.spans_tail_retained as f64),
            )
            .with("spans.dropped", Json::Num(o.spans_dropped as f64))
            .with("request_latency", hist_json(&o.request_latency))
            .with(
                "p999_exemplar",
                match o.p999_exemplar {
                    Some((conn, seq)) => Json::obj()
                        .with("conn", Json::Num(conn as f64))
                        .with("trace_seq", seq.map_or(Json::Null, |s| Json::Num(s as f64))),
                    None => Json::Null,
                },
            );
        let latency = Json::obj()
            .with("read_wait", hist_json(&self.latency.read_wait))
            .with("bread", hist_json(&self.latency.bread))
            .with("bwrite", hist_json(&self.latency.bwrite))
            .with("splice_block", hist_json(&self.latency.splice_block));
        Json::obj()
            .with("at_ns", Json::Num(self.at.as_ns() as f64))
            .with("copy", copy)
            .with("io", io)
            .with("cache", cache)
            .with("splice", splice)
            .with("sched", sched)
            .with("cpu", cpu)
            .with("net", net)
            .with("latency", latency)
            .with("obs", obs)
            .with("update_flushes", Json::Num(self.update_flushes as f64))
            .with("cold_caches", Json::Num(self.cold_caches as f64))
    }
}

fn opt_time(t: Option<SimTime>) -> Json {
    match t {
        Some(t) => Json::Num(t.as_ns() as f64),
        None => Json::Null,
    }
}

fn span_json(s: &SpliceSpan) -> Json {
    Json::obj()
        .with("id", Json::Num(s.id as f64))
        .with("created_ns", opt_time(s.created))
        .with("first_read_ns", opt_time(s.first_read))
        .with("first_write_ns", opt_time(s.first_write))
        .with("drained_ns", opt_time(s.drained))
        .with("completed_ns", opt_time(s.completed))
        .with("reads_issued", Json::Num(s.reads_issued as f64))
        .with("read_hits", Json::Num(s.read_hits as f64))
        .with("writes_issued", Json::Num(s.writes_issued as f64))
        .with("blocks_done", Json::Num(s.blocks_done as f64))
        .with("bytes_moved", Json::Num(s.bytes_moved as f64))
        .with("refill_bursts", Json::Num(s.refill_bursts as f64))
        .with("backoffs", Json::Num(s.backoffs as f64))
        .with("max_pending_reads", Json::Num(s.max_pending_reads as f64))
        .with("max_pending_writes", Json::Num(s.max_pending_writes as f64))
}

fn hist_json(h: &HistSummary) -> Json {
    h.to_json()
}

impl Kernel {
    /// Takes a typed snapshot of every kernel metric: copy-path bytes,
    /// cache and scheduler behavior, CPU time by class, per-splice
    /// lifecycle spans, and latency digests.
    pub fn metrics(&self) -> MetricsSnapshot {
        let c = &self.counts;
        let cs = self.cache.stats();
        let ns = self.net.stats();
        MetricsSnapshot {
            at: self.now(),
            copy: c.copy,
            io: c.io,
            cache: CacheMetrics {
                hits: cs.hits,
                misses: cs.misses,
                reclaim_flushes: cs.reclaim_flushes,
                readaheads: cs.readaheads,
                evictions: cs.evictions,
                bcall_completions: cs.bcall_completions,
                trunc_purged: c.trunc_purged,
                trunc_detached: c.trunc_detached,
            },
            splice: SpliceMetrics {
                spans: self.kstat.spans.clone(),
                ..c.splice
            },
            sched: c.sched,
            cpu: self.cpu.stats(),
            net: NetMetrics {
                sent: ns.sent,
                delivered: ns.delivered,
                dropped: ns.dropped(),
                dropped_no_listener: ns.dropped_no_listener,
                dropped_rcv_full: ns.dropped_rcv_full,
                dropped_backlog: ns.dropped_backlog,
                lost_link: ns.lost_link,
                snd_blocked: ns.snd_blocked,
                discarded_close: ns.discarded_close,
                conns_opened: ns.conns_opened,
                bytes_delivered: ns.bytes_delivered,
                rx_dropped: c.rx_dropped,
                backlog_peak: ns.backlog_peak,
            },
            latency: LatencyMetrics {
                read_wait: HistSummary::from(&self.kstat.read_wait),
                bread: HistSummary::from(&self.kstat.bread_latency),
                bwrite: HistSummary::from(&self.kstat.bwrite_latency),
                splice_block: HistSummary::from(&self.kstat.stages.end_to_end),
            },
            obs: {
                let oc = self.obs.counters();
                ObsMetrics {
                    trace_emitted: self.trace.emitted(),
                    trace_dropped: self.trace.dropped(),
                    sampler_dropped: self.sampler.as_ref().map_or(0, |s| s.dropped),
                    requests: oc.requests,
                    violations: oc.violations,
                    errors: oc.errors,
                    alerts: oc.alerts,
                    staged_peak: oc.staged_peak,
                    spans_committed: oc.committed,
                    spans_head_sampled: oc.head_sampled,
                    spans_tail_retained: oc.tail_retained,
                    spans_dropped: oc.spans_dropped,
                    request_latency: HistSummary::from(self.obs.latency()),
                    p999_exemplar: self
                        .obs
                        .latency()
                        .exemplar_at(0.999)
                        .map(|e| (e.conn, e.trace_seq)),
                }
            },
            update_flushes: c.update_flushes,
            cold_caches: c.cold_caches,
        }
    }

    /// The structured-statistics block itself (spans and histograms),
    /// for callers that want live access without a snapshot copy.
    pub fn kstat(&self) -> &ksim::Kstat {
        &self.kstat
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot_serializes_and_roundtrips() {
        let snap = MetricsSnapshot::default();
        let doc = snap.to_json();
        let parsed = Json::parse(&doc.render()).unwrap();
        assert_eq!(parsed, doc);
        assert_eq!(
            parsed
                .get("copy")
                .and_then(|c| c.get("copyin_bytes"))
                .and_then(Json::as_u64),
            Some(0)
        );
        assert_eq!(
            parsed
                .get("splice")
                .and_then(|s| s.get("spans"))
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(0)
        );
        let obs = parsed.get("obs").expect("obs section");
        assert_eq!(
            obs.get("trace.dropped").and_then(Json::as_u64),
            Some(0),
            "trace loss must be countable even on an empty snapshot"
        );
        assert_eq!(obs.get("sampler.dropped").and_then(Json::as_u64), Some(0));
        assert_eq!(obs.get("p999_exemplar"), Some(&Json::Null));
        assert!(obs.get("request_latency").is_some());
    }

    #[test]
    fn populated_obs_section_carries_exemplar() {
        let mut snap = MetricsSnapshot::default();
        snap.obs.p999_exemplar = Some((7, Some(4242)));
        let doc = snap.to_json();
        let parsed = Json::parse(&doc.render()).unwrap();
        let ex = parsed
            .get("obs")
            .and_then(|o| o.get("p999_exemplar"))
            .expect("exemplar object");
        assert_eq!(ex.get("conn").and_then(Json::as_u64), Some(7));
        assert_eq!(ex.get("trace_seq").and_then(Json::as_u64), Some(4242));
        // An untraced run's exemplar names its connection but no trace
        // record.
        snap.obs.p999_exemplar = Some((7, None));
        let parsed = Json::parse(&snap.to_json().render()).unwrap();
        let ex = parsed.get("obs").and_then(|o| o.get("p999_exemplar"));
        assert_eq!(ex.and_then(|e| e.get("trace_seq")), Some(&Json::Null));
    }
}
