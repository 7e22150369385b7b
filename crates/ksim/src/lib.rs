#![warn(missing_docs)]

//! Discrete-event simulation engine for the in-kernel data path reproduction.
//!
//! This crate provides the deterministic substrate every other crate builds
//! on: a virtual clock ([`SimTime`], [`Dur`]), a cancellable event queue
//! ([`EventQueue`]), a BSD-style callout list ([`Callout`]) matching the
//! mechanism the paper uses to decouple the read and write sides of a
//! splice, structured spans/gauges and latency digests ([`kstat`]; plain
//! counters live as typed fields with their owners), a dependency-free JSON value ([`Json`])
//! for the bench emitters, a typed trace ring ([`Trace`]) with
//! structured tracepoints ([`TraceEvent`]), causal per-block splice
//! spans ([`trace::BlockSpan`]), and Chrome trace-event export, and a
//! resident request-observability pipeline ([`obs`]): head-sampled
//! request spans with tail retention, an SLO burn-rate monitor, and a
//! flight recorder.
//!
//! Everything here is single-threaded on purpose: the simulated machine is
//! a uniprocessor DECstation 5000/200, and determinism (same inputs → same
//! event order → same measurements) is a correctness requirement for the
//! experiment harnesses.

pub mod callout;
pub mod event;
pub mod hist;
pub mod json;
pub mod kstat;
pub mod obs;
pub mod time;
pub mod trace;

pub use callout::{BTreeCallout, Callout, CalloutId};
pub use event::{EventId, EventQueue};
pub use hist::{Exemplar, Hist};
pub use json::Json;
pub use kstat::{FlowSample, HistSummary, Kstat, SpliceSpan, SpliceSpans, StageHists};
pub use obs::{
    CloseOutcome, FlightDump, ObsConfig, ObsCounters, Observability, ReqSpan, SloAlertInfo,
    SloConfig,
};
pub use time::{Dur, SimTime};
pub use trace::{BlockSpan, CounterId, PhaseMark, Trace, TraceEvent, TraceQuery, TraceRecord};
