//! # hpm-obs — observability for the migration stack
//!
//! The paper's entire evaluation (§4, Table 1, Figure 2) is built on
//! instrumentation: Collect/Tx/Restore timings plus MSRLT search and step
//! counters. This crate is the shared measurement substrate those numbers
//! flow through — and the one every future performance PR plugs into
//! instead of growing bespoke counters.
//!
//! Three pieces, all dependency-free:
//!
//! * [`trace`] — a lightweight span/event tracer. A [`Tracer`] records
//!   nestable phase spans (`collect`, `tx`, `restore`, `msrlt.search`,
//!   `scheduler.slice`, …) with monotonic timestamps into a **bounded**
//!   in-memory ring buffer. A disabled tracer costs a single branch per
//!   event site, so instrumentation can stay in release hot paths.
//! * [`metrics`] — a log2-bucketed [`Histogram`] with `O(1)` atomic
//!   updates and mergeable [`HistogramSnapshot`] percentiles.
//! * [`stats`] — the [`StatGroup`] snapshot/merge trait that the stack's
//!   phase-stats structs (`CollectStats`, `RestoreStats`, `MsrltStats`,
//!   `TransferStats`, `SchedStats`) implement, plus one shared text
//!   renderer so every layer prints counters the same way.
//! * [`export`] — machine-readable exporters for a finished [`TraceLog`]:
//!   Chrome trace-event JSON (loadable in `chrome://tracing` / Perfetto),
//!   a JSONL event log, and a human summary table.
//! * [`recorder`] — an always-on bounded flight recorder: the last N
//!   structured protocol events per component track (chunk sent/acked/
//!   nacked/retried, CRC failures, fault injections, phase transitions),
//!   dumpable as deterministic JSONL for post-mortems of failed runs.
//! * [`Obs`] — the one handle a migration takes: a tracer plus a flight
//!   recorder.
//!
//! ## Event volume and bounded memory
//!
//! Hot phases can emit hundreds of thousands of events (one per MSRLT
//! search). The ring buffer has a fixed capacity; once full, new events
//! are counted in [`TraceLog::dropped`] instead of growing memory. Span
//! begin/end pairs for the coarse phases are emitted first (outermost
//! first), so phase structure survives even when fine-grained events are
//! dropped.

pub mod export;
pub mod metrics;
pub mod recorder;
pub mod stats;
pub mod trace;

pub use export::{chrome_trace_json, jsonl, summary};
pub use metrics::{Histogram, HistogramSnapshot};
pub use recorder::{FlightDump, FlightEvent, FlightRecorder, FlightTrack};
pub use stats::{render_groups, snapshot, StatField, StatGroup, StatValue, TranslateStats};
pub use trace::{EventKind, Span, TraceEvent, TraceLog, Tracer};

/// Everything a migration reports through besides its return value: the
/// span tracer and the flight recorder, passed as one handle.
#[derive(Clone)]
pub struct Obs {
    /// Phase spans; attached to the report as a [`TraceLog`] when enabled.
    pub tracer: Tracer,
    /// Per-component protocol events, dumped when a run fails.
    pub recorder: FlightRecorder,
}

impl Default for Obs {
    /// A disabled tracer and a live recorder: untraced, but a failing run
    /// still explains itself.
    fn default() -> Self {
        Obs {
            tracer: Tracer::disabled(),
            recorder: FlightRecorder::new(),
        }
    }
}
