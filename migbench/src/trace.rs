//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark around each call it
//! makes into a layer of the program; nothing inside the program is
//! instrumented. Every span carries the id of the migration it belongs
//! to (0 for set-up work), its parent, and its start and end relative to
//! the recorder's epoch. Spans stay in memory until the run ends and are
//! then written out as JSONL.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One closed (or, after an error, force-closed) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Migration id; 0 marks set-up work.
    pub mig: u64,
    /// Layer-qualified name, e.g. `core.collect`.
    pub name: &'static str,
    /// Start, relative to the recorder's epoch.
    pub start: Duration,
    /// End, relative to the recorder's epoch.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall time the span covers.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Handle returned by [`Tracer::enter`]; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// Span and counter recorder. When disabled, `enter`/`exit`/`count`
/// return immediately and record nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    mig: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: Vec<(u64, &'static str, f64)>,
}

impl Tracer {
    /// A recorder that starts disabled.
    pub fn new() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            mig: 0,
            spans: Vec::new(),
            open: Vec::new(),
            counters: Vec::new(),
        }
    }

    /// Turn recording on or off.
    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Attribute later spans and counters to migration `mig`.
    pub fn set_migration(&mut self, mig: u64) {
        self.mig = mig;
    }

    /// Open a span nested in the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return None;
        }
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            mig: self.mig,
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        Some(id)
    }

    /// Close `id`, and with it any child an early error left open.
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let now = self.epoch.elapsed();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = now;
            if top == id {
                break;
            }
        }
    }

    /// Record a per-migration counter value.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.on {
            self.counters.push((self.mig, name, value));
        }
    }

    /// Every recorded span, in opening order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the time its direct
    /// children cover. Children are opened and closed on one thread
    /// inside their parent, so they never overlap each other.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = self.spans.iter().map(Span::duration).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration());
            }
        }
        own
    }

    /// Per migration: summed self seconds for each span name.
    pub fn self_seconds_by_migration(&self) -> BTreeMap<u64, BTreeMap<&'static str, f64>> {
        let mut out: BTreeMap<u64, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.mig).or_default().entry(s.name).or_default() += own.as_secs_f64();
        }
        out
    }

    /// Per counter name: the values recorded for migrations (set-up
    /// counters, migration 0, excluded).
    pub fn counter_values(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for &(mig, name, v) in &self.counters {
            if mig != 0 {
                out.entry(name).or_default().push(v);
            }
        }
        out
    }

    /// For every root span named `root`: (its duration, the sum of self
    /// times over the spans below it). The difference is the root's own
    /// self time, the part no layer span accounts for.
    pub fn tree_sums(&self, root: &str) -> Vec<(Duration, Duration)> {
        let own = self.self_times();
        let mut root_of: Vec<Option<usize>> = Vec::with_capacity(self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            // Parents precede children, so the parent's root is known.
            let r = match s.parent {
                Some(p) => root_of[p],
                None if s.name == root => Some(i),
                None => None,
            };
            root_of.push(r);
        }
        let mut sums: BTreeMap<usize, Duration> = BTreeMap::new();
        for (i, r) in root_of.iter().enumerate() {
            if let Some(r) = *r {
                *sums.entry(r).or_default() += if r == i { Duration::ZERO } else { own[i] };
            }
        }
        sums.into_iter()
            .map(|(r, sum)| (self.spans[r].duration(), sum))
            .collect()
    }

    /// The spans as JSONL, one object per line, with self time.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, (s, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"mig\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{}}}",
                s.mig,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                own.as_nanos()
            );
        }
        out
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        let s = t.enter("a");
        t.count("c", 1.0);
        t.exit(s);
        assert!(s.is_none());
        assert!(t.spans().is_empty());
        assert!(t.counter_values().is_empty());
    }

    #[test]
    fn self_time_subtracts_children_and_sums_to_root() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        t.set_migration(1);
        let root = t.enter("migration");
        let a = t.enter("a");
        std::thread::sleep(Duration::from_millis(2));
        t.exit(a);
        let b = t.enter("b");
        let c = t.enter("c");
        std::thread::sleep(Duration::from_millis(2));
        t.exit(c);
        t.exit(b);
        t.exit(root);
        let own = t.self_times();
        let spans = t.spans();
        assert_eq!(
            own[0],
            spans[0].duration() - spans[1].duration() - spans[2].duration()
        );
        assert_eq!(own[2], spans[2].duration() - spans[3].duration());
        let sums = t.tree_sums("migration");
        assert_eq!(sums.len(), 1);
        assert_eq!(sums[0].0 - sums[0].1, own[0]);
    }

    #[test]
    fn exit_closes_children_left_open() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        let root = t.enter("migration");
        let _leaked = t.enter("child");
        t.exit(root);
        assert!(t.spans().iter().all(|s| s.end >= s.start));
        assert_eq!(t.spans()[1].parent, Some(0));
        let again = t.enter("next");
        assert_eq!(t.spans()[again.unwrap()].parent, None);
    }
}
