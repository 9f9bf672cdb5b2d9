//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call
//! into a layer's public API: name, start, end, parent span and the
//! operation the span belongs to, plus counters measured at the same
//! boundary. They stay in memory until the run ends and are then
//! written out as JSON lines.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// Operation id shared by every span of one operation.
    pub op: u64,
    /// Layer-qualified name, e.g. `effects.analyze`.
    pub name: &'static str,
    /// Start, in microseconds since the recorder was created.
    pub start_us: f64,
    /// End, in microseconds since the recorder was created.
    pub end_us: f64,
    /// Counters measured at this boundary.
    pub counters: Vec<(&'static str, f64)>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }

    /// The value of counter `key`, if recorded.
    pub fn counter(&self, key: &str) -> Option<f64> {
        self.counters
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| v)
    }
}

/// A span that has started and not yet ended.
#[derive(Debug)]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    op: u64,
    name: &'static str,
    start: Instant,
}

impl Open {
    /// This span's id, for use as a parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Collects spans from any number of threads.
pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Starts a span of operation `op` under the span with id `parent`.
    pub fn open(&self, name: &'static str, op: u64, parent: Option<u64>) -> Open {
        Open {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            op,
            name,
            start: Instant::now(),
        }
    }

    /// Starts a child span of `parent`, in the same operation.
    pub fn child(&self, name: &'static str, parent: &Open) -> Open {
        self.open(name, parent.op, Some(parent.id))
    }

    /// Ends a span with its counters; returns its duration in seconds.
    pub fn close(&self, open: Open, counters: &[(&'static str, f64)]) -> f64 {
        let end = Instant::now();
        let micros = |t: Instant| t.duration_since(self.epoch).as_secs_f64() * 1e6;
        let span = Span {
            id: open.id,
            parent: open.parent,
            op: open.op,
            name: open.name,
            start_us: micros(open.start),
            end_us: micros(end),
            counters: counters.to_vec(),
        };
        let secs = span.secs();
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(span);
        secs
    }

    /// Runs `f` inside a child span of `parent` with no counters.
    pub fn time<R>(&self, name: &'static str, parent: &Open, f: impl FnOnce() -> R) -> R {
        let open = self.child(name, parent);
        let out = f();
        self.close(open, &[]);
        out
    }

    /// Every span recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("a thread panicked while recording a span")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Durations in seconds of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .collect()
}

/// Values of counter `key` on every span named `name` that carries it.
pub fn counters(spans: &[Span], name: &str, key: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .filter_map(|s| s.counter(key))
        .collect()
}

/// Per span name: (count, total seconds, self seconds). A span's self
/// time is its duration minus the part of it its children cover
/// (children of one span run one after another, so their durations
/// add up without overlap).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let mut child_secs: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_secs.entry(p).or_default() += s.secs();
        }
    }
    let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for s in spans {
        let entry = out.entry(s.name).or_default();
        entry.0 += 1;
        entry.1 += s.secs();
        entry.2 += (s.secs() - child_secs.get(&s.id).copied().unwrap_or(0.0)).max(0.0);
    }
    out
}

/// Name of the root span that probe work hangs under: layers a
/// workload does not reach on its own path are measured by a short
/// probe at the end of a traced run.
pub const PROBE: &str = "probe";

/// The spans layer metrics are read from: every span outside probes,
/// plus probe spans whose name never occurs outside them (so a probe
/// only fills in layers the workload itself did not reach).
pub fn layer_spans(spans: &[Span]) -> Vec<Span> {
    // Ids grow in open order, so a parent precedes its children.
    let mut in_probe: BTreeMap<u64, bool> = BTreeMap::new();
    for s in spans {
        let inherited = s
            .parent
            .is_some_and(|p| in_probe.get(&p).copied().unwrap_or(false));
        in_probe.insert(s.id, s.name == PROBE || inherited);
    }
    let outside: std::collections::BTreeSet<&str> = spans
        .iter()
        .filter(|s| !in_probe[&s.id])
        .map(|s| s.name)
        .collect();
    spans
        .iter()
        .filter(|s| !in_probe[&s.id] || !outside.contains(s.name))
        .cloned()
        .collect()
}

/// Renders spans as JSON lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let counters: Vec<String> = s
            .counters
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        let _ = writeln!(
            out,
            "{{\"id\": {}, \"parent\": {parent}, \"op\": {}, \"name\": \"{}\", \
             \"start_us\": {:.1}, \"end_us\": {:.1}, \"counters\": {{{}}}}}",
            s.id,
            s.op,
            s.name,
            s.start_us,
            s.end_us,
            counters.join(", ")
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            start_us: start,
            end_us: end,
            counters: vec![("n", 3.0)],
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(1, None, "op", 0.0, 10.0e6),
            span(2, Some(1), "a", 1.0e6, 4.0e6),
            span(3, Some(1), "b", 5.0e6, 6.0e6),
        ];
        let t = self_times(&spans);
        assert_eq!(t["op"], (1, 10.0, 6.0));
        assert_eq!(t["a"], (1, 3.0, 3.0));
        assert_eq!(counters(&spans, "a", "n"), vec![3.0]);
        assert_eq!(durations(&spans, "b"), vec![1.0]);
    }

    #[test]
    fn probes_only_fill_layers_the_workload_missed() {
        let spans = vec![
            span(1, None, "op", 0.0, 1.0),
            span(2, Some(1), "a", 0.0, 1.0),
            span(3, None, PROBE, 0.0, 1.0),
            span(4, Some(3), "a", 0.0, 1.0),
            span(5, Some(4), "b", 0.0, 1.0),
        ];
        let ids: Vec<u64> = layer_spans(&spans).iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![1, 2, 3, 5]);
    }

    #[test]
    fn recorder_links_parents_and_operations() {
        let tracer = Tracer::default();
        let root = tracer.open("op", 7, None);
        let inner = tracer.time("leaf", &root, || 5);
        assert_eq!(inner, 5);
        tracer.close(root, &[("k", 1.0)]);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert!(spans.iter().all(|s| s.op == 7));
        assert!(to_jsonl(&spans).contains("\"name\": \"leaf\""));
    }
}
