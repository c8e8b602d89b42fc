//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer: name, start, end, the span that caused
//! it and the request it belongs to. Spans nest through a thread-local
//! "current span"; a span begun on another thread (the server side of a
//! request) joins its request with [`adopt`]. Spans stay in memory until
//! the run ends, and a layer's self time is its span's duration minus the
//! part of that interval its child spans cover.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// Id of the causing span; 0 for the root span of a request.
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// `(span id, request id)` of the span running on a thread.
pub type Context = (u64, u64);

thread_local! {
    static CURRENT: Cell<Context> = const { Cell::new((0, 0)) };
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { epoch: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` as the root span of a new request.
    pub fn request<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let request = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.enter(name, (0, request), f)
    }

    /// Run `f` as a child span of the span current on this thread.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name, current(), f)
    }

    fn enter<R>(&self, name: &'static str, (parent, request): Context, f: impl FnOnce() -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let prev = CURRENT.replace((id, request));
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        CURRENT.set(prev);
        let span = Span { id, parent, request, name, start_ns, end_ns };
        self.spans.lock().expect("a thread panicked while recording a span").push(span);
        out
    }

    /// Remove and return every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("a thread panicked while recording a span"))
    }
}

/// `t.span(name, f)` when tracing, else just `f()`.
pub fn span_if<R>(t: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match t {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// The span context running on this thread.
pub fn current() -> Context {
    CURRENT.get()
}

/// Run `f` with `ctx` as this thread's current span, so spans begun here
/// are children of a span running on another thread.
pub fn adopt<R>(ctx: Context, f: impl FnOnce() -> R) -> R {
    let prev = CURRENT.replace(ctx);
    let out = f();
    CURRENT.set(prev);
    out
}

/// Self time of every span, in the order of `spans`: its duration minus
/// the union of its children's intervals clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let pos: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = pos.get(&s.parent) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let mut clipped: Vec<(u64, u64)> = kids
                .iter()
                .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                .filter(|&(a, b)| a < b)
                .collect();
            clipped.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in clipped {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Self time summed per layer, with the root spans' self time reported
/// as unattributed.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Attribution {
    pub layer_ns: BTreeMap<&'static str, u64>,
    /// Time inside requests that no layer span covers.
    pub unattributed_ns: u64,
    /// Summed duration of the root spans.
    pub end_to_end_ns: u64,
    pub requests: u64,
}

impl Attribution {
    pub fn add(&mut self, spans: &[Span]) {
        for (s, own) in spans.iter().zip(self_times(spans)) {
            if s.parent == 0 {
                self.unattributed_ns += own;
                self.end_to_end_ns += s.end_ns - s.start_ns;
                self.requests += 1;
            } else {
                *self.layer_ns.entry(s.name).or_default() += own;
            }
        }
    }
}

/// Write spans as tab-separated lines: id, parent, request, name, start
/// and end in nanoseconds since the tracer was created.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, request: 1, name, start_ns, end_ns }
    }

    #[test]
    fn self_time_of_nested_spans() {
        let spans = vec![
            span(1, 0, "op", 0, 100),
            span(2, 1, "a", 10, 40),
            span(3, 2, "a.inner", 15, 20),
            // Overlaps its sibling: the covered union is [10, 60).
            span(4, 1, "b", 30, 60),
            // Outlives its parent: only [90, 100) counts against it.
            span(5, 1, "c", 90, 120),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 30 - 5, 5, 30, 30]);

        let mut att = Attribution::default();
        att.add(&spans);
        assert_eq!(att.unattributed_ns, 40);
        assert_eq!(att.end_to_end_ns, 100);
        assert_eq!(att.requests, 1);
        assert_eq!(att.layer_ns["a"], 25);
        assert_eq!(att.layer_ns["b"], 30);
    }

    #[test]
    fn serial_children_add_up_to_the_root() {
        let spans = vec![
            span(1, 0, "op", 0, 50),
            span(2, 1, "x", 0, 10),
            span(3, 1, "y", 10, 30),
            span(4, 3, "x", 12, 18),
        ];
        let mut att = Attribution::default();
        att.add(&spans);
        let layers: u64 = att.layer_ns.values().sum();
        assert_eq!(layers + att.unattributed_ns, att.end_to_end_ns);
        assert_eq!(att.layer_ns["x"], 16);
        assert_eq!(att.layer_ns["y"], 14);
    }

    #[test]
    fn recorder_links_spans_across_threads() {
        let t = Tracer::default();
        t.request("op", || {
            t.span("client", || {
                let ctx = current();
                std::thread::scope(|s| {
                    s.spawn(|| adopt(ctx, || t.span("server", || ())));
                });
            })
        });
        let spans = t.take();
        let by = |n: &str| spans.iter().find(|s| s.name == n).expect("span recorded").clone();
        let (op, client, server) = (by("op"), by("client"), by("server"));
        assert_eq!(op.parent, 0);
        assert_eq!(client.parent, op.id);
        assert_eq!(server.parent, client.id);
        assert!(spans.iter().all(|s| s.request == op.request));
        assert_eq!(current(), (0, 0));
    }
}
