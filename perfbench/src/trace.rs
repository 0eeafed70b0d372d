//! In-memory host-time spans for the traced run.
//!
//! Spans are recorded from the benchmark's own code around its calls
//! into each layer's public functions. Every span has a name, a start
//! and end on one monotonic clock, the span that caused it, and the
//! iteration it belongs to (iteration 0 holds the probes run after the
//! traced iterations). They stay in memory until the run ends and are
//! then written as a Chrome/Perfetto trace through `dtu-telemetry`'s
//! exporter.

use dtu_telemetry::{Layer, Span, SpanKind};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Unique within the tracer, starting at 1.
    pub id: u64,
    /// The span whose work caused this one; `None` for a root.
    pub parent: Option<u64>,
    /// Iteration id shared by every span of one traced iteration.
    pub iter: u32,
    /// Layer-qualified name, e.g. `program_io.decode`.
    pub name: &'static str,
    /// Worker lane (one per host thread that recorded spans).
    pub lane: u32,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// A count attached to the span: commands for walks and session
    /// lookups; 0 when none applies.
    pub amount: u64,
}

impl SpanRec {
    /// Span length, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span that has started but not yet been closed.
#[derive(Debug)]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    iter: u32,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    /// The id children of this span name as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The same span under another name, for a span whose name depends
    /// on how the call it times ended.
    pub fn renamed(self, name: &'static str) -> Open {
        Open { name, ..self }
    }
}

static NEXT_LANE: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static LANE: Cell<Option<u32>> = const { Cell::new(None) };
}

fn lane() -> u32 {
    LANE.with(|l| match l.get() {
        Some(lane) => lane,
        None => {
            let lane = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
            l.set(Some(lane));
            lane
        }
    })
}

/// A thread-safe span store.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a span.
    pub fn open(&self, name: &'static str, parent: Option<u64>, iter: u32) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            iter,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Ends a span, attaching `amount`; returns its length in ns.
    pub fn close(&self, open: Open, amount: u64) -> u64 {
        let end_ns = self.now_ns();
        let rec = SpanRec {
            id: open.id,
            parent: open.parent,
            iter: open.iter,
            name: open.name,
            lane: lane(),
            start_ns: open.start_ns,
            end_ns,
            amount,
        };
        let dur = rec.duration_ns();
        self.spans.lock().expect("span store poisoned").push(rec);
        dur
    }

    /// Runs `f` inside a span; `f` receives the span id for its
    /// children.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        iter: u32,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let open = self.open(name, parent, iter);
        let out = f(open.id);
        self.close(open, 0);
        out
    }

    /// Records a span timed elsewhere (compiler phases), on this
    /// thread's lane.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        iter: u32,
        start_ns: u64,
        end_ns: u64,
    ) {
        let rec = SpanRec {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            iter,
            name,
            lane: lane(),
            start_ns,
            end_ns,
            amount: 0,
        };
        self.spans.lock().expect("span store poisoned").push(rec);
    }

    /// Every span closed so far, in close order.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its children cover. Children may run on other threads
/// and overlap each other, so coverage is the union of their intervals
/// clipped to the parent's.
pub fn self_times(spans: &[SpanRec]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Renders spans as a Chrome/Perfetto trace with `dtu-telemetry`'s
/// writer. All spans sit in the host-time `session` process, one
/// thread per worker lane; each event's name carries the iteration,
/// span id and parent id, e.g. `sim.walk it=3 id=57 parent=55`.
pub fn to_chrome(spans: &[SpanRec]) -> String {
    let events: Vec<Span> = spans
        .iter()
        .map(|s| {
            let kind = if s.name.starts_with("compiler.") {
                SpanKind::Compile
            } else {
                SpanKind::Session
            };
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            Span::new(
                kind,
                Layer::Session,
                s.lane,
                format!("{} it={} id={} parent={parent}", s.name, s.iter, s.id),
                s.start_ns as f64,
                s.end_ns as f64,
            )
        })
        .collect();
    dtu_telemetry::chrome::export(&events, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            iter: 1,
            name: "t",
            lane: 0,
            start_ns,
            end_ns,
            amount: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        let spans = vec![
            rec(1, None, 0, 100),
            // Overlapping children (two worker threads) count once.
            rec(2, Some(1), 10, 30),
            rec(3, Some(1), 20, 50),
            rec(4, Some(1), 60, 70),
            // A grandchild is its parent's business, not the root's.
            rec(5, Some(4), 61, 69),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 40 - 10);
        assert_eq!(st[&2], 20);
        assert_eq!(st[&4], 2);
        assert_eq!(st[&5], 8);
    }

    #[test]
    fn self_time_clips_children_to_the_parent_interval() {
        let spans = vec![rec(1, None, 100, 200), rec(2, Some(1), 50, 150)];
        assert_eq!(self_times(&spans)[&1], 50);
        // A child covering the parent entirely leaves no self time.
        let spans = vec![rec(1, None, 100, 200), rec(2, Some(1), 0, 300)];
        assert_eq!(self_times(&spans)[&1], 0);
    }

    #[test]
    fn spans_nest_and_export_as_a_loadable_chrome_trace() {
        let t = Tracer::new();
        let n = t.span("iteration", None, 7, |root| {
            t.span("models.build", Some(root), 7, |_| 1)
                + std::thread::scope(|s| {
                    s.spawn(|| t.span("sim.walk", Some(root), 7, |_| 2))
                        .join()
                        .expect("worker")
                })
        });
        assert_eq!(n, 3);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.name == "iteration").unwrap();
        assert!(spans.iter().all(|s| s.iter == 7));
        for child in spans.iter().filter(|s| s.parent.is_some()) {
            assert_eq!(child.parent, Some(root.id));
            assert!(child.start_ns >= root.start_ns && child.end_ns <= root.end_ns);
        }
        let walk = spans.iter().find(|s| s.name == "sim.walk").unwrap();
        assert_ne!(walk.lane, root.lane, "the worker thread gets its own lane");

        let events = dtu_telemetry::chrome::parse(&to_chrome(&spans)).unwrap();
        let durations: Vec<_> = events.iter().filter(|e| e.ph == "X").collect();
        assert_eq!(durations.len(), 3);
        assert!(durations
            .iter()
            .any(|e| e.name == format!("sim.walk it=7 id={} parent={}", walk.id, root.id)));
    }
}
