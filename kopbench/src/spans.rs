//! In-memory span recording around the benchmark's calls into layers.
//!
//! A span has a name, start and end (ns since the recorder's epoch), a
//! parent link and the id of the request it belongs to. Spans of the
//! current request are kept until the request ends; then each span's
//! self time (duration minus the union of its children) is folded into
//! per-name totals, and a bounded sample of raw spans is retained to be
//! written out when the run ends. Memory therefore stays flat however
//! long the run is.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a span within its request.
type SpanIdx = u32;

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Run-unique span id.
    pub id: u64,
    /// Id of the parent span, `None` for a root.
    pub parent: Option<u64>,
    /// Request the span belongs to.
    pub req: u64,
    /// Layer call, e.g. `e1000e.poll`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start: u64,
    /// End, ns since the recorder's epoch.
    pub end: u64,
}

/// Per-name totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Agg {
    /// Spans recorded.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times.
    pub self_ns: u64,
}

/// Length of the union of `children`, each clipped to `parent`.
pub fn covered(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(parent.0), e.min(parent.1)))
        .filter(|&(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// A span's duration minus the part of it its children cover.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    (parent.1 - parent.0) - covered(parent, children)
}

struct Open {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<SpanIdx>,
}

#[derive(Default)]
struct Inner {
    next_req: u64,
    next_id: u64,
    cur: Vec<Open>,
    stack: Vec<SpanIdx>,
    agg: BTreeMap<&'static str, Agg>,
    request_ns: u64,
    unattributed_ns: u64,
    kept: Vec<Span>,
}

/// Requests whose spans are retained for the written-out sample: the
/// first [`KEEP_FIRST`], then every [`KEEP_EVERY`]-th, up to [`KEEP_MAX`].
const KEEP_FIRST: u64 = 64;
const KEEP_EVERY: u64 = 1024;
const KEEP_MAX: usize = 200_000;

/// Root span name of a timed request; its uncovered time is unattributed.
pub const REQUEST: &str = "request";

/// The span recorder. Disabled recorders cost one branch per call.
pub struct Recorder {
    enabled: Cell<bool>,
    epoch: Instant,
    inner: RefCell<Inner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A disabled recorder.
    pub fn new() -> Recorder {
        Recorder {
            enabled: Cell::new(false),
            epoch: Instant::now(),
            inner: RefCell::new(Inner::default()),
        }
    }

    /// Turn recording on or off (between requests).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&self, name: &'static str) -> SpanIdx {
        let start = self.now();
        let mut g = self.inner.borrow_mut();
        let idx = g.cur.len() as SpanIdx;
        let parent = g.stack.last().copied();
        g.cur.push(Open {
            name,
            start,
            end: start,
            parent,
        });
        g.stack.push(idx);
        idx
    }

    fn close(&self, idx: SpanIdx) {
        let end = self.now();
        let mut g = self.inner.borrow_mut();
        g.cur[idx as usize].end = end;
        let top = g.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span. Outside any request the span is a root of its own.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled.get() {
            return f();
        }
        let idx = self.open(name);
        let r = f();
        self.close(idx);
        if idx == 0 {
            self.finish(false);
        }
        r
    }

    /// Run one timed request: a root span named [`REQUEST`] whose
    /// uncovered time counts as unattributed.
    pub fn request<R>(&self, f: impl FnOnce() -> R) -> R {
        if !self.enabled.get() {
            return f();
        }
        debug_assert!(self.inner.borrow().cur.is_empty(), "requests do not nest");
        let idx = self.open(REQUEST);
        let r = f();
        self.close(idx);
        self.finish(true);
        r
    }

    /// Fold the finished root and its descendants into the totals.
    fn finish(&self, is_request: bool) {
        let mut g = self.inner.borrow_mut();
        let g = &mut *g;
        let req = g.next_req;
        g.next_req += 1;
        let n = g.cur.len();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n];
        for s in &g.cur {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start, s.end));
            }
        }
        for (i, s) in g.cur.iter().enumerate() {
            let own = self_time((s.start, s.end), &children[i]);
            let a = g.agg.entry(s.name).or_default();
            a.count += 1;
            a.total_ns += s.end - s.start;
            a.self_ns += own;
            if i == 0 && is_request {
                g.request_ns += s.end - s.start;
                g.unattributed_ns += own;
            }
        }
        let keep =
            (req < KEEP_FIRST || req.is_multiple_of(KEEP_EVERY)) && g.kept.len() + n <= KEEP_MAX;
        if keep {
            let base = g.next_id;
            for s in &g.cur {
                g.kept.push(Span {
                    id: g.next_id,
                    parent: s.parent.map(|p| base + p as u64),
                    req,
                    name: s.name,
                    start: s.start,
                    end: s.end,
                });
                g.next_id += 1;
            }
        } else {
            g.next_id += n as u64;
        }
        g.cur.clear();
    }

    /// Totals for one span name.
    pub fn agg(&self, name: &str) -> Agg {
        self.inner
            .borrow()
            .agg
            .get(name)
            .copied()
            .unwrap_or_default()
    }

    /// Mean duration of `name` spans in ns (0 when none).
    pub fn mean_ns(&self, name: &str) -> f64 {
        let a = self.agg(name);
        a.total_ns as f64 / a.count.max(1) as f64
    }

    /// Share of request time covered by no child span.
    pub fn unattributed_share(&self) -> f64 {
        let g = self.inner.borrow();
        g.unattributed_ns as f64 / g.request_ns.max(1) as f64
    }

    /// Number of spans retained for writing out.
    pub fn kept(&self) -> usize {
        self.inner.borrow().kept.len()
    }

    /// Write the retained spans as JSON lines.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.inner.borrow().kept {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.req, s.name, s.start, s.end
            )?;
        }
        Ok(())
    }

    /// The retained spans (tests).
    #[cfg(test)]
    fn kept_spans(&self) -> Vec<Span> {
        self.inner.borrow().kept.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Parent [0, 100); children overlap each other and the edge.
        let children = [(10, 40), (30, 50), (45, 60), (90, 130), (70, 70)];
        assert_eq!(covered((0, 100), &children), 50 + 10);
        assert_eq!(self_time((0, 100), &children), 40);
        // Nested duplicates count once.
        assert_eq!(self_time((0, 10), &[(2, 8), (2, 8), (3, 4)]), 4);
        // A child wholly outside the parent covers nothing.
        assert_eq!(self_time((0, 10), &[(20, 30)]), 10);
        assert_eq!(self_time((5, 5), &[]), 0);
    }

    #[test]
    fn spans_carry_requests_and_parents() {
        let rec = Recorder::new();
        rec.set_enabled(true);
        for _ in 0..2 {
            rec.request(|| {
                rec.span("outer", || rec.span("inner", || std::hint::black_box(1)));
                rec.span("sibling", || ());
            });
        }
        rec.span("standalone", || ());
        let spans = rec.kept_spans();
        assert_eq!(spans.len(), 9);
        let (r0, r1) = (&spans[0..4], &spans[4..8]);
        assert!(r0.iter().all(|s| s.req == 0) && r1.iter().all(|s| s.req == 1));
        assert_eq!(r1[0].name, REQUEST);
        assert_eq!(r1[0].parent, None);
        assert_eq!(r1[1].parent, Some(r1[0].id), "outer under request");
        assert_eq!(r1[2].parent, Some(r1[1].id), "inner under outer");
        assert_eq!(r1[3].parent, Some(r1[0].id), "sibling under request");
        assert_eq!(
            (spans[8].name, spans[8].parent, spans[8].req),
            ("standalone", None, 2)
        );
        for s in &spans {
            assert!(s.start <= s.end);
        }
        assert_eq!(rec.agg("outer").count, 2);
        let outer = rec.agg("outer");
        assert_eq!(outer.self_ns + rec.agg("inner").total_ns, outer.total_ns);
        let share = rec.unattributed_share();
        assert!((0.0..=1.0).contains(&share));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::new();
        assert_eq!(rec.request(|| rec.span("x", || 7)), 7);
        assert_eq!(rec.kept(), 0);
        assert_eq!(rec.agg("x"), Agg::default());
    }
}
