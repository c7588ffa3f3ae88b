//! Hierarchical trace spans.
//!
//! A [`Span`] is one timed node of a query's execution tree: a name, a
//! wall-clock interval (as nanosecond offsets from a shared epoch), the
//! I/O delta attributed to the node itself, free-form key=value
//! attributes, and child spans. A sharded query produces
//! `query → per-shard fan-out → worker execute → index method →
//! per-store I/O` as one reconcilable tree. It is the only per-query
//! record: the root carries the method and the `candidates` / `results`
//! counts, its duration is the query latency, and each store leaf
//! carries that store's I/O and `pages`.
//!
//! The accounting contract: instrumentation attributes I/O to **leaf**
//! spans (one per page store), interior spans carry zero of their own,
//! so [`Span::total_io`] — the recursive sum — reconciles exactly with
//! the [`IoTotals`]-style delta observed around the root.
//!
//! Spans are built through [`OpenSpan`], which captures the timing:
//! every span in one tree measures offsets from the *same* epoch
//! [`Instant`], so subtrees built on different threads (shard workers)
//! graft onto the facade's root with a consistent timeline — which is
//! what makes the Chrome trace export
//! ([`crate::json::chrome_trace`]) render one coherent lane per worker.

use crate::json::Value;
use std::time::Instant;

/// The I/O delta attributed to one span (exclusive of its children).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanIo {
    /// Page reads (buffer misses).
    pub reads: u64,
    /// Page writes (dirty write-backs / flushes).
    pub writes: u64,
    /// Buffer-pool hits.
    pub hits: u64,
}

impl SpanIo {
    /// Reads + writes — the paper's I/O cost.
    #[must_use]
    pub fn ios(&self) -> u64 {
        self.reads + self.writes
    }

    /// Component-wise sum.
    #[must_use]
    pub fn merge(self, other: SpanIo) -> SpanIo {
        SpanIo {
            reads: self.reads + other.reads,
            writes: self.writes + other.writes,
            hits: self.hits + other.hits,
        }
    }
}

/// One node of a hierarchical trace (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Display name (e.g. `"query"`, `"s2/execute"`, `"store/obs1"`).
    pub name: String,
    /// Start offset from the tree's shared epoch, in nanoseconds.
    pub start_nanos: u64,
    /// Wall-clock duration, in nanoseconds.
    pub duration_nanos: u64,
    /// I/O attributed to this span itself (zero for interior spans;
    /// leaves carry the per-store deltas).
    pub io: SpanIo,
    /// Key=value attributes (JSON values, insertion-ordered).
    pub attrs: Vec<(String, Value)>,
    /// Child spans, in start order.
    pub children: Vec<Span>,
}

impl Span {
    /// Creates a zero-duration leaf span at `start_nanos` (used for
    /// per-store I/O attribution, where the store's share of the parent
    /// interval is not separately timed).
    #[must_use]
    pub fn leaf(name: impl Into<String>, start_nanos: u64, io: SpanIo) -> Span {
        Span {
            name: name.into(),
            start_nanos,
            duration_nanos: 0,
            io,
            attrs: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Sets (or replaces) an attribute, builder-style.
    #[must_use]
    pub fn with_attr(mut self, key: &str, value: impl Into<Value>) -> Span {
        self.set_attr(key, value);
        self
    }

    /// Sets (or replaces) an attribute.
    pub fn set_attr(&mut self, key: &str, value: impl Into<Value>) {
        let value = value.into();
        if let Some(slot) = self.attrs.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            self.attrs.push((key.to_owned(), value));
        }
    }

    /// Attribute lookup.
    #[must_use]
    pub fn attr(&self, key: &str) -> Option<&Value> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Attribute lookup as an unsigned integer.
    #[must_use]
    pub fn attr_u64(&self, key: &str) -> Option<u64> {
        self.attr(key).and_then(Value::as_u64)
    }

    /// Attribute lookup as a string.
    #[must_use]
    pub fn attr_str(&self, key: &str) -> Option<&str> {
        self.attr(key).and_then(Value::as_str)
    }

    /// The recursive I/O sum over this span and every descendant. Since
    /// instrumentation attributes I/O to leaves only, this reconciles
    /// with the I/O-counter delta observed around the root.
    #[must_use]
    pub fn total_io(&self) -> SpanIo {
        self.children
            .iter()
            .fold(self.io, |acc, c| acc.merge(c.total_io()))
    }

    /// Number of spans in the tree (self included).
    #[must_use]
    pub fn span_count(&self) -> usize {
        1 + self.children.iter().map(Span::span_count).sum::<usize>()
    }

    /// Depth-first search for the first descendant (or self) named
    /// `name`.
    #[must_use]
    pub fn find(&self, name: &str) -> Option<&Span> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// Visits self and every descendant, depth-first, parents first.
    pub fn visit(&self, f: &mut impl FnMut(&Span)) {
        f(self);
        for c in &self.children {
            c.visit(f);
        }
    }

    /// The span tree as a JSON value.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let mut members = vec![
            ("name".to_owned(), Value::Str(self.name.clone())),
            ("start_nanos".to_owned(), Value::from(self.start_nanos)),
            (
                "duration_nanos".to_owned(),
                Value::from(self.duration_nanos),
            ),
            ("reads".to_owned(), Value::from(self.io.reads)),
            ("writes".to_owned(), Value::from(self.io.writes)),
            ("hits".to_owned(), Value::from(self.io.hits)),
        ];
        if !self.attrs.is_empty() {
            members.push(("attrs".to_owned(), Value::Obj(self.attrs.clone())));
        }
        if !self.children.is_empty() {
            members.push((
                "children".to_owned(),
                Value::Arr(self.children.iter().map(Span::to_json).collect()),
            ));
        }
        Value::Obj(members)
    }

    /// Rebuilds a span tree from its [`Span::to_json`] form.
    ///
    /// # Errors
    /// Returns a message naming the first missing or mistyped member.
    pub fn from_json(v: &Value) -> Result<Span, String> {
        let name = v
            .get("name")
            .and_then(Value::as_str)
            .ok_or("span: missing name")?
            .to_owned();
        let num = |key: &str| v.get(key).and_then(Value::as_u64).unwrap_or(0);
        let attrs = match v.get("attrs") {
            Some(Value::Obj(members)) => members.clone(),
            Some(_) => return Err(format!("span {name}: attrs is not an object")),
            None => Vec::new(),
        };
        let children = match v.get("children") {
            Some(Value::Arr(items)) => items
                .iter()
                .map(Span::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            Some(_) => return Err(format!("span {name}: children is not an array")),
            None => Vec::new(),
        };
        Ok(Span {
            name,
            start_nanos: num("start_nanos"),
            duration_nanos: num("duration_nanos"),
            io: SpanIo {
                reads: num("reads"),
                writes: num("writes"),
                hits: num("hits"),
            },
            attrs,
            children,
        })
    }
}

/// An in-progress [`Span`]: captures the start against a shared epoch at
/// construction and the duration at [`OpenSpan::finish`].
///
/// ```
/// use mobidx_obs::{OpenSpan, SpanIo};
/// use std::time::Instant;
///
/// let epoch = Instant::now();
/// let mut root = OpenSpan::begin("query", epoch);
/// root.set_attr("method", "dual-B+ (c=6)");
/// let start = root.start_nanos();
/// root.push(mobidx_obs::Span::leaf("store/obs0", start, SpanIo {
///     reads: 4, writes: 0, hits: 1,
/// }));
/// let span = root.finish();
/// assert_eq!(span.total_io().reads, 4);
/// ```
#[derive(Debug)]
pub struct OpenSpan {
    start: Instant,
    span: Span,
}

impl OpenSpan {
    /// Opens a span now, measuring offsets from `epoch` (which must not
    /// be in the future; an earlier-than-epoch start saturates to 0).
    #[must_use]
    pub fn begin(name: impl Into<String>, epoch: Instant) -> OpenSpan {
        let start = Instant::now();
        OpenSpan {
            start,
            span: Span {
                name: name.into(),
                start_nanos: u64::try_from(start.saturating_duration_since(epoch).as_nanos())
                    .unwrap_or(u64::MAX),
                duration_nanos: 0,
                io: SpanIo::default(),
                attrs: Vec::new(),
                children: Vec::new(),
            },
        }
    }

    /// The start offset from the epoch, in nanoseconds.
    #[must_use]
    pub fn start_nanos(&self) -> u64 {
        self.span.start_nanos
    }

    /// Sets (or replaces) an attribute.
    pub fn set_attr(&mut self, key: &str, value: impl Into<Value>) {
        self.span.set_attr(key, value);
    }

    /// Sets the span's own (exclusive) I/O delta.
    pub fn set_io(&mut self, io: SpanIo) {
        self.span.io = io;
    }

    /// Appends a finished child span.
    pub fn push(&mut self, child: Span) {
        self.span.children.push(child);
    }

    /// Closes the span, stamping its wall-clock duration.
    #[must_use]
    pub fn finish(mut self) -> Span {
        self.span.duration_nanos =
            u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.span
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> Span {
        let mut root = Span::leaf("query", 0, SpanIo::default()).with_attr("method", "m");
        root.duration_nanos = 5_000;
        let mut leg = Span::leaf("s0/execute", 100, SpanIo::default()).with_attr("shard", 0u64);
        leg.children.push(
            Span::leaf(
                "store/obs0",
                150,
                SpanIo {
                    reads: 3,
                    writes: 1,
                    hits: 2,
                },
            )
            .with_attr("store", "obs0"),
        );
        root.children.push(leg);
        root.children.push(Span::leaf(
            "store/static",
            200,
            SpanIo {
                reads: 2,
                writes: 0,
                hits: 0,
            },
        ));
        root
    }

    #[test]
    fn total_io_sums_the_tree() {
        let t = tree();
        let io = t.total_io();
        assert_eq!(io.reads, 5);
        assert_eq!(io.writes, 1);
        assert_eq!(io.hits, 2);
        assert_eq!(io.ios(), 6);
        assert_eq!(t.span_count(), 4);
    }

    #[test]
    fn attrs_set_and_replace() {
        let mut s = Span::leaf("x", 0, SpanIo::default());
        s.set_attr("k", 1u64);
        s.set_attr("k", 2u64);
        assert_eq!(s.attr_u64("k"), Some(2));
        assert_eq!(s.attrs.len(), 1);
        assert!(s.attr("missing").is_none());
    }

    #[test]
    fn find_walks_depth_first() {
        let t = tree();
        assert!(t.find("store/obs0").is_some());
        assert_eq!(t.find("s0/execute").unwrap().attr_u64("shard"), Some(0));
        assert!(t.find("nope").is_none());
        let mut names = Vec::new();
        t.visit(&mut |s| names.push(s.name.clone()));
        assert_eq!(names[0], "query");
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn json_round_trips() {
        let t = tree();
        let rendered = t.to_json().render_pretty();
        let parsed = Value::parse(&rendered).expect("valid JSON");
        let back = Span::from_json(&parsed).expect("valid span");
        assert_eq!(back, t);
    }

    #[test]
    fn from_json_rejects_nameless() {
        assert!(Span::from_json(&Value::Obj(vec![])).is_err());
    }

    #[test]
    fn open_span_times_against_epoch() {
        let epoch = Instant::now();
        let mut open = OpenSpan::begin("root", epoch);
        open.set_attr("k", "v");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let mut child = OpenSpan::begin("child", epoch);
        child.set_io(SpanIo {
            reads: 1,
            writes: 0,
            hits: 0,
        });
        let child = child.finish();
        assert!(child.start_nanos >= 2_000_000, "child starts after sleep");
        let child_start = child.start_nanos;
        open.push(child);
        let root = open.finish();
        assert!(root.duration_nanos >= 2_000_000);
        assert!(root.start_nanos <= child_start);
        assert_eq!(root.total_io().reads, 1);
        assert_eq!(root.attr_str("k"), Some("v"));
    }

    #[test]
    fn epoch_in_the_future_saturates_to_zero() {
        let epoch = Instant::now() + std::time::Duration::from_secs(3600);
        let open = OpenSpan::begin("root", epoch);
        assert_eq!(open.start_nanos(), 0);
    }
}
