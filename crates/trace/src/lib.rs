//! `ft-trace` — request-scoped span tracing from socket to solver
//! kernel.
//!
//! The observability plane's counters and histograms (`ft-metrics`)
//! say *how often* and *how slow*; this crate answers **where a
//! specific slow request spent its time**. The design goals, in
//! order:
//!
//! 1. **~zero hot-path cost.** An untraced call site pays one TLS
//!    access and one branch (`trace_id == 0`). A traced span appends a
//!    fixed-size record to its **thread's span buffer** when its guard
//!    drops — no lock, no syscall, and once the buffer has grown to a
//!    thread's largest trace, no allocation either: the root drains it
//!    and keeps its capacity.
//! 2. **Spans live with their trace.** A thread runs at most one trace
//!    at a time, and the buffer holds that trace's finished spans and
//!    nothing else; only the owning thread touches it. Dropping the
//!    root takes exactly those spans, so a reused trace id yields two
//!    separate trees, never one tree with two roots.
//! 3. **Well-formed trees, bounded size.** Nesting deeper than
//!    [`MAX_DEPTH`] and spans beyond [`SPAN_BUDGET`] are inert; a
//!    child of an inert span attaches to its nearest recorded
//!    ancestor, so every parent id in a completed trace resolves.
//!
//! A trace is **thread-local by construction**: the root guard
//! ([`begin`]/[`begin_at`]) and all its child [`span`]s live on one
//! thread (`ft-exec` records dispatch/join on the *calling* thread;
//! pool workers carry no trace context). Dropping the root appends the
//! root record and publishes a [`CompletedTrace`] into a bounded global
//! store plus a per-op **slow-trace exemplar** store (the N slowest per
//! op), which back `GET /trace/recent`, `GET /trace/{id}` and
//! `GET /trace/export` (Chrome trace-event / Perfetto JSON). The
//! `exemplar_trace_id` on `/metrics` histograms is the histogram's own
//! (`ft_metrics::Histogram::offer_exemplar`); the exemplar store keeps
//! that slowest trace resolvable after the recent store has moved on.
//!
//! Every JSON view is a `serde` value tree written by `serde_json`, and
//! [`merge_documents`] reads the per-process `GET /trace/{id}` bodies it
//! stitches together back through `serde_json` too. The views are built
//! only when one is requested, never on the tracing hot path.
//!
//! Span names follow the `<crate>.<component>.<verb>` grammar enforced
//! by `ft-audit`'s L6 lint (e.g. `core.registry.quote`).

use serde::{Deserialize, Serialize, Value};
use std::sync::Arc;

/// Maximum live span nesting per trace. Spans opened deeper are inert;
/// their children attach to the nearest recorded ancestor, so the tree
/// stays well-formed.
pub const MAX_DEPTH: usize = 16;

/// Maximum records one trace may write. A runaway loop of spans stops
/// recording (inert guards) instead of growing its thread's span
/// buffer without bound.
pub const SPAN_BUDGET: u64 = 1024;

/// One finished span of a completed trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    pub trace_id: u64,
    /// 1 for the trace's root; children get fresh ids per trace.
    pub span_id: u64,
    /// 0 for the root; otherwise the enclosing span's id.
    pub parent_id: u64,
    /// `<crate>.<component>.<verb>` (a `'static` literal, so recording
    /// a span copies no name bytes).
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Process-local id of the thread that recorded the span.
    pub tid: u64,
}

impl SpanRecord {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One finished trace: the root's bounds plus every span recorded under
/// it, sorted by start time.
#[derive(Debug, Clone)]
pub struct CompletedTrace {
    pub trace_id: u64,
    /// The operation label the exemplar store keys on (e.g. the
    /// server endpoint label) — defaults to the root span's name.
    pub op: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub spans: Vec<SpanRecord>,
}

impl CompletedTrace {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    fn document(&self) -> TraceDocument {
        let spans = self.spans.iter().map(|span| DocumentSpan {
            span_id: span.span_id,
            parent_id: span.parent_id,
            name: span.name.to_owned(),
            start_ns: span.start_ns,
            end_ns: span.end_ns,
            duration_ns: span.duration_ns(),
            tid: span.tid,
        });
        TraceDocument {
            trace_id: format_trace_id(self.trace_id),
            op: self.op.to_owned(),
            start_ns: self.start_ns,
            end_ns: self.end_ns,
            duration_ns: self.duration_ns(),
            spans: spans.collect(),
        }
    }

    /// Render the trace as a self-contained JSON object (the
    /// `GET /trace/{id}` body). JSON numbers are f64s here, so times
    /// are exact below 2⁵³ ns (104 days of uptime).
    pub fn to_json(&self) -> String {
        write_json(&self.document())
    }

    /// This trace's spans as Chrome trace-event (`ph: "X"`) objects —
    /// timestamps in fractional microseconds, as the format requires.
    fn chrome_events(&self) -> impl Iterator<Item = Value> + '_ {
        self.spans.iter().map(|span| {
            object(vec![
                ("name", span.name.to_value()),
                ("cat", "ft".to_value()),
                ("ph", "X".to_value()),
                ("ts", (span.start_ns as f64 / 1000.0).to_value()),
                ("dur", (span.duration_ns() as f64 / 1000.0).to_value()),
                ("pid", 1u32.to_value()),
                ("tid", span.tid.to_value()),
                (
                    "args",
                    object(vec![
                        ("trace_id", format_trace_id(span.trace_id).to_value()),
                        ("span_id", span.span_id.to_value()),
                        ("parent_id", span.parent_id.to_value()),
                        ("op", self.op.to_value()),
                    ]),
                ),
            ])
        })
    }
}

/// Canonical wire form of a trace id (16 hex digits, as carried in the
/// `x-ft-trace` header and `/trace/{id}` path segment).
pub fn format_trace_id(id: u64) -> String {
    format!("{id:016x}")
}

/// Parse the wire form back; rejects 0 (the "no trace" sentinel).
pub fn parse_trace_id(s: &str) -> Option<u64> {
    let s = s.trim();
    if s.is_empty() || s.len() > 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok().filter(|&id| id != 0)
}

/// A `GET /trace/{id}` document: what [`CompletedTrace::to_json`]
/// writes, and what [`merge_documents`] reads and writes.
#[derive(Serialize, Deserialize)]
struct TraceDocument {
    trace_id: String,
    op: String,
    start_ns: u64,
    end_ns: u64,
    duration_ns: u64,
    spans: Vec<DocumentSpan>,
}

/// One span of a [`TraceDocument`].
#[derive(Serialize, Deserialize)]
struct DocumentSpan {
    span_id: u64,
    parent_id: u64,
    name: String,
    start_ns: u64,
    end_ns: u64,
    duration_ns: u64,
    tid: u64,
}

/// A JSON object with these fields, in this order.
fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn write_json<T: Serialize>(document: &T) -> String {
    serde_json::to_string(document).expect("serialize trace document")
}

/// Render a set of completed traces as one Chrome trace-event /
/// Perfetto-compatible JSON document.
fn chrome_document(traces: &[Arc<CompletedTrace>]) -> String {
    let events = traces.iter().flat_map(|trace| trace.chrome_events());
    write_json(&object(vec![
        ("displayTimeUnit", "ns".to_value()),
        ("traceEvents", Value::Seq(events.collect())),
    ]))
}

/// Stitch per-process trace documents (each a `GET /trace/{id}` body
/// for the **same** trace id) into one tree rooted at `local`'s root.
///
/// A fleet front tier proxies one request across several processes,
/// and each records its own segment of the trace under the shared id.
/// Remote span ids are offset to stay unique; remote roots
/// (`parent_id == 0`) are reparented under the local root; each remote
/// segment's internal parent/child structure is preserved. Because the
/// trace clock is process-local (nanoseconds since process start),
/// remote timelines are rebased to start at the local root's start —
/// durations are exact, cross-process alignment is nominal.
///
/// Errors if any document does not parse as `CompletedTrace::to_json`
/// output.
pub fn merge_documents(local: &str, remotes: &[String]) -> Result<String, String> {
    let parse = |doc: &str| {
        serde_json::from_str::<TraceDocument>(doc).map_err(|e| format!("trace document: {e}"))
    };
    let mut merged = parse(local)?;
    let (root_id, root_start) = merged
        .spans
        .iter()
        .find(|s| s.parent_id == 0)
        .map(|s| (s.span_id, s.start_ns))
        .ok_or_else(|| "trace document: local trace has no root span".to_string())?;
    let mut next_offset = merged.spans.iter().map(|s| s.span_id).max().unwrap_or(0);
    for remote in remotes {
        let remote = parse(remote)?;
        let offset = next_offset;
        let rebase = remote.spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
        for mut span in remote.spans {
            span.span_id += offset;
            next_offset = next_offset.max(span.span_id);
            span.parent_id = if span.parent_id == 0 {
                root_id
            } else {
                span.parent_id + offset
            };
            span.start_ns = span.start_ns - rebase + root_start;
            span.end_ns = span.end_ns - rebase + root_start;
            merged.spans.push(span);
        }
    }
    merged.spans.sort_by_key(|s| (s.start_ns, s.span_id));
    merged.start_ns = merged.spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    merged.end_ns = merged.spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
    merged.duration_ns = merged.end_ns.saturating_sub(merged.start_ns);
    Ok(write_json(&merged))
}

mod imp {
    use super::{
        chrome_document, format_trace_id, object, write_json, CompletedTrace, SpanRecord,
        MAX_DEPTH, SPAN_BUDGET,
    };
    use serde::{Serialize, Value};
    use std::cell::RefCell;
    use std::collections::{HashMap, VecDeque};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, OnceLock};
    use std::time::Instant;

    /// Completed traces kept for `GET /trace/recent` / `{id}` lookup.
    const COMPLETED_CAP: usize = 256;
    /// Slowest traces kept per op label.
    const EXEMPLARS_PER_OP: usize = 4;

    fn anchor() -> Instant {
        static ANCHOR: OnceLock<Instant> = OnceLock::new();
        *ANCHOR.get_or_init(Instant::now)
    }

    /// Nanoseconds on the process-wide monotonic trace clock.
    pub fn now_ns() -> u64 {
        anchor().elapsed().as_nanos() as u64
    }

    fn splitmix64(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A fresh process-unique nonzero trace id (a mixed counter, so
    /// ids look random on the wire but never collide in-process).
    pub fn next_trace_id() -> u64 {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        // ORDERING: Relaxed — a unique-id counter; only atomicity
        // matters, no ordering with other memory.
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let id = splitmix64(n);
        if id == 0 {
            1
        } else {
            id
        }
    }

    /// Deterministic 1-in-`every` sampler (process-global counter).
    pub fn sample(every: u64) -> bool {
        static TICK: AtomicU64 = AtomicU64::new(0);
        if every <= 1 {
            return true;
        }
        // ORDERING: Relaxed — a sampling counter; no ordering needed.
        TICK.fetch_add(1, Ordering::Relaxed).is_multiple_of(every)
    }

    fn next_tid() -> u64 {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        // ORDERING: Relaxed — a unique-id counter.
        NEXT.fetch_add(1, Ordering::Relaxed)
    }

    // ---- per-thread trace context ------------------------------------

    struct Ctx {
        /// 0 = no trace active on this thread.
        trace_id: u64,
        /// Exemplar-store key: the root span name, or the op its
        /// opener named (the reactor names the endpoint label).
        op: &'static str,
        start_ns: u64,
        next_span: u64,
        depth: usize,
        /// Open-span ids, `stack[0]` = the root (span id 1).
        stack: [u64; MAX_DEPTH],
        recorded: u64,
        /// Process-local id of this thread (exported as `tid`), taken
        /// when the thread opens its first trace; 0 until then.
        tid: u64,
    }

    impl Ctx {
        const fn new() -> Self {
            Ctx {
                trace_id: 0,
                op: "",
                start_ns: 0,
                next_span: 1,
                depth: 0,
                stack: [0; MAX_DEPTH],
                recorded: 0,
                tid: 0,
            }
        }

        /// A finished span of the active trace, parented under the
        /// innermost open span.
        fn child(
            &self,
            span_id: u64,
            name: &'static str,
            start_ns: u64,
            end_ns: u64,
        ) -> SpanRecord {
            SpanRecord {
                trace_id: self.trace_id,
                span_id,
                parent_id: self.stack[self.depth - 1],
                name,
                start_ns,
                end_ns,
                tid: self.tid,
            }
        }
    }

    thread_local! {
        static CTX: RefCell<Ctx> = const { RefCell::new(Ctx::new()) };
        /// Finished spans of the trace active on this thread, drained
        /// by its root. Kept out of `Ctx`: a `Vec` field would give
        /// `CTX` a destructor, and every untraced `span()` would pay
        /// that destructor's registration check.
        static SPANS: RefCell<Vec<SpanRecord>> = const { RefCell::new(Vec::new()) };
    }

    fn push(span: SpanRecord) {
        SPANS.with(|spans| spans.borrow_mut().push(span));
    }

    // ---- guards ------------------------------------------------------

    /// RAII root of one trace on this thread. Dropping it takes the
    /// trace's finished spans plus the root record and publishes the
    /// completed trace to the recent/exemplar stores.
    pub struct TraceGuard {
        live: bool,
        name: &'static str,
    }

    /// Start a trace with a fresh id; root span named `name`.
    pub fn begin(name: &'static str) -> TraceGuard {
        begin_at(next_trace_id(), name, name, now_ns())
    }

    /// Start a trace under a caller-supplied id (header propagation).
    pub fn begin_with(trace_id: u64, name: &'static str) -> TraceGuard {
        begin_at(trace_id, name, name, now_ns())
    }

    /// Start a trace with an explicit (possibly backdated) root start,
    /// filed under `op` in the exemplar store — the reactor uses this
    /// to charge queue wait to the request and to file it under its
    /// endpoint. Inert if `trace_id` is 0 or a trace is already active
    /// on this thread (nested begins never clobber the outer root).
    pub fn begin_at(
        trace_id: u64,
        name: &'static str,
        op: &'static str,
        start_ns: u64,
    ) -> TraceGuard {
        if trace_id == 0 {
            return TraceGuard { live: false, name };
        }
        CTX.with(|ctx| {
            let mut ctx = ctx.borrow_mut();
            if ctx.trace_id != 0 {
                return TraceGuard { live: false, name };
            }
            if ctx.tid == 0 {
                ctx.tid = next_tid();
            }
            ctx.trace_id = trace_id;
            ctx.op = op;
            ctx.start_ns = start_ns;
            ctx.next_span = 1;
            ctx.depth = 1;
            ctx.stack[0] = 1;
            ctx.recorded = 0;
            TraceGuard { live: true, name }
        })
    }

    impl TraceGuard {
        /// Did this guard actually open a trace?
        pub fn is_live(&self) -> bool {
            self.live
        }
    }

    impl Drop for TraceGuard {
        fn drop(&mut self) {
            if !self.live {
                return;
            }
            let end_ns = now_ns();
            let (trace_id, op, start_ns, tid) = CTX.with(|ctx| {
                let mut ctx = ctx.borrow_mut();
                ctx.depth = 0;
                let trace_id = std::mem::take(&mut ctx.trace_id);
                (trace_id, ctx.op, ctx.start_ns, ctx.tid)
            });
            // Move the spans out; the buffer keeps its capacity for
            // this thread's next trace.
            let mut spans = SPANS.with(|buffer| {
                let mut buffer = buffer.borrow_mut();
                let mut spans = Vec::with_capacity(buffer.len() + 1);
                spans.append(&mut buffer);
                spans
            });
            spans.push(SpanRecord {
                trace_id,
                span_id: 1,
                parent_id: 0,
                name: self.name,
                start_ns,
                end_ns,
                tid,
            });
            spans.sort_by_key(|s| (s.start_ns, s.span_id));
            publish(CompletedTrace {
                trace_id,
                op,
                start_ns,
                end_ns,
                spans,
            });
        }
    }

    /// RAII child span. Inert (and free to drop) when no trace is
    /// active, the nesting cap is hit, or the span budget is spent.
    pub struct Span {
        live: bool,
        span_id: u64,
        name: &'static str,
        start_ns: u64,
    }

    /// Open a child span under the current trace, if any.
    #[inline]
    pub fn span(name: &'static str) -> Span {
        CTX.with(|ctx| {
            let mut ctx = ctx.borrow_mut();
            if ctx.trace_id == 0 || ctx.depth >= MAX_DEPTH || ctx.recorded >= SPAN_BUDGET {
                return Span {
                    live: false,
                    span_id: 0,
                    name,
                    start_ns: 0,
                };
            }
            ctx.next_span += 1;
            let span_id = ctx.next_span;
            let depth = ctx.depth;
            ctx.stack[depth] = span_id;
            ctx.depth += 1;
            Span {
                live: true,
                span_id,
                name,
                start_ns: now_ns(),
            }
        })
    }

    impl Drop for Span {
        fn drop(&mut self) {
            if !self.live {
                return;
            }
            let end_ns = now_ns();
            CTX.with(|ctx| {
                let mut ctx = ctx.borrow_mut();
                if ctx.trace_id == 0 || ctx.depth <= 1 {
                    return;
                }
                ctx.depth -= 1;
                ctx.recorded += 1;
                push(ctx.child(self.span_id, self.name, self.start_ns, end_ns));
            });
        }
    }

    /// Record a span from externally measured bounds (e.g. the
    /// reactor's queue wait), parented under the current open span.
    pub fn record(name: &'static str, start_ns: u64, end_ns: u64) {
        CTX.with(|ctx| {
            let mut ctx = ctx.borrow_mut();
            if ctx.trace_id == 0 || ctx.depth == 0 || ctx.recorded >= SPAN_BUDGET {
                return;
            }
            ctx.next_span += 1;
            ctx.recorded += 1;
            push(ctx.child(ctx.next_span, name, start_ns, end_ns));
        });
    }

    /// The id of the trace active on this thread, if any.
    pub fn current_trace_id() -> Option<u64> {
        CTX.with(|ctx| {
            let id = ctx.borrow().trace_id;
            (id != 0).then_some(id)
        })
    }

    // ---- completed-trace stores --------------------------------------

    fn completed() -> &'static Mutex<VecDeque<Arc<CompletedTrace>>> {
        static STORE: OnceLock<Mutex<VecDeque<Arc<CompletedTrace>>>> = OnceLock::new();
        STORE.get_or_init(|| Mutex::new(VecDeque::new()))
    }

    /// Exemplar store layout: op label → slowest traces, slowest first.
    type ExemplarMap = HashMap<&'static str, Vec<Arc<CompletedTrace>>>;

    fn exemplar_store() -> &'static Mutex<ExemplarMap> {
        static STORE: OnceLock<Mutex<ExemplarMap>> = OnceLock::new();
        STORE.get_or_init(|| Mutex::new(HashMap::new()))
    }

    fn publish(trace: CompletedTrace) {
        let op = trace.op;
        let trace = Arc::new(trace);
        {
            let mut store = completed().lock().unwrap_or_else(|e| e.into_inner());
            if store.len() >= COMPLETED_CAP {
                store.pop_front();
            }
            store.push_back(trace.clone());
        }
        let mut exemplars = exemplar_store().lock().unwrap_or_else(|e| e.into_inner());
        let bucket = exemplars.entry(op).or_default();
        bucket.push(trace);
        bucket.sort_by_key(|t| std::cmp::Reverse(t.duration_ns()));
        bucket.truncate(EXEMPLARS_PER_OP);
    }

    /// Look a completed trace up by id (recent store, then exemplars).
    pub fn find(trace_id: u64) -> Option<Arc<CompletedTrace>> {
        let hit = completed()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .rev()
            .find(|t| t.trace_id == trace_id)
            .cloned();
        hit.or_else(|| {
            exemplar_store()
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .values()
                .flatten()
                .find(|t| t.trace_id == trace_id)
                .cloned()
        })
    }

    /// The most recently completed traces, newest first.
    pub fn recent(limit: usize) -> Vec<Arc<CompletedTrace>> {
        completed()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .rev()
            .take(limit)
            .cloned()
            .collect()
    }

    /// Slow-trace exemplars per op label, slowest first, ops sorted.
    pub fn exemplars() -> Vec<(&'static str, Vec<Arc<CompletedTrace>>)> {
        let store = exemplar_store().lock().unwrap_or_else(|e| e.into_inner());
        let mut out: Vec<_> = store.iter().map(|(op, v)| (*op, v.clone())).collect();
        out.sort_by_key(|(op, _)| *op);
        out
    }

    // ---- JSON views --------------------------------------------------

    /// `GET /trace/{id}` body.
    pub fn find_json(trace_id: u64) -> Option<String> {
        find(trace_id).map(|t| t.to_json())
    }

    /// `GET /trace/recent` body: newest-first traces plus the exemplar
    /// index (`op` → slowest trace ids).
    pub fn recent_json(limit: usize) -> String {
        let traces = recent(limit)
            .iter()
            .map(|t| t.document().to_value())
            .collect();
        let exemplars = exemplars().into_iter().map(|(op, traces)| {
            let ids = traces.iter().map(|t| format_trace_id(t.trace_id));
            (op.to_owned(), ids.collect::<Vec<_>>().to_value())
        });
        write_json(&object(vec![
            ("traces", Value::Seq(traces)),
            ("exemplars", Value::Map(exemplars.collect())),
        ]))
    }

    /// `GET /trace/export` / `--trace-out` body: every stored trace as
    /// one Chrome trace-event JSON document, oldest first.
    pub fn export_chrome_json() -> String {
        let traces: Vec<Arc<CompletedTrace>> = completed()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect();
        chrome_document(&traces)
    }
}

pub use imp::{
    begin, begin_at, begin_with, current_trace_id, exemplars, export_chrome_json, find, find_json,
    next_trace_id, now_ns, recent, recent_json, record, sample, span, Span, TraceGuard,
};

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(
        trace_id: u64,
        op: &'static str,
        spans: Vec<(u64, u64, &'static str, u64, u64)>,
    ) -> String {
        let spans: Vec<SpanRecord> = spans
            .into_iter()
            .map(|(span_id, parent_id, name, start_ns, end_ns)| SpanRecord {
                trace_id,
                span_id,
                parent_id,
                name,
                start_ns,
                end_ns,
                tid: 1,
            })
            .collect();
        let start_ns = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
        let end_ns = spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
        CompletedTrace {
            trace_id,
            op,
            start_ns,
            end_ns,
            spans,
        }
        .to_json()
    }

    /// A three-span trace whose documents below were captured from the
    /// hand-written writer serde_json replaced.
    fn pinned_trace() -> CompletedTrace {
        let trace_id = 0x00c0_ffee_0000_002a;
        let span = |span_id, parent_id, name, start_ns, end_ns| SpanRecord {
            trace_id,
            span_id,
            parent_id,
            name,
            start_ns,
            end_ns,
            tid: 3,
        };
        CompletedTrace {
            trace_id,
            op: "campaign_price",
            start_ns: 1_000,
            end_ns: 1_234_567_891,
            spans: vec![
                span(1, 0, "server.request.serve", 1_000, 1_234_567_891),
                span(2, 1, "server.reactor.queue_wait", 1_000, 1_500),
                span(3, 1, "core.registry.quote", 2_000, 4_000_007),
            ],
        }
    }

    #[test]
    fn to_json_is_byte_identical_to_the_old_writer() {
        assert_eq!(
            pinned_trace().to_json(),
            concat!(
                r#"{"trace_id":"00c0ffee0000002a","op":"campaign_price","start_ns":1000,"#,
                r#""end_ns":1234567891,"duration_ns":1234566891,"spans":["#,
                r#"{"span_id":1,"parent_id":0,"name":"server.request.serve","start_ns":1000,"#,
                r#""end_ns":1234567891,"duration_ns":1234566891,"tid":3},"#,
                r#"{"span_id":2,"parent_id":1,"name":"server.reactor.queue_wait","#,
                r#""start_ns":1000,"end_ns":1500,"duration_ns":500,"tid":3},"#,
                r#"{"span_id":3,"parent_id":1,"name":"core.registry.quote","start_ns":2000,"#,
                r#""end_ns":4000007,"duration_ns":3998007,"tid":3}]}"#,
            )
        );
    }

    /// The export keeps the old writer's keys and event order, and its
    /// times parse to the same f64s as the old three-decimal text
    /// (`1.000`, `0.500`); only the trailing zeros go.
    #[test]
    fn chrome_export_times_parse_as_the_old_fixed_point_text() {
        let trace = pinned_trace();
        let chrome = chrome_document(&[Arc::new(pinned_trace())]);
        assert!(chrome.starts_with(concat!(
            r#"{"displayTimeUnit":"ns","traceEvents":[{"name":"server.request.serve","#,
            r#""cat":"ft","ph":"X","ts":1,"dur":1234566.891,"pid":1,"tid":3,"#,
            r#""args":{"trace_id":"00c0ffee0000002a","span_id":1,"parent_id":0,"#,
            r#""op":"campaign_price"}},{"name":"server.reactor.queue_wait","#,
        )));
        let doc: Value = serde_json::from_str(&chrome).unwrap();
        let events = serde::map_get(doc.as_map().unwrap(), "traceEvents").unwrap();
        let events = events.as_seq().unwrap();
        assert_eq!(events.len(), trace.spans.len());
        let field = |event: &Value, key| {
            let value = serde::map_get(event.as_map().unwrap(), key).unwrap();
            value.as_num().unwrap().to_bits()
        };
        let fixed_point = |ns: u64| format!("{:.3}", ns as f64 / 1000.0).parse::<f64>().unwrap();
        for (event, span) in events.iter().zip(&trace.spans) {
            assert_eq!(field(event, "ts"), fixed_point(span.start_ns).to_bits());
            assert_eq!(
                field(event, "dur"),
                fixed_point(span.duration_ns()).to_bits()
            );
        }
    }

    #[test]
    fn merge_reparents_remote_roots_under_the_local_root() {
        let local = doc(
            7,
            "campaign_price",
            vec![
                (1, 0, "router.request.serve", 100, 900),
                (2, 1, "router.backend.proxy", 200, 800),
            ],
        );
        // Remote clock is process-local (starts near zero) and its
        // span ids collide with the local ones.
        let remote_a = doc(
            7,
            "campaign_price",
            vec![
                (1, 0, "server.request.serve", 10, 60),
                (2, 1, "core.registry.quote", 20, 50),
            ],
        );
        let remote_b = doc(
            7,
            "campaign_price",
            vec![(1, 0, "server.request.serve", 5, 25)],
        );
        let merged = merge_documents(&local, &[remote_a, remote_b]).unwrap();
        let parsed: TraceDocument = serde_json::from_str(&merged).unwrap();
        assert_eq!(parsed.trace_id, "0000000000000007");
        assert_eq!(parsed.spans.len(), 5);
        // Ids unique; every remote root now hangs off local span 1.
        let mut ids: Vec<u64> = parsed.spans.iter().map(|s| s.span_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 5);
        let reparented = parsed
            .spans
            .iter()
            .filter(|s| s.name == "server.request.serve")
            .collect::<Vec<_>>();
        assert_eq!(reparented.len(), 2);
        assert!(reparented.iter().all(|s| s.parent_id == 1));
        // Remote internal structure survives: the quote span's parent
        // is its own segment's root, not the local root.
        let quote = parsed
            .spans
            .iter()
            .find(|s| s.name == "core.registry.quote")
            .unwrap();
        let remote_root = parsed
            .spans
            .iter()
            .find(|s| s.span_id == quote.parent_id)
            .unwrap();
        assert_eq!(remote_root.name, "server.request.serve");
        assert_eq!(remote_root.parent_id, 1);
        // Remote timelines are rebased into the local window, and the
        // merged envelope still covers every span.
        assert!(parsed.spans.iter().all(|s| s.start_ns >= 100));
        assert_eq!(quote.end_ns - quote.start_ns, 30);
    }

    #[test]
    fn merge_of_local_alone_is_stable() {
        let local = doc(9, "x", vec![(1, 0, "router.request.serve", 0, 10)]);
        let merged = merge_documents(&local, &[]).unwrap();
        assert_eq!(merged, local);
    }

    #[test]
    fn merge_rejects_malformed_documents() {
        let local = doc(9, "x", vec![(1, 0, "router.request.serve", 0, 10)]);
        assert!(merge_documents("{}", &[]).is_err());
        assert!(merge_documents(&local, &["not json".to_string()]).is_err());
        // A rootless local document (every span parented) is an error,
        // not a silent mis-merge.
        let rootless = doc(9, "x", vec![(2, 1, "router.backend.proxy", 0, 10)]);
        assert!(merge_documents(&rootless, &[]).is_err());
    }

    #[test]
    fn trace_id_wire_roundtrip() {
        let id = next_trace_id();
        assert_ne!(id, 0);
        let wire = format_trace_id(id);
        assert_eq!(wire.len(), 16);
        assert_eq!(parse_trace_id(&wire), Some(id));
        assert_eq!(parse_trace_id(""), None);
        assert_eq!(parse_trace_id("0"), None);
        assert_eq!(parse_trace_id("zzzz"), None);
        assert_eq!(parse_trace_id("123456789012345678"), None);
    }

    #[test]
    fn ids_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            assert!(seen.insert(next_trace_id()));
        }
    }

    #[test]
    fn sampler_fires_once_per_period() {
        let mut hits = 0;
        for _ in 0..64 {
            if sample(8) {
                hits += 1;
            }
        }
        assert_eq!(hits, 8);
        assert!(sample(1));
    }

    #[test]
    fn root_only_trace_completes() {
        let id = next_trace_id();
        {
            let _root = begin_with(id, "trace.test.root_only");
        }
        let trace = find(id).expect("trace stored");
        assert_eq!(trace.trace_id, id);
        assert_eq!(trace.op, "trace.test.root_only");
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.spans[0].span_id, 1);
        assert_eq!(trace.spans[0].parent_id, 0);
        assert!(trace.spans[0].end_ns >= trace.spans[0].start_ns);
    }

    #[test]
    fn child_spans_nest_strictly() {
        let id = next_trace_id();
        {
            let _root = begin_with(id, "trace.test.nest");
            {
                let _a = span("trace.test.outer");
                let _b = span("trace.test.inner");
            }
            let _c = span("trace.test.sibling");
        }
        let trace = find(id).expect("trace stored");
        assert_eq!(trace.spans.len(), 4);
        let by_name = |name: &str| {
            trace
                .spans
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("span {name} present"))
        };
        let root = by_name("trace.test.nest");
        let outer = by_name("trace.test.outer");
        let inner = by_name("trace.test.inner");
        let sibling = by_name("trace.test.sibling");
        assert_eq!(root.parent_id, 0);
        assert_eq!(outer.parent_id, root.span_id);
        assert_eq!(inner.parent_id, outer.span_id);
        assert_eq!(sibling.parent_id, root.span_id);
        // Strict interval nesting: child within parent within root.
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
        assert!(outer.start_ns >= root.start_ns && outer.end_ns <= root.end_ns);
        assert!(sibling.start_ns >= root.start_ns && sibling.end_ns <= root.end_ns);
    }

    #[test]
    fn record_attributes_external_interval() {
        let id = next_trace_id();
        let queued = now_ns();
        {
            let _root = begin_at(id, "trace.test.backdate", "trace_test_op", queued);
            record("trace.test.queue_wait", queued, now_ns());
        }
        let trace = find(id).expect("trace stored");
        assert_eq!(trace.op, "trace_test_op");
        let wait = trace
            .spans
            .iter()
            .find(|s| s.name == "trace.test.queue_wait")
            .expect("recorded span present");
        assert_eq!(wait.parent_id, 1);
        assert_eq!(wait.start_ns, queued);
        assert_eq!(trace.start_ns, queued);
    }

    #[test]
    fn reused_trace_id_gets_a_fresh_tree() {
        // A client may send the same x-ft-trace id twice, and the
        // router re-sends it when it retries a request on a node. The
        // second trace must hold only its own spans.
        let id = next_trace_id();
        {
            let _root = begin_with(id, "trace.test.first_use");
            let _child = span("trace.test.first_child");
        }
        {
            let _root = begin_with(id, "trace.test.second_use");
        }
        let trace = find(id).expect("trace stored");
        assert_eq!(trace.op, "trace.test.second_use");
        assert_eq!(trace.spans.len(), 1, "{:?}", trace.spans);
        assert_eq!(trace.spans[0].parent_id, 0);
        assert_eq!(trace.spans[0].name, "trace.test.second_use");
    }

    #[test]
    fn untraced_spans_are_inert() {
        assert_eq!(current_trace_id(), None);
        let _s = span("trace.test.orphan");
        drop(_s);
        record("trace.test.orphan_record", 1, 2);
        assert_eq!(current_trace_id(), None);
    }

    #[test]
    fn nested_begin_is_inert() {
        let id = next_trace_id();
        let _root = begin_with(id, "trace.test.outer_root");
        assert_eq!(current_trace_id(), Some(id));
        {
            let inner = begin(
                // L6 grammar still applies to inert roots.
                "trace.test.inner_root",
            );
            assert!(!inner.is_live());
        }
        // Inner guard's drop must not have clobbered the outer trace.
        assert_eq!(current_trace_id(), Some(id));
    }

    #[test]
    fn depth_cap_reparents_to_nearest_recorded_ancestor() {
        let id = next_trace_id();
        {
            let _root = begin_with(id, "trace.test.deep");
            // Open MAX_DEPTH + 4 nested spans; the over-cap ones are
            // inert, their children attach to the deepest live span.
            fn descend(level: usize) {
                if level == 0 {
                    return;
                }
                let _s = span("trace.test.level");
                descend(level - 1);
            }
            descend(MAX_DEPTH + 4);
        }
        let trace = find(id).expect("trace stored");
        // Root + (MAX_DEPTH - 1) live levels recorded.
        assert_eq!(trace.spans.len(), MAX_DEPTH);
        // Every parent id resolves to a span in the same trace.
        for span in &trace.spans {
            if span.parent_id != 0 {
                assert!(trace.spans.iter().any(|p| p.span_id == span.parent_id));
            }
        }
    }

    #[test]
    fn span_budget_bounds_recording() {
        let id = next_trace_id();
        {
            let _root = begin_with(id, "trace.test.budget");
            for _ in 0..(SPAN_BUDGET + 500) {
                let _s = span("trace.test.tick");
            }
        }
        let trace = find(id).expect("trace stored");
        // Budgeted children + the root.
        assert_eq!(trace.spans.len() as u64, SPAN_BUDGET + 1);
    }

    #[test]
    fn span_flood_keeps_tree_well_formed() {
        let id = next_trace_id();
        {
            let _root = begin_with(id, "trace.test.overflow");
            let _mid = span("trace.test.mid");
            // Twice the budget: the churn spans past it are inert, and
            // the spans still open when it runs out (mid, root) are
            // recorded anyway, so every recorded parent survives.
            for _ in 0..2 * SPAN_BUDGET {
                let _s = span("trace.test.churn");
            }
        }
        let trace = find(id).expect("trace stored");
        assert_eq!(trace.spans.len() as u64, SPAN_BUDGET + 2);
        for span in &trace.spans {
            if span.parent_id != 0 {
                assert!(
                    trace.spans.iter().any(|p| p.span_id == span.parent_id),
                    "span {} orphaned under overflow",
                    span.span_id
                );
            }
        }
    }

    #[test]
    fn exemplar_store_keeps_slowest() {
        // Distinct op so other tests' traces don't interfere.
        let op = "trace.test.exemplar_op";
        let mut slow_id = 0;
        for i in 0..8 {
            let id = next_trace_id();
            let _root = begin_with(id, op);
            if i == 3 {
                slow_id = id;
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            drop(_root);
        }
        let all = exemplars();
        let bucket = &all
            .iter()
            .find(|(o, _)| *o == op)
            .expect("op bucket present")
            .1;
        assert!(bucket.len() <= 4);
        assert_eq!(bucket[0].trace_id, slow_id);
    }

    #[test]
    fn json_views_are_parseable_shape() {
        let id = next_trace_id();
        {
            let _root = begin_with(id, "trace.test.json");
            let _s = span("trace.test.child");
        }
        let body = find_json(id).expect("trace stored");
        assert!(body.starts_with('{') && body.ends_with('}'));
        assert!(body.contains(&format!("\"trace_id\":\"{id:016x}\"")));
        assert!(body.contains("\"spans\":["));
        let recent = recent_json(4);
        assert!(recent.starts_with("{\"traces\":["));
        assert!(recent.contains("\"exemplars\":{"));
        let chrome = export_chrome_json();
        assert!(chrome.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(chrome.contains("\"ph\":\"X\""));
    }
}
