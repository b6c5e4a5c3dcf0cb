//! `ft-trace` — request-scoped span tracing from socket to solver
//! kernel.
//!
//! The observability plane's counters and histograms (`ft-metrics`)
//! say *how often* and *how slow*; this crate answers **where a
//! specific slow request spent its time**. The design goals, in
//! order:
//!
//! 1. **~zero hot-path cost.** An untraced call site pays one TLS
//!    access and one branch (`trace_id == 0`). A traced span writes a
//!    fixed-size record into a **per-thread bounded ring** — no
//!    allocation, no lock, no syscall on the hot path.
//! 2. **Never torn.** Rings are written only by their owning thread
//!    but may be read cross-thread (tests, sweeps). Each slot is a
//!    [seqlock]: the writer bumps a sequence odd → writes fields →
//!    bumps it even; a reader that observes an odd or changed sequence
//!    discards the slot. A record is either whole or absent.
//! 3. **Well-formed trees under overwrite.** The ring overwrites
//!    oldest-first, and a span's record is written **at guard drop** —
//!    so a parent's record always lands *after* every descendant's.
//!    Strict overwrite-oldest eviction therefore preserves the
//!    invariant: any surviving span's ancestors survived too.
//!
//! A trace is **thread-local by construction**: the root guard
//! ([`begin`]/[`begin_at`]) and all its child [`span`]s live on one
//! thread (`ft-exec` records dispatch/join on the *calling* thread;
//! pool workers carry no trace context). Dropping the root writes the
//! root record, sweeps the owning thread's ring for the trace id, and
//! publishes a [`CompletedTrace`] into a bounded global store plus a
//! per-op **slow-trace exemplar** store (the N slowest per op), which
//! back `GET /trace/recent`, `GET /trace/{id}`, `GET /trace/export`
//! (Chrome trace-event / Perfetto JSON), and the `exemplar_trace_id`
//! field on `/metrics` histograms.
//!
//! Span names follow the `<crate>.<component>.<verb>` grammar enforced
//! by `ft-audit`'s L6 lint (e.g. `core.registry.quote`).
//!
//! [seqlock]: https://en.wikipedia.org/wiki/Seqlock

use std::fmt::Write as _;
use std::sync::Arc;

/// Maximum live span nesting per trace. Spans opened deeper are inert;
/// their children attach to the nearest recorded ancestor, so the tree
/// stays well-formed.
pub const MAX_DEPTH: usize = 16;

/// Slots per per-thread ring. At 64 bytes a slot this is ~128 KiB per
/// tracing thread — bounded, allocated once, overwritten oldest-first.
pub const RING_SLOTS: usize = 2048;

/// Maximum records one trace may write. A runaway loop of spans stops
/// recording (inert guards) instead of churning the whole ring.
pub const SPAN_BUDGET: u64 = 1024;

/// One finished span, as swept out of a ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    pub trace_id: u64,
    /// 1 for the trace's root; children get fresh ids per trace.
    pub span_id: u64,
    /// 0 for the root; otherwise the enclosing span's id.
    pub parent_id: u64,
    /// `<crate>.<component>.<verb>` (a `'static` literal — the ring
    /// stores the pointer, never the bytes).
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

/// One finished trace: the root's bounds plus every span that survived
/// the ring, sorted by start time.
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

    /// Render the trace as a self-contained JSON object (the
    /// `GET /trace/{id}` body).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(160 + self.spans.len() * 144);
        out.push_str("{\"trace_id\":\"");
        let _ = write!(out, "{:016x}", self.trace_id);
        out.push_str("\",\"op\":");
        push_json_str(&mut out, self.op);
        let _ = write!(
            out,
            ",\"start_ns\":{},\"end_ns\":{},\"duration_ns\":{},\"spans\":[",
            self.start_ns,
            self.end_ns,
            self.duration_ns()
        );
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"span_id\":{},\"parent_id\":{},\"name\":",
                span.span_id, span.parent_id
            );
            push_json_str(&mut out, span.name);
            let _ = write!(
                out,
                ",\"start_ns\":{},\"end_ns\":{},\"duration_ns\":{},\"tid\":{}}}",
                span.start_ns,
                span.end_ns,
                span.duration_ns(),
                span.tid
            );
        }
        out.push_str("]}");
        out
    }

    /// Append this trace's spans as Chrome trace-event (`ph: "X"`)
    /// objects — timestamps in fractional microseconds, as the format
    /// requires.
    fn push_chrome_events(&self, out: &mut String, first: &mut bool) {
        for span in &self.spans {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push_str("{\"name\":");
            push_json_str(out, span.name);
            let _ = write!(
                out,
                ",\"cat\":\"ft\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{}",
                span.start_ns as f64 / 1000.0,
                span.duration_ns() as f64 / 1000.0,
                span.tid
            );
            let _ = write!(
                out,
                ",\"args\":{{\"trace_id\":\"{:016x}\",\"span_id\":{},\"parent_id\":{},\"op\":",
                span.trace_id, span.span_id, span.parent_id
            );
            push_json_str(out, self.op);
            out.push_str("}}");
        }
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

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Render a set of completed traces as one Chrome trace-event /
/// Perfetto-compatible JSON document.
fn chrome_document(traces: &[Arc<CompletedTrace>]) -> String {
    let mut out = String::with_capacity(64 + traces.len() * 512);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    for trace in traces {
        trace.push_chrome_events(&mut out, &mut first);
    }
    out.push_str("]}");
    out
}

// ---- cross-process trace merging ------------------------------------
//
// A fleet front tier proxies one request across several processes;
// each process records its own segment of the trace under the shared
// trace id. `merge_documents` stitches the per-process `to_json`
// documents into one tree: remote segments keep their internal
// structure, their roots are reparented under the local root, and span
// ids are offset so they stay unique. The parser below reads exactly
// the format `CompletedTrace::to_json` emits — no general JSON
// machinery, no dependencies.

/// One span as parsed back out of a `to_json` document. Names are kept
/// as raw JSON string tokens (quotes and escapes included) so merging
/// never re-escapes.
struct ParsedSpan<'a> {
    span_id: u64,
    parent_id: u64,
    name_raw: &'a str,
    start_ns: u64,
    end_ns: u64,
    tid: u64,
}

struct ParsedTrace<'a> {
    trace_id_raw: &'a str,
    op_raw: &'a str,
    spans: Vec<ParsedSpan<'a>>,
}

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn lit(&mut self, expected: &str) -> Result<(), String> {
        let end = self.at + expected.len();
        if self.bytes.get(self.at..end) == Some(expected.as_bytes()) {
            self.at = end;
            Ok(())
        } else {
            Err(format!(
                "trace document: expected `{expected}` at byte {}",
                self.at
            ))
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn num(&mut self) -> Result<u64, String> {
        let start = self.at;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        if self.at == start {
            return Err(format!("trace document: expected a number at byte {start}"));
        }
        std::str::from_utf8(&self.bytes[start..self.at])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("trace document: bad number at byte {start}"))
    }

    /// A JSON string, returned as its raw token (quotes included).
    fn str_raw(&mut self, source: &'a str) -> Result<&'a str, String> {
        let start = self.at;
        self.lit("\"")?;
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(&source[start..self.at]);
                }
                Some(b'\\') => self.at += 2,
                Some(_) => self.at += 1,
                None => return Err("trace document: unterminated string".into()),
            }
        }
    }
}

fn parse_document(doc: &str) -> Result<ParsedTrace<'_>, String> {
    let mut c = Cursor {
        bytes: doc.as_bytes(),
        at: 0,
    };
    c.lit("{\"trace_id\":")?;
    let trace_id_raw = c.str_raw(doc)?;
    c.lit(",\"op\":")?;
    let op_raw = c.str_raw(doc)?;
    c.lit(",\"start_ns\":")?;
    c.num()?;
    c.lit(",\"end_ns\":")?;
    c.num()?;
    c.lit(",\"duration_ns\":")?;
    c.num()?;
    c.lit(",\"spans\":[")?;
    let mut spans = Vec::new();
    if c.peek() == Some(b']') {
        c.at += 1;
    } else {
        loop {
            c.lit("{\"span_id\":")?;
            let span_id = c.num()?;
            c.lit(",\"parent_id\":")?;
            let parent_id = c.num()?;
            c.lit(",\"name\":")?;
            let name_raw = c.str_raw(doc)?;
            c.lit(",\"start_ns\":")?;
            let start_ns = c.num()?;
            c.lit(",\"end_ns\":")?;
            let end_ns = c.num()?;
            c.lit(",\"duration_ns\":")?;
            c.num()?;
            c.lit(",\"tid\":")?;
            let tid = c.num()?;
            c.lit("}")?;
            spans.push(ParsedSpan {
                span_id,
                parent_id,
                name_raw,
                start_ns,
                end_ns,
                tid,
            });
            match c.peek() {
                Some(b',') => c.at += 1,
                Some(b']') => {
                    c.at += 1;
                    break;
                }
                _ => return Err("trace document: bad spans array".into()),
            }
        }
    }
    c.lit("}")?;
    Ok(ParsedTrace {
        trace_id_raw,
        op_raw,
        spans,
    })
}

/// Stitch per-process trace documents (each a `GET /trace/{id}` body
/// for the **same** trace id) into one tree rooted at `local`'s root.
///
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
    let base = parse_document(local)?;
    let local_root = base
        .spans
        .iter()
        .find(|s| s.parent_id == 0)
        .map(|s| (s.span_id, s.start_ns))
        .ok_or_else(|| "trace document: local trace has no root span".to_string())?;
    let mut spans: Vec<ParsedSpan<'_>> = base.spans;
    let mut next_offset: u64 = spans.iter().map(|s| s.span_id).max().unwrap_or(0);
    let mut parsed_remotes = Vec::with_capacity(remotes.len());
    for remote in remotes {
        parsed_remotes.push(parse_document(remote)?);
    }
    for remote in &parsed_remotes {
        let offset = next_offset;
        let rebase = remote.spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
        for span in &remote.spans {
            next_offset = next_offset.max(span.span_id + offset);
            spans.push(ParsedSpan {
                span_id: span.span_id + offset,
                parent_id: if span.parent_id == 0 {
                    local_root.0
                } else {
                    span.parent_id + offset
                },
                name_raw: span.name_raw,
                start_ns: span.start_ns - rebase + local_root.1,
                end_ns: span.end_ns - rebase + local_root.1,
                tid: span.tid,
            });
        }
    }
    spans.sort_by_key(|s| (s.start_ns, s.span_id));
    let start_ns = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    let end_ns = spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
    let mut out = String::with_capacity(160 + spans.len() * 144);
    let _ = write!(
        out,
        "{{\"trace_id\":{},\"op\":{},\"start_ns\":{},\"end_ns\":{},\"duration_ns\":{},\"spans\":[",
        base.trace_id_raw,
        base.op_raw,
        start_ns,
        end_ns,
        end_ns.saturating_sub(start_ns)
    );
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"span_id\":{},\"parent_id\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{},\
             \"duration_ns\":{},\"tid\":{}}}",
            span.span_id,
            span.parent_id,
            span.name_raw,
            span.start_ns,
            span.end_ns,
            span.end_ns.saturating_sub(span.start_ns),
            span.tid
        );
    }
    out.push_str("]}");
    Ok(out)
}

mod imp {
    use super::{chrome_document, CompletedTrace, SpanRecord, MAX_DEPTH, RING_SLOTS, SPAN_BUDGET};
    use std::cell::RefCell;
    use std::collections::{HashMap, VecDeque};
    use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
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

    // ---- per-thread seqlock ring -------------------------------------

    struct Slot {
        /// Seqlock sequence: even = stable, odd = write in progress.
        seq: AtomicU64,
        trace_id: AtomicU64,
        span_id: AtomicU64,
        parent_id: AtomicU64,
        start_ns: AtomicU64,
        end_ns: AtomicU64,
        name_ptr: AtomicUsize,
        name_len: AtomicUsize,
    }

    impl Slot {
        const fn new() -> Self {
            Slot {
                seq: AtomicU64::new(0),
                trace_id: AtomicU64::new(0),
                span_id: AtomicU64::new(0),
                parent_id: AtomicU64::new(0),
                start_ns: AtomicU64::new(0),
                end_ns: AtomicU64::new(0),
                name_ptr: AtomicUsize::new(0),
                name_len: AtomicUsize::new(0),
            }
        }
    }

    struct Ring {
        /// Process-local id of the owning thread (exported as `tid`).
        tid: u64,
        /// Next write position; owner-thread only.
        head: AtomicUsize,
        slots: Box<[Slot]>,
    }

    impl Ring {
        fn new(tid: u64) -> Self {
            Ring {
                tid,
                head: AtomicUsize::new(0),
                slots: (0..RING_SLOTS).map(|_| Slot::new()).collect(),
            }
        }

        /// Publish one record (single writer: the owning thread).
        fn write(
            &self,
            trace_id: u64,
            span_id: u64,
            parent_id: u64,
            name: &'static str,
            start_ns: u64,
            end_ns: u64,
        ) {
            // ORDERING: Relaxed — `head` is read and written only by
            // the owning thread; readers scan every slot instead.
            let i = self.head.load(Ordering::Relaxed);
            self.head.store(i.wrapping_add(1), Ordering::Relaxed);
            let slot = &self.slots[i % RING_SLOTS];
            // ORDERING: Relaxed — the odd marker is ordered ahead of
            // the field stores by the Release fence just below; only
            // the owning thread writes `seq`.
            let s = slot.seq.load(Ordering::Relaxed);
            slot.seq.store(s.wrapping_add(1), Ordering::Relaxed);
            fence(Ordering::Release);
            // The field stores below sit between the Release fence
            // above and the Release publish of `seq`; seqlock readers
            // discard anything observed mid-write.
            // ORDERING: Relaxed — covered by that fence/publish bracket.
            slot.trace_id.store(trace_id, Ordering::Relaxed);
            slot.span_id.store(span_id, Ordering::Relaxed);
            slot.parent_id.store(parent_id, Ordering::Relaxed);
            slot.start_ns.store(start_ns, Ordering::Relaxed);
            slot.end_ns.store(end_ns, Ordering::Relaxed);
            slot.name_ptr
                .store(name.as_ptr() as usize, Ordering::Relaxed);
            slot.name_len.store(name.len(), Ordering::Relaxed);
            // ORDERING: Release — publishes the field stores above to
            // any reader that Acquire-loads this even sequence.
            slot.seq.store(s.wrapping_add(2), Ordering::Release);
        }

        /// Seqlock-validated read of one slot; `None` if the slot is
        /// empty, mid-write, changed under us, or filtered out.
        fn read(&self, index: usize, filter: Option<u64>) -> Option<SpanRecord> {
            let slot = &self.slots[index];
            // ORDERING: Acquire — pairs with the writer's Release
            // publish; field loads below can't move above this.
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                return None;
            }
            // Validated after the fact: the Acquire fence below plus
            // the `s1 == s2` check prove no writer touched the slot
            // while these loaded.
            // ORDERING: Relaxed — covered by that fence/validation pair.
            let trace_id = slot.trace_id.load(Ordering::Relaxed);
            let span_id = slot.span_id.load(Ordering::Relaxed);
            let parent_id = slot.parent_id.load(Ordering::Relaxed);
            let start_ns = slot.start_ns.load(Ordering::Relaxed);
            let end_ns = slot.end_ns.load(Ordering::Relaxed);
            let name_ptr = slot.name_ptr.load(Ordering::Relaxed);
            let name_len = slot.name_len.load(Ordering::Relaxed);
            // ORDERING: Acquire fence — pairs with the writer's Release
            // fence; orders the field loads above before the re-load.
            fence(Ordering::Acquire);
            // ORDERING: Relaxed — the Acquire fence above orders the
            // field loads before this re-load.
            let s2 = slot.seq.load(Ordering::Relaxed);
            if s1 != s2 || trace_id == 0 {
                return None;
            }
            if filter.is_some_and(|want| want != trace_id) {
                return None;
            }
            // SAFETY: `name_ptr`/`name_len` were stored together from a
            // `&'static str` under the seqlock, and the `s1 == s2`
            // check above proves the pair was read un-torn (a torn
            // pointer/length pair is discarded before reaching this
            // line); the referent is live UTF-8 for the program's
            // lifetime.
            let name: &'static str = unsafe {
                std::str::from_utf8_unchecked(std::slice::from_raw_parts(
                    name_ptr as *const u8,
                    name_len,
                ))
            };
            Some(SpanRecord {
                trace_id,
                span_id,
                parent_id,
                name,
                start_ns,
                end_ns,
                tid: self.tid,
            })
        }

        fn sweep(&self, trace_id: u64) -> Vec<SpanRecord> {
            (0..RING_SLOTS)
                .filter_map(|i| self.read(i, Some(trace_id)))
                .collect()
        }
    }

    fn rings() -> &'static Mutex<Vec<Arc<Ring>>> {
        static RINGS: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
        RINGS.get_or_init(|| Mutex::new(Vec::new()))
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
        /// Exemplar-store key; defaults to the root span name until
        /// [`set_current_op`] refines it (e.g. the endpoint label).
        op: &'static str,
        start_ns: u64,
        next_span: u64,
        depth: usize,
        /// Open-span ids, `stack[0]` = the root (span id 1).
        stack: [u64; MAX_DEPTH],
        recorded: u64,
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
            }
        }
    }

    thread_local! {
        static RING: Arc<Ring> = {
            let ring = Arc::new(Ring::new(next_tid()));
            rings()
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(ring.clone());
            ring
        };
        static CTX: RefCell<Ctx> = const { RefCell::new(Ctx::new()) };
    }

    // ---- guards ------------------------------------------------------

    /// RAII root of one trace on this thread. Dropping it writes the
    /// root record, sweeps this thread's ring, and publishes the
    /// completed trace to the recent/exemplar stores.
    pub struct TraceGuard {
        live: bool,
        name: &'static str,
    }

    /// Start a trace with a fresh id; root span named `name`.
    pub fn begin(name: &'static str) -> TraceGuard {
        begin_at(next_trace_id(), name, now_ns())
    }

    /// Start a trace under a caller-supplied id (header propagation).
    pub fn begin_with(trace_id: u64, name: &'static str) -> TraceGuard {
        begin_at(trace_id, name, now_ns())
    }

    /// Start a trace with an explicit (possibly backdated) root start —
    /// the reactor uses this to charge queue wait to the request.
    /// Inert if `trace_id` is 0 or a trace is already active on this
    /// thread (nested begins never clobber the outer root).
    pub fn begin_at(trace_id: u64, name: &'static str, start_ns: u64) -> TraceGuard {
        if trace_id == 0 {
            return TraceGuard { live: false, name };
        }
        CTX.with(|ctx| {
            let mut ctx = ctx.borrow_mut();
            if ctx.trace_id != 0 {
                return TraceGuard { live: false, name };
            }
            ctx.trace_id = trace_id;
            ctx.op = name;
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
            let (trace_id, op, start_ns) = CTX.with(|ctx| {
                let mut ctx = ctx.borrow_mut();
                let out = (ctx.trace_id, ctx.op, ctx.start_ns);
                ctx.trace_id = 0;
                ctx.depth = 0;
                out
            });
            if trace_id == 0 {
                return;
            }
            RING.with(|ring| {
                ring.write(trace_id, 1, 0, self.name, start_ns, end_ns);
                finalize(ring, trace_id, op, start_ns, end_ns);
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
                let parent = ctx.stack[ctx.depth - 1];
                ctx.recorded += 1;
                let trace_id = ctx.trace_id;
                RING.with(|ring| {
                    ring.write(
                        trace_id,
                        self.span_id,
                        parent,
                        self.name,
                        self.start_ns,
                        end_ns,
                    )
                });
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
            let span_id = ctx.next_span;
            let parent = ctx.stack[ctx.depth - 1];
            ctx.recorded += 1;
            let trace_id = ctx.trace_id;
            RING.with(|ring| ring.write(trace_id, span_id, parent, name, start_ns, end_ns));
        });
    }

    /// The id of the trace active on this thread, if any.
    pub fn current_trace_id() -> Option<u64> {
        CTX.with(|ctx| {
            let id = ctx.borrow().trace_id;
            (id != 0).then_some(id)
        })
    }

    /// Re-key the active trace's exemplar bucket (the router calls
    /// this once the endpoint is classified).
    pub fn set_current_op(op: &'static str) {
        CTX.with(|ctx| {
            let mut ctx = ctx.borrow_mut();
            if ctx.trace_id != 0 {
                ctx.op = op;
            }
        });
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

    fn finalize(ring: &Ring, trace_id: u64, op: &'static str, start_ns: u64, end_ns: u64) {
        let mut spans = ring.sweep(trace_id);
        spans.sort_by_key(|s| (s.start_ns, s.span_id));
        let trace = Arc::new(CompletedTrace {
            trace_id,
            op,
            start_ns,
            end_ns,
            spans,
        });
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

    /// The slowest exemplar trace id for `op`, if one is stored —
    /// surfaced as `exemplar_trace_id` on `/metrics` histograms.
    pub fn exemplar_id(op: &str) -> Option<u64> {
        exemplar_store()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(op)
            .and_then(|v| v.first())
            .map(|t| t.trace_id)
    }

    /// Every validated record currently in any thread's ring —
    /// cross-thread seqlock reads, for tests and diagnostics.
    pub fn snapshot_all_rings() -> Vec<SpanRecord> {
        let rings: Vec<Arc<Ring>> = rings().lock().unwrap_or_else(|e| e.into_inner()).clone();
        rings
            .iter()
            .flat_map(|ring| (0..RING_SLOTS).filter_map(|i| ring.read(i, None)))
            .collect()
    }

    // ---- JSON views --------------------------------------------------

    /// `GET /trace/{id}` body.
    pub fn find_json(trace_id: u64) -> Option<String> {
        find(trace_id).map(|t| t.to_json())
    }

    /// `GET /trace/recent` body: newest-first traces plus the exemplar
    /// index (`op` → slowest trace ids).
    pub fn recent_json(limit: usize) -> String {
        let traces = recent(limit);
        let mut out = String::with_capacity(64 + traces.len() * 256);
        out.push_str("{\"traces\":[");
        for (i, trace) in traces.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&trace.to_json());
        }
        out.push_str("],\"exemplars\":{");
        for (i, (op, traces)) in exemplars().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            super::push_json_str(&mut out, op);
            out.push_str(":[");
            for (j, trace) in traces.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = std::fmt::Write::write_fmt(
                    &mut out,
                    format_args!("\"{:016x}\"", trace.trace_id),
                );
            }
            out.push(']');
        }
        out.push_str("}}");
        out
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
    begin, begin_at, begin_with, current_trace_id, exemplar_id, exemplars, export_chrome_json,
    find, find_json, next_trace_id, now_ns, recent, recent_json, record, sample, set_current_op,
    snapshot_all_rings, span, Span, TraceGuard,
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
        let parsed = parse_document(&merged).unwrap();
        assert_eq!(parsed.trace_id_raw, "\"0000000000000007\"");
        assert_eq!(parsed.spans.len(), 5);
        // Ids unique; every remote root now hangs off local span 1.
        let mut ids: Vec<u64> = parsed.spans.iter().map(|s| s.span_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 5);
        let reparented = parsed
            .spans
            .iter()
            .filter(|s| s.name_raw == "\"server.request.serve\"")
            .collect::<Vec<_>>();
        assert_eq!(reparented.len(), 2);
        assert!(reparented.iter().all(|s| s.parent_id == 1));
        // Remote internal structure survives: the quote span's parent
        // is its own segment's root, not the local root.
        let quote = parsed
            .spans
            .iter()
            .find(|s| s.name_raw == "\"core.registry.quote\"")
            .unwrap();
        let remote_root = parsed
            .spans
            .iter()
            .find(|s| s.span_id == quote.parent_id)
            .unwrap();
        assert_eq!(remote_root.name_raw, "\"server.request.serve\"");
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
            let _root = begin_at(id, "trace.test.backdate", queued);
            record("trace.test.queue_wait", queued, now_ns());
        }
        let trace = find(id).expect("trace stored");
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
    fn ring_overflow_keeps_tree_well_formed() {
        let id = next_trace_id();
        {
            let _root = begin_with(id, "trace.test.overflow");
            let _mid = span("trace.test.mid");
            // More spans than the ring holds: oldest records fall out,
            // but write-at-drop means surviving spans' ancestors (mid,
            // root — written last) always survive.
            for _ in 0..RING_SLOTS {
                let _s = span("trace.test.churn");
            }
        }
        let trace = find(id).expect("trace stored");
        assert!(trace.spans.len() <= RING_SLOTS);
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
        assert_eq!(exemplar_id(op), Some(slow_id));
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
