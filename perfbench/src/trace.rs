//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps every call it makes into the stack in a span
//! (`op` → layer call), and installs [`Tracer`] as the RPU's
//! [`TraceSink`] so every kernel dispatch becomes a leaf span too. A
//! dispatch span ends when the sink records it and starts `wall_ns`
//! earlier. Spans stay in memory until the run ends; then per-layer
//! self times are computed from them and a Chrome trace-event file is
//! written.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use rpu::arith::EngineKind;
use rpu::codegen::KernelOp;
use rpu::{DispatchEvent, TraceSink};

/// Kernel families reported per layer, in report order.
pub const FAMILIES: [&str; 5] = ["ntt", "keyswitch", "rescale", "pointwise", "automorphism"];

/// The family a kernel belongs to for per-family accounting.
pub fn family(op: KernelOp) -> &'static str {
    match op {
        KernelOp::Ntt => "ntt",
        KernelOp::KeySwitch => "keyswitch",
        KernelOp::Rescale => "rescale",
        KernelOp::PointwiseMul | KernelOp::PointwiseAdd | KernelOp::PointwiseSub => "pointwise",
        KernelOp::Automorphism => "automorphism",
        KernelOp::NegacyclicMul => "convolution",
    }
}

fn engine_name(engine: EngineKind) -> &'static str {
    match engine {
        EngineKind::Montgomery128 => "mont128",
        EngineKind::Barrett64 => "barrett64",
        EngineKind::NativeU64 => "u64",
    }
}

/// Category of a dispatch span; every other category names the layer
/// whose public entry point the span wraps.
pub const DISPATCH: &str = "dispatch";
/// Category of a whole benchmark op.
pub const OP: &str = "op";

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer category (`op`, `evaluator`, `serve`, `codegen`, `sim`,
    /// `session`, `dispatch`).
    pub cat: &'static str,
    /// Step name; the kernel family for dispatch spans.
    pub name: &'static str,
    /// Id of the op the span belongs to; 0 when it cannot be attributed
    /// (serve dispatches run on lane threads and carry only a tenant).
    pub op: u64,
    /// Small per-thread id, in order of first use.
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Simulated cycles (dispatch spans only).
    pub cycles: u64,
    pub lane: usize,
    pub engine: &'static str,
    pub tenant: Option<u32>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    static CURRENT_OP: Cell<u64> = const { Cell::new(0) };
}

fn tid() -> u32 {
    TID.with(|t| *t)
}

/// Span store and dispatch sink. Recording is off until [`Tracer::start`]
/// so set-up work stays out of the measured spans.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    on: AtomicBool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            on: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn start(&self) {
        self.on.store(true, Ordering::SeqCst);
    }

    pub fn stop(&self) {
        self.on.store(false, Ordering::SeqCst);
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span store").push(span);
    }

    /// Marks the calling thread as working on op `id` (dispatches made
    /// by this thread are attributed to it).
    pub fn set_op(id: u64) {
        CURRENT_OP.with(|c| c.set(id));
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&self, cat: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on.load(Ordering::Relaxed) {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.record_interval(cat, name, (start_ns, end_ns), None, None);
        out
    }

    /// Records an interval measured by the caller, as offsets from the
    /// tracer's origin, on the calling thread's track or on `track`
    /// (for intervals that overlap others of the same thread).
    pub fn record_interval(
        &self,
        cat: &'static str,
        name: &'static str,
        (start_ns, end_ns): (u64, u64),
        tenant: Option<u32>,
        track: Option<u32>,
    ) {
        if !self.on.load(Ordering::Relaxed) {
            return;
        }
        self.push(Span {
            cat,
            name,
            op: CURRENT_OP.with(|c| c.get()),
            tid: track.unwrap_or_else(tid),
            start_ns,
            end_ns,
            cycles: 0,
            lane: 0,
            engine: "",
            tenant,
        });
    }

    /// Nanoseconds since the tracer's origin for an instant.
    pub fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store").clone()
    }
}

impl TraceSink for Tracer {
    fn record(&self, event: DispatchEvent) {
        if !self.on.load(Ordering::Relaxed) {
            return;
        }
        let end_ns = self.now_ns();
        self.push(Span {
            cat: DISPATCH,
            name: family(event.key.op),
            op: CURRENT_OP.with(|c| c.get()),
            tid: tid(),
            start_ns: end_ns.saturating_sub(event.wall_ns),
            end_ns,
            cycles: event.cycles,
            lane: event.lane,
            engine: engine_name(event.engine),
            tenant: event.tenant,
        });
    }
}

/// Self time of every span: its duration minus the part covered by the
/// spans nested in it on the same thread. Index-aligned with `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| (spans[i].tid, spans[i].start_ns, u64::MAX - spans[i].end_ns));
    let mut stack: Vec<usize> = Vec::new();
    let mut last_tid = None;
    for i in order {
        let s = &spans[i];
        if last_tid != Some(s.tid) {
            stack.clear();
            last_tid = Some(s.tid);
        }
        while let Some(&top) = stack.last() {
            if spans[top].end_ns >= s.end_ns && spans[top].start_ns <= s.start_ns {
                break;
            }
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            own[parent] = own[parent].saturating_sub(s.dur_ns());
        }
        stack.push(i);
    }
    own
}

/// Per `(cat, name)`: span count, total time and self time in ns.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub cycles: u64,
}

pub fn totals(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), Totals> {
    let own = self_times(spans);
    let mut out: BTreeMap<(&'static str, &'static str), Totals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(own) {
        let t = out.entry((s.cat, s.name)).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += own;
        t.cycles += s.cycles;
    }
    out
}

/// Renders the spans as Chrome trace-event JSON (the format
/// `chrome://tracing` and Perfetto open). Only the first `limit` spans
/// in time order are written, so a long run stays a small file.
pub fn chrome_json(spans: &[Span], limit: usize, fingerprint: &str) -> String {
    let mut order: Vec<&Span> = spans.iter().collect();
    order.sort_by_key(|s| (s.start_ns, u64::MAX - s.end_ns));
    order.truncate(limit);
    let mut out = String::with_capacity(order.len() * 160 + 256);
    out.push_str("{\"traceEvents\":[");
    for (i, s) in order.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{}",
            s.name,
            s.cat,
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.op
        );
        if s.cat == DISPATCH {
            let _ = write!(
                out,
                ",\"cycles\":{},\"lane\":{},\"engine\":\"{}\"",
                s.cycles, s.lane, s.engine
            );
        }
        if let Some(t) = s.tenant {
            let _ = write!(out, ",\"tenant\":{t}");
        }
        out.push_str("}}");
    }
    let _ = write!(
        out,
        "],\"displayTimeUnit\":\"ms\",\"otherData\":{fingerprint}}}"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(tid: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            cat: "x",
            name: "x",
            op: 1,
            tid,
            start_ns,
            end_ns,
            cycles: 0,
            lane: 0,
            engine: "",
            tenant: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(1, 0, 100),
            span(1, 10, 60),
            span(1, 20, 30),
            span(1, 70, 90),
            span(2, 10, 60),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20, 50]);
    }
}
