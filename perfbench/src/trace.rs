//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer (the library crates carry no instrumentation). Each span has a
//! name, start and end (ns since the tracer was created), the index of the
//! enclosing span and the id of the op it belongs to. Spans stay in
//! memory and are written out once, when the run ends. With tracing off
//! every call is a branch on a bool.

use std::fmt::Write as _;
use std::time::Instant;

/// Op id of spans that belong to no workload op (set-up, layer probes).
pub const NO_OP: u64 = u64::MAX;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; pass it back to [`Tracer::exit`].
#[must_use]
pub struct SpanId(Option<usize>);

/// Per-name aggregate: how often a span ran, its total time and its self
/// time (total minus the time covered by its child spans).
pub struct SelfTime {
    pub name: &'static str,
    pub count: usize,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switch recording on or off (an untraced op inside a traced run).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "cannot toggle inside a span");
        self.on = on;
    }

    pub fn enter(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    pub fn exit(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close in LIFO order");
        self.spans[idx].end_ns = self.t0.elapsed().as_nanos() as u64;
    }

    /// Run `f` inside a span (for leaf calls that do not trace inside).
    pub fn leaf<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, op);
        let r = f();
        self.exit(id);
        r
    }

    /// Self time per span name, in first-seen order.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<SelfTime> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let total = s.end_ns - s.start_ns;
            let own = total.saturating_sub(child_ns[i]);
            match out.iter_mut().find(|a| a.name == s.name) {
                Some(a) => {
                    a.count += 1;
                    a.total_ns += total;
                    a.self_ns += own;
                }
                None => out.push(SelfTime {
                    name: s.name,
                    count: 1,
                    total_ns: total,
                    self_ns: own,
                }),
            }
        }
        out
    }

    /// Write every span as one JSON line after the `header` lines.
    pub fn write(&self, path: &std::path::Path, header: &[String]) -> std::io::Result<()> {
        let mut out = String::new();
        for h in header {
            out.push_str(h);
            out.push('\n');
        }
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let op = if s.op == NO_OP {
                "null".to_string()
            } else {
                s.op.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{op}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        for a in self.self_times() {
            let _ = writeln!(
                out,
                "{{\"self_time\":\"{}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                a.name, a.count, a.total_ns, a.self_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer", 1);
        t.leaf("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(outer);
        let st = t.self_times();
        let outer = st.iter().find(|a| a.name == "outer").unwrap();
        let inner = st.iter().find(|a| a.name == "inner").unwrap();
        assert!(inner.self_ns >= 2_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("x", 0);
        t.exit(id);
        assert!(t.self_times().is_empty());
    }
}
