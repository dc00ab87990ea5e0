//! The benchmark's span recorder. Spans are taken in the benchmark's own
//! code, around its calls into the program's public entry points; each has
//! a name, a start, an end, a parent, and the id of the kernel or request
//! it belongs to. Each thread records into its own [`Tracer`]; the spans
//! stay in memory until the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Kernel sequence number or server request id.
    pub id: u64,
    /// Index of the parent span in the same thread's list.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span list. A disabled tracer records nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Re-ids the most recent span (a request's id is known only once its
    /// reply arrives).
    pub fn set_last_id(&mut self, id: u64) {
        if let Some(s) = self.spans.last_mut() {
            s.id = id;
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name totals over every thread's spans.
#[derive(Debug, Default)]
pub struct Summary {
    /// Name → summed self time in seconds: each span's duration minus the
    /// part its children cover. Children of one span run one after another
    /// on the span's thread, so they never overlap.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Summed duration of the root spans (each thread's whole window).
    pub roots_s: f64,
    pub spans: usize,
}

impl Summary {
    pub fn of(threads: &[Vec<Span>]) -> Summary {
        let mut sum = Summary::default();
        for spans in threads {
            let mut child_ns = vec![0u64; spans.len()];
            for s in spans {
                if let Some(p) = s.parent {
                    child_ns[p] += s.end_ns - s.start_ns;
                }
            }
            for (s, c) in spans.iter().zip(&child_ns) {
                let dur = s.end_ns - s.start_ns;
                *sum.self_s.entry(s.name).or_insert(0.0) += dur.saturating_sub(*c) as f64 / 1e9;
                if s.parent.is_none() {
                    sum.roots_s += dur as f64 / 1e9;
                }
            }
            sum.spans += spans.len();
        }
        sum
    }

    pub fn self_of(&self, name: &str) -> f64 {
        self.self_s.get(name).copied().unwrap_or(0.0)
    }
}

/// Writes every span as one JSON line (`tid`, `idx`, `parent`, `id`,
/// `name`, `start_ns`, `end_ns`).
pub fn write_jsonl(path: &std::path::Path, threads: &[Vec<Span>]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (tid, spans) in threads.iter().enumerate() {
        for (idx, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"tid\":{tid},\"idx\":{idx},\"parent\":{parent},\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_adds_up_to_the_roots() {
        let mk = |name, parent, start_ns, end_ns| Span {
            name,
            id: 0,
            parent,
            start_ns,
            end_ns,
        };
        let spans = vec![
            mk("root", None, 0, 100),
            mk("a", Some(0), 10, 40),
            mk("b", Some(1), 15, 25),
            mk("c", Some(0), 50, 90),
        ];
        let s = Summary::of(&[spans]);
        assert_eq!(s.self_of("root"), 30e-9);
        assert_eq!(s.self_of("a"), 20e-9);
        assert_eq!(s.self_of("b"), 10e-9);
        assert_eq!(s.self_of("c"), 40e-9);
        let total: f64 = s.self_s.values().sum();
        assert!((total - s.roots_s).abs() < 1e-15);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let v = t.span("x", 1, |t| t.span("y", 1, |_| 5));
        assert_eq!(v, 5);
        assert!(t.into_spans().is_empty());
    }
}
