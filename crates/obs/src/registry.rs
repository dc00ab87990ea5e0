//! The global **metric registry**: named [`Histogram`]s that are *always
//! on* (unlike the event recorder, which only collects when tracing is
//! enabled).
//!
//! Call sites register once ([`hist`]) and keep the returned `&'static`
//! handle; recording through a handle is a plain atomic operation — no
//! lock, no allocation, no registry lookup. Registration itself takes the
//! registry lock and leaks one small allocation per distinct name, which
//! is the price of handing out `'static` handles.
//!
//! The registry holds no counters or gauges: those are counted by the
//! per-instance stats struct that owns the fact (a server, a store), so
//! two instances in one process never mix their counts. [`snapshot`]
//! freezes every registered histogram into a [`MetricsSnapshot`]; the
//! owners append their own series ([`MetricsSnapshot::push_counter`],
//! [`MetricsSnapshot::push_gauge`]) before rendering the whole thing as
//! a Prometheus-style text exposition with
//! [`MetricsSnapshot::to_prometheus`].

use crate::hist::{HistSnapshot, Histogram};
use std::fmt::Write as _;
use std::sync::Mutex;

static REGISTRY: Mutex<Vec<(&'static str, &'static Histogram)>> = Mutex::new(Vec::new());

/// The registered histogram named `name`, registering an empty one on
/// first use. The registry is process-global and entries live forever:
/// fetch the handle once (startup / struct field), record through it on
/// the hot path.
pub fn hist(name: &'static str) -> &'static Histogram {
    let mut hists = REGISTRY.lock().expect("metric registry poisoned");
    if let Some((_, h)) = hists.iter().find(|(n, _)| *n == name) {
        return h;
    }
    let h: &'static Histogram = Box::leak(Box::new(Histogram::new()));
    hists.push((name, h));
    h
}

/// Freezes every registered histogram, in registration order.
pub fn snapshot() -> MetricsSnapshot {
    let hists = REGISTRY
        .lock()
        .expect("metric registry poisoned")
        .iter()
        .map(|(n, h)| (n.to_string(), h.snapshot()))
        .collect();
    MetricsSnapshot {
        hists,
        ..MetricsSnapshot::default()
    }
}

/// A frozen set of named metrics, extendable with caller-owned series
/// before rendering.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Monotone counters.
    pub counters: Vec<(String, u64)>,
    /// Absolute values.
    pub gauges: Vec<(String, f64)>,
    /// Latency/size distributions.
    pub hists: Vec<(String, HistSnapshot)>,
}

impl MetricsSnapshot {
    /// Appends a counter series (e.g. a server or store lifetime counter).
    pub fn push_counter(&mut self, name: impl Into<String>, value: u64) {
        self.counters.push((name.into(), value));
    }

    /// Appends a gauge series.
    pub fn push_gauge(&mut self, name: impl Into<String>, value: f64) {
        self.gauges.push((name.into(), value));
    }

    /// Appends a histogram series.
    pub fn push_hist(&mut self, name: impl Into<String>, snap: HistSnapshot) {
        self.hists.push((name.into(), snap));
    }

    /// Renders the snapshot as a Prometheus-style text exposition.
    ///
    /// Every metric name is prefixed `cayman_` and sanitized (characters
    /// outside `[a-zA-Z0-9_:]` become `_`). Counters render as one sample
    /// with a `# TYPE … counter` header, gauges as `# TYPE … gauge`, and
    /// each histogram as `# TYPE … histogram` with cumulative
    /// `…_bucket{le="…"}` samples over its non-empty buckets (the `le`
    /// bound is the bucket's inclusive upper value), a final
    /// `le="+Inf"` bucket, and `…_sum` / `…_count` samples. Values are
    /// raw recorded units (the server records nanoseconds and says so in
    /// the metric name).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let name = metric_name(name);
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, value) in &self.gauges {
            let name = metric_name(name);
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {}", fmt_value(*value));
        }
        for (name, snap) in &self.hists {
            let name = metric_name(name);
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for b in snap.buckets() {
                cumulative += b.count;
                let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {cumulative}", b.hi);
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", snap.count());
            let _ = writeln!(out, "{name}_sum {}", snap.sum());
            let _ = writeln!(out, "{name}_count {}", snap.count());
        }
        out
    }
}

/// `cayman_`-prefixed, exposition-safe metric name.
fn metric_name(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 7);
    out.push_str("cayman_");
    for c in raw.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v.is_nan() {
        "NaN".to_string()
    } else if v > 0.0 {
        "+Inf".to_string()
    } else {
        "-Inf".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_stable_and_shared() {
        let a = hist("test.registry.hist");
        let b = hist("test.registry.hist");
        assert!(std::ptr::eq(a, b), "same name returns the same histogram");
        a.record(7);
        assert_eq!(b.count(), 1);

        let snap = snapshot();
        let hist_snap = &snap
            .hists
            .iter()
            .find(|(n, _)| n == "test.registry.hist")
            .expect("registered")
            .1;
        assert!(hist_snap.count() >= 1);
        assert!(snap.counters.is_empty() && snap.gauges.is_empty());
    }

    #[test]
    fn prometheus_rendering_shape() {
        let mut snap = MetricsSnapshot::default();
        snap.push_counter("server.requests", 12);
        snap.push_gauge("server.uptime.seconds", 1.5);
        let h = Histogram::new();
        for v in [1u64, 1, 2, 1000] {
            h.record(v);
        }
        snap.push_hist("req.total.nanos", h.snapshot());
        let text = snap.to_prometheus();
        assert!(text.contains("# TYPE cayman_server_requests counter"));
        assert!(text.contains("cayman_server_requests 12"));
        assert!(text.contains("cayman_server_uptime_seconds 1.5"));
        assert!(text.contains("# TYPE cayman_req_total_nanos histogram"));
        assert!(text.contains("cayman_req_total_nanos_bucket{le=\"1\"} 2"));
        assert!(text.contains("cayman_req_total_nanos_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("cayman_req_total_nanos_sum 1004"));
        assert!(text.contains("cayman_req_total_nanos_count 4"));
        // cumulative buckets are monotone
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket{")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "bucket counts must be cumulative: {line}");
            last = v;
        }
    }
}
