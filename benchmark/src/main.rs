//! The repository benchmark. One command runs one workload from a seed,
//! checks every output, and prints each metric by name with its unit; the
//! last line of standard output is one JSON object:
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload suite-cold --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones. See `benchmark/README.md` for the workloads and the metrics.

mod check;
mod gen;
mod serve;
mod suite;
mod trace;

use cayman::{ModelOptions, SchedKind, SelectOptions};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Selection worker threads per `Framework::select` call.
pub const SELECT_THREADS: usize = 1;

/// Every selection setting, pinned here rather than taken from
/// `SelectOptions::default()`, which reads `CAYMAN_SELECT_SCHED`.
pub fn select_options() -> SelectOptions {
    SelectOptions {
        model: ModelOptions::default(),
        alpha: 1.1,
        prune_share: 0.001,
        threads: SELECT_THREADS,
        sched: SchedKind::WorkSteal,
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Kernel workers on `suite-cold` and clients on `serve-*`: the host's
/// parallelism, capped at 2 so the measured program is the same on any
/// host with at least two cores.
pub fn workers() -> usize {
    nproc().min(2)
}

/// Set-up is repeated for at least this long (at least [`MIN_SETUPS`] and
/// at most [`MAX_SETUPS`] times) and reported as the median: on a shared
/// host one short set-up measures the load of one moment.
const SETUP_WINDOW: Duration = Duration::from_secs(2);
const MIN_SETUPS: usize = 5;
pub const MAX_SETUPS: usize = 1000;

/// Whether another set-up repetition is due, after `done` of them since
/// `start`.
pub fn more_setups(done: usize, start: Instant) -> bool {
    done < MIN_SETUPS || (done < MAX_SETUPS && start.elapsed() < SETUP_WINDOW)
}

/// Where runs keep sockets, temporary stores and traces: `bench-out/`
/// under the working directory.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("bench-out");
    std::fs::create_dir_all(&dir).expect("bench-out is creatable");
    dir
}

/// Failures of one run: counted, and the first few named.
#[derive(Debug, Default)]
pub struct Failures {
    pub count: u64,
    pub shown: Vec<String>,
}

impl Failures {
    pub fn add(&mut self, what: String) {
        self.count += 1;
        if self.shown.len() < 20 {
            self.shown.push(what);
        }
    }

    pub fn merge(&mut self, other: Failures) {
        self.count += other.count;
        for s in other.shown {
            if self.shown.len() < 20 {
                self.shown.push(s);
            }
        }
    }
}

/// What a workload run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failures: Failures,
    /// `(name, value, unit)`, in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// A human-readable line about the run (settings, sample counts).
    pub note: String,
}

/// The end-to-end metrics every untraced run prints.
pub struct EndToEnd {
    pub throughput_per_s: f64,
    pub latencies_ns: Vec<u64>,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub design_speedup_geomean: f64,
}

impl EndToEnd {
    pub fn metrics(&self, attempted: u64, failed: u64) -> Vec<(&'static str, f64, &'static str)> {
        let (p50, p99) = p50_p99_ms(&self.latencies_ns);
        vec![
            ("throughput_per_s", self.throughput_per_s, "items/s"),
            ("latency_p50_ms", p50, "ms"),
            ("latency_p99_ms", p99, "ms"),
            (
                "success_ratio",
                1.0 - failed as f64 / attempted.max(1) as f64,
                "ratio",
            ),
            ("setup_s", self.setup_s, "s"),
            ("peak_rss_mb", self.peak_rss_mb, "MiB"),
            ("design_speedup_geomean", self.design_speedup_geomean, "x"),
        ]
    }
}

/// The per-layer numbers of one traced window. Times are totals over the
/// window in seconds; a layer a workload does not reach reads 0.
#[derive(Debug, Default)]
pub struct Layers {
    pub parse_s: f64,
    pub analyse_s: f64,
    pub normalize_changes: f64,
    pub normalize_s: f64,
    pub interp_blocks: f64,
    pub select_s: f64,
    pub select_model_s: f64,
    pub select_configs: f64,
    pub select_combine_s: f64,
    pub select_visited: f64,
    pub select_hits: f64,
    pub select_misses: f64,
    pub baselines_s: f64,
    pub merge_s: f64,
    pub rtl_s: f64,
    pub rtl_bytes: f64,
    pub client_rtt_s: f64,
    pub client_requests: f64,
    pub ping_rtt_s: f64,
    pub pings: f64,
    pub server_decode_s: f64,
    pub server_warm_s: f64,
    pub server_select_s: f64,
    pub server_encode_s: f64,
    pub server_total_s: f64,
    pub fw_hits: f64,
    pub fw_misses: f64,
    pub disk_hits: f64,
    pub disk_misses: f64,
    pub disk_writes: f64,
    pub disk_evictions: f64,
    pub disk_corrupt: f64,
    pub wall_s: f64,
    pub thread_wall_s: f64,
    pub remainder_s: f64,
    pub spans: f64,
    pub samples: f64,
    pub throughput_untraced: f64,
    pub throughput_traced: f64,
    pub latency_p50_traced_ms: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Layers {
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("ir.parse.self_s", self.parse_s, "s"),
            ("core.analyse.self_s", self.analyse_s, "s"),
            ("ir.normalize.changes", self.normalize_changes, "count"),
            ("ir.normalize.self_s", self.normalize_s, "s"),
            ("ir.interp.blocks", self.interp_blocks, "count"),
            ("select.self_s", self.select_s, "s"),
            ("select.model_s", self.select_model_s, "s"),
            ("select.configs_evaluated", self.select_configs, "count"),
            ("select.combine_s", self.select_combine_s, "s"),
            ("select.visited", self.select_visited, "count"),
            (
                "select.cache_hit_ratio",
                ratio(self.select_hits, self.select_hits + self.select_misses),
                "ratio",
            ),
            ("baselines.self_s", self.baselines_s, "s"),
            ("merge.self_s", self.merge_s, "s"),
            ("hls.rtl.self_s", self.rtl_s, "s"),
            ("hls.rtl.bytes", self.rtl_bytes, "bytes"),
            ("store.client.rtt_s", self.client_rtt_s, "s"),
            ("store.client.requests", self.client_requests, "count"),
            ("store.wire.ping_rtt_s", self.ping_rtt_s, "s"),
            ("store.wire.pings", self.pings, "count"),
            ("store.server.decode_s", self.server_decode_s, "s"),
            ("store.server.warm_s", self.server_warm_s, "s"),
            ("store.server.select_s", self.server_select_s, "s"),
            ("store.server.encode_s", self.server_encode_s, "s"),
            ("store.server.total_s", self.server_total_s, "s"),
            (
                "store.server.unaccounted_s",
                self.client_rtt_s - self.server_total_s,
                "s",
            ),
            (
                "store.server.fw_hit_ratio",
                ratio(self.fw_hits, self.fw_hits + self.fw_misses),
                "ratio",
            ),
            (
                "store.disk.hit_ratio",
                ratio(self.disk_hits, self.disk_hits + self.disk_misses),
                "ratio",
            ),
            ("store.disk.writes", self.disk_writes, "count"),
            ("store.disk.evictions", self.disk_evictions, "count"),
            ("store.disk.corrupt", self.disk_corrupt, "count"),
            ("trace.wall_s", self.wall_s, "s"),
            ("trace.thread_wall_s", self.thread_wall_s, "s"),
            ("trace.remainder_s", self.remainder_s, "s"),
            ("trace.spans", self.spans, "count"),
            ("trace.samples", self.samples, "count"),
            (
                "trace.overhead_pct",
                100.0 * (ratio(self.throughput_untraced, self.throughput_traced) - 1.0),
                "%",
            ),
            ("trace.latency_p50_ms", self.latency_p50_traced_ms, "ms"),
            ("host.nproc", nproc() as f64, "count"),
            ("select.threads", SELECT_THREADS as f64, "count"),
        ]
    }
}

/// Writes a traced window's spans to `bench-out/<workload>.trace.jsonl`.
pub fn write_trace(workload: &str, seed: u64, spans: &[Vec<trace::Span>]) {
    let path = out_dir().join(format!("{workload}.trace.jsonl"));
    match trace::write_jsonl(&path, spans) {
        Ok(()) => eprintln!("trace of seed {seed} written to {}", path.display()),
        Err(e) => eprintln!("warning: trace not written to {}: {e}", path.display()),
    }
}

/// Prints each named layer's self time and its share of the threads' wall
/// time to stderr, with the remainder.
pub fn print_breakdown(sum: &trace::Summary, layers: &[&str], thread_wall_s: f64) {
    let mut covered = 0.0;
    for name in layers {
        let s = sum.self_of(name);
        covered += s;
        eprintln!(
            "{name:>16} {s:10.4} s {:6.2} %",
            100.0 * ratio(s, thread_wall_s)
        );
    }
    let rest = thread_wall_s - covered;
    eprintln!(
        "{:>16} {rest:10.4} s {:6.2} %",
        "remainder",
        100.0 * ratio(rest, thread_wall_s)
    );
    eprintln!("{:>16} {thread_wall_s:10.4} s", "thread wall");
}

/// Nearest-rank median and 99th percentile, in milliseconds.
pub fn p50_p99_ms(samples_ns: &[u64]) -> (f64, f64) {
    let mut v = samples_ns.to_vec();
    v.sort_unstable();
    let q = |p: f64| {
        if v.is_empty() {
            return 0.0;
        }
        let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1] as f64 / 1e6
    };
    (q(0.50), q(0.99))
}

pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// The process high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        write_digests: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-digests" {
            args.write_digests = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(args)
}

fn run_workload(name: &str, seed: u64, seconds: f64, traced: bool) -> Option<Outcome> {
    Some(match name {
        "suite-cold" => suite::run(seed, seconds, traced),
        "serve-warm" => serve::run(serve::Mode::Warm, seed, seconds, traced),
        "serve-edits" => serve::run(serve::Mode::Edits, seed, seconds, traced),
        _ => return None,
    })
}

fn main() {
    // The program reads CAYMAN_* variables in several defaults (scheduler,
    // store size cap, tracing sinks, server timeouts); none may change the
    // program being measured.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("CAYMAN_") {
            std::env::remove_var(key);
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload suite-cold|serve-warm|serve-edits --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    if args.write_digests {
        suite::write_digests();
        return;
    }
    let Some(outcome) = run_workload(&args.workload, args.seed, args.seconds, args.trace) else {
        eprintln!("error: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    for f in &outcome.failures.shown {
        eprintln!("FAILED: {f}");
    }
    println!(
        "{} seed={} trace={} nproc={} workers={} select_threads={} sched={} {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        nproc(),
        workers(),
        SELECT_THREADS,
        select_options().sched.label(),
        outcome.note
    );
    let mut failed = outcome.failures.count;
    let mut metrics = String::new();
    for (name, value, unit) in &outcome.metrics {
        let value = if value.is_finite() {
            *value
        } else {
            eprintln!("FAILED: metric {name} is not finite");
            failed += 1;
            0.0
        };
        if !metrics.is_empty() {
            metrics.push_str(", ");
        }
        metrics.push_str(&format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        outcome.attempted.max(1),
        failed,
        metrics
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names of one `BENCHMARK.json` list (`end_to_end` or
    /// `per_layer`), in file order.
    fn declared(list: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json.find(&format!("\"{list}\"")).expect("list declared");
        let body = &json[start..json[start..].find(']').expect("list closes") + start];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |key: &str| {
                    let at = entry.find(&format!("\"{key}\": \"")).expect("field") + key.len() + 5;
                    entry[at..at + entry[at..].find('"').expect("string closes")].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn printed(o: &Outcome) -> Vec<(String, String)> {
        o.metrics
            .iter()
            .map(|(n, _, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn smoke_runs_print_every_declared_metric_and_pass_the_check() {
        for name in ["suite-cold", "serve-warm", "serve-edits"] {
            for (traced, list) in [(false, "end_to_end"), (true, "per_layer")] {
                let o = run_workload(name, 1, 0.2, traced).expect("known workload");
                assert_eq!(o.failures.count, 0, "{name}: {:?}", o.failures.shown);
                assert!(o.attempted > 0, "{name}");
                assert_eq!(printed(&o), declared(list), "{name} trace={traced}");
            }
        }
    }
}
