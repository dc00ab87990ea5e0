//! `suite-cold`: the paper's Table II protocol, cold. Each kernel, in a
//! seeded order per pass, goes through parse → analyse → Cayman, NOVIA and
//! QsCores selection → budget reports at 25 % and 65 % (merging) → RTL of
//! the 25 % solution, on a fresh `Framework` with no design store.

use crate::check::{self, KernelOutputs};
use crate::gen::{self, Kernel};
use crate::trace::{Span, Summary, Tracer};
use crate::{EndToEnd, Failures, Outcome};
use cayman::ir::Module;
use cayman::workloads::Workload;
use cayman::{AnalyseOptions, Framework, OptLevel, CVA6_TILE_AREA};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The Table II budget, as a fraction of the CVA6 tile.
const BUDGET: f64 = 0.25;
/// The budget whose report exercises merging on larger solutions.
const MERGE_BUDGET: f64 = 0.65;

const DIGESTS: &str = include_str!("../expected/suite-cold.digests");

fn analyse_options() -> AnalyseOptions {
    AnalyseOptions {
        opt_level: OptLevel::O1,
        verify_each_pass: false,
    }
}

/// The parsed module wrapped with the kernel's input fills.
fn workload_of(k: &Kernel, module: Module) -> Workload {
    Workload {
        suite: k.workload.suite,
        name: k.workload.name,
        module,
        fills: k.workload.fills.clone(),
    }
}

/// The counts one kernel's layers return.
#[derive(Debug, Default, Clone)]
struct Counts {
    normalize_changes: f64,
    normalize_s: f64,
    interp_blocks: f64,
    model_s: f64,
    combine_s: f64,
    configs: f64,
    visited: f64,
    hits: f64,
    misses: f64,
    rtl_bytes: f64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.normalize_changes += o.normalize_changes;
        self.normalize_s += o.normalize_s;
        self.interp_blocks += o.interp_blocks;
        self.model_s += o.model_s;
        self.combine_s += o.combine_s;
        self.configs += o.configs;
        self.visited += o.visited;
        self.hits += o.hits;
        self.misses += o.misses;
        self.rtl_bytes += o.rtl_bytes;
    }
}

/// One kernel, text in to RTL out.
fn compile(k: &Kernel, t: &mut Tracer, id: u64) -> Result<(u64, u64, f64, Counts), String> {
    let start = Instant::now();
    let opts = crate::select_options();
    let module = t
        .span("ir.parse", id, |_| Module::parse_text(&k.text))
        .map_err(|e| format!("parse: {e}"))?;
    let w = workload_of(k, module);
    let fw = t
        .span("core.analyse", id, |_| {
            Framework::from_workload_with(&w, &analyse_options())
        })
        .map_err(|e| format!("analyse: {e}"))?;
    let cayman = t.span("select", id, |_| fw.select(&opts));
    let (novia, qscores) = t.span("baselines", id, |_| {
        (fw.select_novia(&opts), fw.select_qscores(&opts))
    });
    let reports = t.span("merge", id, |_| {
        [fw.report(&cayman, BUDGET), fw.report(&cayman, MERGE_BUDGET)]
    });
    let rtl = t.span("hls.rtl", id, |_| {
        fw.emit_rtl(cayman.best_under(BUDGET * CVA6_TILE_AREA))
    });
    let latency_ns = start.elapsed().as_nanos() as u64;
    let digest = t.span("bench.check", id, |_| {
        check::kernel_digest(&KernelOutputs {
            cayman: &cayman.pareto,
            novia: &novia.pareto,
            qscores: &qscores.pareto,
            reports: [&reports[0], &reports[1]],
            rtl: &rtl,
        })
    });
    let s = &cayman.stats;
    let counts = Counts {
        normalize_changes: f64::from(fw.app.normalize_stats.total_changes()),
        normalize_s: fw.app.normalize_stats.wall_micros as f64 / 1e6,
        interp_blocks: fw.app.exec.blocks_executed() as f64,
        model_s: s.model_nanos as f64 / 1e9,
        combine_s: s.combine_nanos as f64 / 1e9,
        configs: s.configs_evaluated as f64,
        visited: s.visited as f64,
        hits: s.cache_hits as f64,
        misses: s.cache_misses as f64,
        rtl_bytes: rtl.iter().map(|(_, v)| v.len()).sum::<usize>() as f64,
    };
    Ok((latency_ns, digest, reports[0].speedup, counts))
}

/// What one timed window measured.
#[derive(Default)]
struct Window {
    /// Per completed kernel, text in to RTL out.
    latencies_ns: Vec<u64>,
    /// Per kernel index: its modeled speedup at [`BUDGET`], once done.
    speedups: Vec<Option<f64>>,
    counts: Counts,
    failures: Failures,
    wall: Duration,
    spans: Vec<Vec<Span>>,
}

impl Window {
    fn absorb(&mut self, o: Window) {
        self.latencies_ns.extend(o.latencies_ns);
        if self.speedups.len() < o.speedups.len() {
            self.speedups.resize(o.speedups.len(), None);
        }
        for (a, b) in self.speedups.iter_mut().zip(o.speedups) {
            *a = a.or(b);
        }
        self.counts.add(&o.counts);
        self.failures.merge(o.failures);
        self.spans.extend(o.spans);
    }

    fn throughput(&self) -> f64 {
        self.latencies_ns.len() as f64 / self.wall.as_secs_f64()
    }
}

/// Compiles kernels on [`crate::workers`] threads until `seconds` have
/// passed and at least one full pass is done, checking each kernel's
/// outputs against the checked-in digests.
fn window(kernels: &[Kernel], seed: u64, seconds: f64, traced: bool) -> Window {
    let expected = check::parse_digests(DIGESTS);
    let n = kernels.len() as u64;
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let total = Mutex::new(Window::default());
    std::thread::scope(|s| {
        for _ in 0..crate::workers() {
            s.spawn(|| {
                let mut t = Tracer::new(traced, start);
                let mut w = Window {
                    speedups: vec![None; kernels.len()],
                    ..Default::default()
                };
                t.span("bench.worker", 0, |t| loop {
                    let p = next.fetch_add(1, Ordering::Relaxed);
                    if p >= n && Instant::now() >= deadline {
                        break;
                    }
                    let kernel = gen::suite_order(seed, p / n, n as usize)[(p % n) as usize];
                    let name = kernels[kernel].workload.name;
                    let r = t.span("bench.kernel", p, |t| {
                        catch_unwind(AssertUnwindSafe(|| compile(&kernels[kernel], t, p)))
                    });
                    let (latency_ns, digest, speedup, counts) = match r {
                        Ok(Ok(out)) => out,
                        Ok(Err(e)) => {
                            w.failures.add(format!("kernel {name}: {e}"));
                            continue;
                        }
                        Err(_) => {
                            w.failures.add(format!("kernel {name}: panicked"));
                            continue;
                        }
                    };
                    match expected.get(name) {
                        Some(&d) if d == digest => {}
                        Some(&d) => w.failures.add(format!(
                            "kernel {name}: output digest {digest:016x}, expected {d:016x}"
                        )),
                        None => w.failures.add(format!("kernel {name}: no expected digest")),
                    }
                    w.latencies_ns.push(latency_ns);
                    w.speedups[kernel] = Some(speedup);
                    w.counts.add(&counts);
                });
                w.spans.push(t.into_spans());
                total
                    .lock()
                    .expect("a worker panicked outside a kernel")
                    .absorb(w);
            });
        }
    });
    let mut w = total.into_inner().expect("workers finished");
    w.wall = start.elapsed();
    w
}

/// Outside the timed window: every kernel's profile against the
/// independent tree-walking interpreter.
fn check_interpreters(kernels: &[Kernel], failures: &mut Failures) {
    let next = AtomicU64::new(0);
    let found = Mutex::new(Failures::default());
    std::thread::scope(|s| {
        for _ in 0..crate::workers() {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                let Some(k) = kernels.get(i) else { break };
                let r = catch_unwind(AssertUnwindSafe(|| {
                    let module = Module::parse_text(&k.text).map_err(|e| e.to_string())?;
                    let w = workload_of(k, module);
                    let fw = Framework::from_workload_with(&w, &analyse_options())
                        .map_err(|e| e.to_string())?;
                    check::check_interp(&fw, &w.memory())
                }));
                let err = match r {
                    Ok(Ok(())) => continue,
                    Ok(Err(e)) => e,
                    Err(_) => "panicked".to_string(),
                };
                found
                    .lock()
                    .expect("checker panicked outside a kernel")
                    .add(format!(
                        "kernel {} interpreter check: {err}",
                        k.workload.name
                    ));
            });
        }
    });
    failures.merge(found.into_inner().expect("checkers finished"));
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut setups = Vec::new();
    let mut kernels = Vec::new();
    let setup_start = Instant::now();
    while crate::more_setups(setups.len(), setup_start) {
        let t = Instant::now();
        kernels = gen::load_kernels();
        setups.push(t.elapsed().as_secs_f64());
    }
    let setup_s = crate::median(&mut setups);

    let mut failures = Failures::default();
    let mut untraced = window(&kernels, seed, seconds, false);
    let peak_rss_mb = crate::peak_rss_mb();
    let mut traced_window = traced.then(|| window(&kernels, seed, seconds, true));
    let mut attempted = 0;
    for w in std::iter::once(&mut untraced).chain(traced_window.as_mut()) {
        attempted += w.latencies_ns.len() as u64 + w.failures.count;
        failures.merge(std::mem::take(&mut w.failures));
    }
    check_interpreters(&kernels, &mut failures);
    attempted += kernels.len() as u64;

    let speedups: Vec<f64> = untraced.speedups.iter().flatten().copied().collect();
    let samples = untraced.latencies_ns.len();
    let e2e = EndToEnd {
        throughput_per_s: untraced.throughput(),
        latencies_ns: std::mem::take(&mut untraced.latencies_ns),
        setup_s,
        peak_rss_mb,
        design_speedup_geomean: crate::geomean(&speedups),
    };
    let note = format!(
        "kernels={} distinct={} samples={samples} passes={:.2}",
        kernels.len(),
        speedups.len(),
        samples as f64 / kernels.len() as f64
    );
    let Some(w) = traced_window else {
        let failed = failures.count;
        return Outcome {
            attempted,
            metrics: e2e.metrics(attempted, failed),
            failures,
            note,
        };
    };
    let sum = Summary::of(&w.spans);
    let c = &w.counts;
    let program = [
        "ir.parse",
        "core.analyse",
        "select",
        "baselines",
        "merge",
        "hls.rtl",
    ];
    let layer_sum: f64 = program.iter().map(|n| sum.self_of(n)).sum();
    let (p50, _) = crate::p50_p99_ms(&w.latencies_ns);
    let l = crate::Layers {
        parse_s: sum.self_of("ir.parse"),
        analyse_s: sum.self_of("core.analyse"),
        normalize_changes: c.normalize_changes,
        normalize_s: c.normalize_s,
        interp_blocks: c.interp_blocks,
        select_s: sum.self_of("select"),
        select_model_s: c.model_s,
        select_configs: c.configs,
        select_combine_s: c.combine_s,
        select_visited: c.visited,
        select_hits: c.hits,
        select_misses: c.misses,
        baselines_s: sum.self_of("baselines"),
        merge_s: sum.self_of("merge"),
        rtl_s: sum.self_of("hls.rtl"),
        rtl_bytes: c.rtl_bytes,
        wall_s: w.wall.as_secs_f64(),
        thread_wall_s: sum.roots_s,
        remainder_s: sum.roots_s - layer_sum,
        spans: sum.spans as f64,
        samples: w.latencies_ns.len() as f64,
        throughput_untraced: e2e.throughput_per_s,
        throughput_traced: w.throughput(),
        latency_p50_traced_ms: p50,
        ..Default::default()
    };
    crate::write_trace("suite-cold", seed, &w.spans);
    crate::print_breakdown(&sum, &program, l.thread_wall_s);
    Outcome {
        attempted,
        metrics: l.metrics(),
        failures,
        note,
    }
}

/// Regenerates `expected/suite-cold.digests` from the current program
/// (`--write-digests`). Run only when a change is meant to alter outputs.
pub fn write_digests() {
    let kernels = gen::load_kernels();
    let mut t = Tracer::new(false, Instant::now());
    let mut text = String::new();
    for (i, k) in kernels.iter().enumerate() {
        let (_, digest, _, _) = compile(k, &mut t, i as u64)
            .unwrap_or_else(|e| panic!("kernel {}: {e}", k.workload.name));
        text.push_str(&format!("{} {digest:016x}\n", k.workload.name));
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/expected/suite-cold.digests");
    std::fs::write(path, text).expect("digest file is writable");
    eprintln!("wrote {path}");
}
