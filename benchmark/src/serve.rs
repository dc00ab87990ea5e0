//! `serve-warm` and `serve-edits`: an in-process `caymand`
//! (`cayman_store::serve`) on a Unix socket, driven by [`crate::workers`]
//! closed-loop `cayman_store::Client`s — `caymand`'s callers (build and
//! design-space-exploration tools) each wait for their reply.
//!
//! * `serve-warm`: SELECTs drawn from a hot set analysed during set-up,
//!   about one request in eight a PING. Every SELECT is a framework-cache
//!   hit and a fully memoised selection: it isolates transport, decode,
//!   framework lookup, warm DP combine and encode.
//! * `serve-edits`: the server backs its frameworks with a `DiskStore` in
//!   a fresh directory, and every SELECT carries a module it has never
//!   seen (a single float-immediate edit of an eligible kernel), so each
//!   request analyses anew, reads unchanged functions' designs from the
//!   store and writes new ones.

use crate::check;
use crate::gen::{self, EditBase, EditSeq, EditSpec, Kernel, WarmReq, WarmStream};
use crate::trace::{Span, Summary, Tracer};
use crate::{EndToEnd, Failures, Layers, Outcome};
use cayman::{Framework, CVA6_TILE_AREA};
use cayman_store::{serve, Client, Endpoint, ServerHandle, ServerOptions, StatsReply};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Warm,
    Edits,
}

/// The budget `design_speedup_geomean` is taken at.
const BUDGET: f64 = 0.25;

/// The server's phase histograms, as named in the `METRICS` exposition.
const PHASES: [&str; 5] = ["decode", "warm", "select", "encode", "total"];

/// Every server setting, pinned: `ServerOptions::default()` reads
/// `CAYMAN_SLOW_REQ_MS`, `CAYMAN_REQ_TIMEOUT_MS` and
/// `CAYMAN_METRICS_INTERVAL_MS`.
fn server_options(store_dir: Option<PathBuf>) -> ServerOptions {
    ServerOptions {
        store_dir,
        select: crate::select_options(),
        max_frameworks: 64,
        slow_req_ms: None,
        req_timeout_ms: None,
        metrics_file: None,
        metrics_interval_ms: 2000,
    }
}

/// What the reference `Framework` of one module says.
#[derive(Debug, Clone, Copy, Default)]
struct Reference {
    digest: u64,
    speedup: f64,
    visited: f64,
    interp_blocks: f64,
    normalize_changes: f64,
}

/// Analyses and selects `text` in-process, outside any timed window.
fn reference(text: &str) -> Result<Reference, String> {
    let fw = Framework::from_text(text).map_err(|e| e.to_string())?;
    let sel = fw.select(&crate::select_options());
    Ok(Reference {
        digest: check::front_digest(&sel.pareto),
        speedup: fw.speedup(sel.best_under(BUDGET * CVA6_TILE_AREA)),
        visited: sel.visited as f64,
        interp_blocks: fw.app.exec.blocks_executed() as f64,
        normalize_changes: f64::from(fw.app.normalize_stats.total_changes()),
    })
}

/// One answered SELECT of `serve-edits`, kept for the check after the
/// window.
struct EditSample {
    spec: EditSpec,
    request_id: u64,
    digest: u64,
}

/// What one client saw in one window.
#[derive(Default)]
struct ClientLog {
    select_rtt_ns: Vec<u64>,
    ping_rtt_ns: u64,
    pings: u64,
    rtt_ns: u64,
    attempted: u64,
    model_evals: u64,
    hits: u64,
    misses: u64,
    /// `serve-warm`: SELECTs per hot-set rank.
    per_rank: Vec<u64>,
    edits: Vec<EditSample>,
    failures: Failures,
    spans: Vec<Span>,
}

impl ClientLog {
    fn absorb(&mut self, o: ClientLog) {
        self.select_rtt_ns.extend(o.select_rtt_ns);
        self.ping_rtt_ns += o.ping_rtt_ns;
        self.pings += o.pings;
        self.rtt_ns += o.rtt_ns;
        self.attempted += o.attempted;
        self.model_evals += o.model_evals;
        self.hits += o.hits;
        self.misses += o.misses;
        if self.per_rank.len() < o.per_rank.len() {
            self.per_rank.resize(o.per_rank.len(), 0);
        }
        for (a, b) in self.per_rank.iter_mut().zip(o.per_rank) {
            *a += b;
        }
        self.edits.extend(o.edits);
        self.failures.merge(o.failures);
    }
}

/// Server-side counters read over the wire.
struct Scrape {
    phase_sums_ns: [f64; 5],
    stats: StatsReply,
}

fn scrape(client: &mut Client) -> Result<Scrape, String> {
    let text = client.metrics().map_err(|e| format!("METRICS: {e}"))?.text;
    let mut phase_sums_ns = [0.0; 5];
    for (sum, phase) in phase_sums_ns.iter_mut().zip(PHASES) {
        let key = format!("cayman_req_{phase}_nanos_sum ");
        *sum = text
            .lines()
            .find_map(|l| l.strip_prefix(&key))
            .and_then(|v| v.trim().parse().ok())
            .ok_or(format!("METRICS has no {key}"))?;
    }
    let stats = client.stats().map_err(|e| format!("STATS: {e}"))?;
    Ok(Scrape {
        phase_sums_ns,
        stats,
    })
}

/// Everything the clients share.
struct Ctx<'a> {
    mode: Mode,
    seed: u64,
    kernels: &'a [Kernel],
    hot: Vec<usize>,
    hot_refs: Vec<Reference>,
    edit_base: Option<EditBase>,
    edit_seq: Mutex<EditSeq>,
}

impl Ctx<'_> {
    fn edit_base(&self) -> &EditBase {
        self.edit_base
            .as_ref()
            .expect("serve-edits has an edit base")
    }
}

/// One client request.
#[derive(Clone, Copy)]
enum Req {
    Ping,
    /// SELECT of the hot-set kernel at this rank.
    Hot(usize),
    /// SELECT of a new edited module.
    Edit(EditSpec),
}

struct Window {
    log: ClientLog,
    wall: Duration,
    before: Scrape,
    after: Scrape,
    spans: Vec<Vec<Span>>,
}

fn client_loop(
    ctx: &Ctx,
    endpoint: &Endpoint,
    stream_index: u64,
    deadline: Instant,
    t: &mut Tracer,
) -> ClientLog {
    let mut log = ClientLog {
        per_rank: vec![0; ctx.hot.len()],
        ..Default::default()
    };
    let mut client = match Client::connect(endpoint) {
        Ok(c) => c,
        Err(e) => {
            log.attempted += 1;
            log.failures
                .add(format!("client {stream_index}: connect: {e}"));
            return log;
        }
    };
    let mut warm = WarmStream::new(ctx.seed, stream_index, ctx.hot.len());
    let mut last_id = 0u64;
    while Instant::now() < deadline {
        let req = match ctx.mode {
            Mode::Warm => match warm.next_req() {
                WarmReq::Ping => Req::Ping,
                WarmReq::Select(rank) => Req::Hot(rank),
            },
            Mode::Edits => Req::Edit(
                ctx.edit_seq
                    .lock()
                    .expect("edit sequence")
                    .next_spec(ctx.edit_base()),
            ),
        };
        let edited;
        let text = match req {
            Req::Ping => None,
            Req::Hot(rank) => Some(ctx.kernels[ctx.hot[rank]].text.as_str()),
            Req::Edit(spec) => {
                edited = t.span("bench.gen", 0, |_| ctx.edit_base().render(spec));
                Some(edited.as_str())
            }
        };
        log.attempted += 1;
        let what = || match req {
            Req::Ping => "PING".to_string(),
            Req::Hot(rank) => format!("SELECT {}", ctx.kernels[ctx.hot[rank]].workload.name),
            Req::Edit(s) => format!(
                "SELECT edit of {} at {:?} by {} steps",
                ctx.kernels[s.kernel].workload.name, s.site, s.steps
            ),
        };
        let start = Instant::now();
        let reply = t.span("store.client.request", 0, |_| match text {
            None => client.ping().map(|()| None),
            Some(text) => client.select_text(text).map(Some),
        });
        let rtt = start.elapsed().as_nanos() as u64;
        log.rtt_ns += rtt;
        let id = client.last_request_id();
        t.set_last_id(id);
        if id <= last_id {
            log.failures.add(format!(
                "client {stream_index}: request id {id} after {last_id}"
            ));
        }
        last_id = id;
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                log.failures.add(format!("request {id} ({}): {e}", what()));
                // The framing may be broken; a fresh connection restarts
                // the per-connection id sequence.
                match Client::connect(endpoint) {
                    Ok(c) => {
                        client = c;
                        last_id = 0;
                        continue;
                    }
                    Err(_) => break,
                }
            }
        };
        let Some(reply) = reply else {
            log.pings += 1;
            log.ping_rtt_ns += rtt;
            continue;
        };
        log.select_rtt_ns.push(rtt);
        log.model_evals += reply.model_evals;
        log.hits += reply.cache_hits;
        log.misses += reply.cache_misses;
        let digest = t.span("bench.check", id, |_| check::front_digest(&reply.front));
        match req {
            Req::Hot(rank) => {
                log.per_rank[rank] += 1;
                if digest != ctx.hot_refs[rank].digest {
                    log.failures.add(format!(
                        "request {id} ({}): front differs from in-process",
                        what()
                    ));
                }
            }
            Req::Edit(spec) => log.edits.push(EditSample {
                spec,
                request_id: id,
                digest,
            }),
            Req::Ping => unreachable!("a PING has no front"),
        }
    }
    log
}

/// Runs the closed-loop clients for `seconds`, between two scrapes.
fn window(
    ctx: &Ctx,
    endpoint: &Endpoint,
    seconds: f64,
    traced: bool,
    round: u64,
) -> Result<Window, String> {
    let mut control = Client::connect(endpoint).map_err(|e| format!("connect: {e}"))?;
    let before = scrape(&mut control)?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let logs = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for c in 0..crate::workers() as u64 {
            let logs = &logs;
            s.spawn(move || {
                let mut t = Tracer::new(traced, start);
                let stream = round * 64 + c;
                let mut log = t.span("bench.client", 0, |t| {
                    client_loop(ctx, endpoint, stream, deadline, t)
                });
                log.spans = t.into_spans();
                logs.lock().expect("a client panicked").push(log);
            });
        }
    });
    let wall = start.elapsed();
    let after = scrape(&mut control)?;
    let mut log = ClientLog::default();
    let mut spans = Vec::new();
    for mut l in logs.into_inner().expect("clients finished") {
        spans.push(std::mem::take(&mut l.spans));
        log.absorb(l);
    }
    Ok(Window {
        log,
        wall,
        before,
        after,
        spans,
    })
}

fn throughput(w: &Window) -> f64 {
    w.log.select_rtt_ns.len() as f64 / w.wall.as_secs_f64()
}

/// Checks every `serve-edits` reply against an in-process framework of the
/// same module text; returns the references in sample order.
fn check_edits(ctx: &Ctx, samples: &[EditSample], failures: &mut Failures) -> Vec<Reference> {
    let Some(base) = &ctx.edit_base else {
        return Vec::new();
    };
    let next = AtomicU64::new(0);
    let refs = Mutex::new(vec![Reference::default(); samples.len()]);
    let found = Mutex::new(Failures::default());
    std::thread::scope(|s| {
        for _ in 0..crate::workers() {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                let Some(sample) = samples.get(i) else { break };
                let r = reference(&base.render(sample.spec));
                let mut found = found.lock().expect("checker");
                match r {
                    Ok(r) if r.digest == sample.digest => {
                        refs.lock().expect("checker")[i] = r;
                    }
                    Ok(_) => found.add(format!(
                        "request {} (edit of {} at {:?} by {} steps): front differs from in-process",
                        sample.request_id,
                        ctx.kernels[sample.spec.kernel].workload.name,
                        sample.spec.site,
                        sample.spec.steps
                    )),
                    Err(e) => found.add(format!(
                        "request {}: in-process reference failed: {e}",
                        sample.request_id
                    )),
                }
            });
        }
    });
    failures.merge(found.into_inner().expect("checkers finished"));
    refs.into_inner().expect("checkers finished")
}

/// A fresh server on a fresh socket (and, for `serve-edits`, a fresh empty
/// store) under `dir`, warmed with `hot_texts`. Returns it with the time
/// from start to warm; the PING that proves it up comes after.
fn start_server(
    mode: Mode,
    dir: &Path,
    k: usize,
    hot_texts: &[&str],
) -> Result<(ServerHandle, Duration), String> {
    let store = (mode == Mode::Edits).then(|| dir.join(format!("store{k}")));
    if let Some(store) = &store {
        // The empty directory is the benchmark's scratch space, made
        // outside the timing: set-up measures opening the store, and a
        // directory creation's latency is the shared disk's, not the
        // program's.
        std::fs::create_dir_all(store.join("objects"))
            .map_err(|e| format!("store directory: {e}"))?;
    }
    let t = Instant::now();
    let handle = serve(
        Endpoint::Unix(dir.join(format!("s{k}.sock"))),
        server_options(store),
    )
    .map_err(|e| format!("server start: {e}"))?;
    if !hot_texts.is_empty() {
        let mut client = Client::connect(handle.endpoint()).map_err(|e| format!("connect: {e}"))?;
        for text in hot_texts {
            client
                .select_text(text)
                .map_err(|e| format!("warming SELECT: {e}"))?;
        }
    }
    let took = t.elapsed();
    let mut probe = Client::connect(handle.endpoint()).map_err(|e| format!("connect: {e}"))?;
    probe.ping().map_err(|e| format!("first PING: {e}"))?;
    Ok((handle, took))
}

/// Starts the measured server repeatedly (see [`crate::more_setups`]) and
/// keeps the last; returns it with the median set-up time.
fn setup(mode: Mode, hot_texts: &[&str], dir: &Path) -> Result<(ServerHandle, f64), String> {
    let mut times = Vec::new();
    let mut kept: Option<ServerHandle> = None;
    let start = Instant::now();
    while crate::more_setups(times.len(), start) {
        // one server at a time, so repeating set-up does not raise the
        // memory high-water mark
        if let Some(old) = kept.take() {
            old.stop();
        }
        let (handle, took) = start_server(mode, dir, times.len(), hot_texts)?;
        times.push(took.as_secs_f64());
        kept = Some(handle);
    }
    Ok((
        kept.expect("at least one set-up"),
        crate::median(&mut times),
    ))
}

pub fn run(mode: Mode, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let dir = crate::out_dir().join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("run directory is creatable");
    let outcome = run_in(mode, seed, seconds, traced, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    outcome.unwrap_or_else(|e| {
        let mut failures = Failures::default();
        failures.add(e);
        Outcome {
            attempted: 1,
            failures,
            metrics: Vec::new(),
            note: String::new(),
        }
    })
}

fn run_in(
    mode: Mode,
    seed: u64,
    seconds: f64,
    traced: bool,
    dir: &Path,
) -> Result<Outcome, String> {
    let kernels = gen::load_kernels();
    let hot = match mode {
        Mode::Warm => gen::hot_set(&kernels),
        Mode::Edits => Vec::new(),
    };
    let hot_texts: Vec<&str> = hot.iter().map(|&i| kernels[i].text.as_str()).collect();
    let (server, setup_s) = setup(mode, &hot_texts, dir)?;
    let mut failures = Failures::default();
    let mut attempted = 0;
    let hot_refs = hot_texts
        .iter()
        .map(|t| {
            attempted += 1;
            reference(t).unwrap_or_else(|e| {
                failures.add(format!("hot-set reference: {e}"));
                Reference::default()
            })
        })
        .collect();
    let ctx = Ctx {
        mode,
        seed,
        kernels: &kernels,
        hot,
        hot_refs,
        edit_base: (mode == Mode::Edits).then(|| EditBase::new(&kernels)),
        edit_seq: Mutex::new(EditSeq::new(seed)),
    };

    let untraced = window(&ctx, server.endpoint(), seconds, false, 0);
    let peak_rss_mb = crate::peak_rss_mb();
    // `serve-edits` slows as its store grows, so the traced window gets a
    // fresh server and store of its own to be comparable to the untraced one.
    let traced_server = match mode {
        Mode::Edits if traced => Some(start_server(mode, dir, crate::MAX_SETUPS, &[])?.0),
        _ => None,
    };
    let traced_window = traced.then(|| {
        let endpoint = traced_server.as_ref().unwrap_or(&server).endpoint();
        window(&ctx, endpoint, seconds, true, 1)
    });
    server.stop();
    if let Some(s) = traced_server {
        s.stop();
    }
    let mut untraced = untraced?;
    let mut traced_window = traced_window.transpose()?;

    // Outside the timed windows: check every edited module's front.
    let edit_refs = check_edits(&ctx, &untraced.log.edits, &mut failures);
    let traced_refs = match &traced_window {
        Some(w) => check_edits(&ctx, &w.log.edits, &mut failures),
        None => Vec::new(),
    };
    attempted += untraced.log.attempted;
    failures.merge(std::mem::take(&mut untraced.log.failures));
    if let Some(w) = &mut traced_window {
        attempted += w.log.attempted;
        failures.merge(std::mem::take(&mut w.log.failures));
    }

    // Geomean over kernels, each kernel weighted once: on `serve-edits` a
    // kernel's value is the geomean over its served edits.
    let speedups: Vec<f64> = match mode {
        Mode::Warm => ctx.hot_refs.iter().map(|r| r.speedup).collect(),
        Mode::Edits => {
            let mut per_kernel: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
            for (s, r) in untraced.log.edits.iter().zip(&edit_refs) {
                per_kernel.entry(s.spec.kernel).or_default().push(r.speedup);
            }
            per_kernel.values().map(|v| crate::geomean(v)).collect()
        }
    };
    let samples = untraced.log.select_rtt_ns.len();
    let note = format!(
        "clients={} samples={samples} pings={} hot_set={} edit_eligible={}",
        crate::workers(),
        untraced.log.pings,
        ctx.hot.len(),
        ctx.edit_base.as_ref().map_or(0, EditBase::eligible),
    );
    let Some(w) = traced_window else {
        let e2e = EndToEnd {
            throughput_per_s: throughput(&untraced),
            latencies_ns: std::mem::take(&mut untraced.log.select_rtt_ns),
            setup_s,
            peak_rss_mb,
            design_speedup_geomean: crate::geomean(&speedups),
        };
        return Ok(Outcome {
            attempted,
            metrics: e2e.metrics(attempted, failures.count),
            failures,
            note,
        });
    };

    let sum = Summary::of(&w.spans);
    let phase = |i: usize| (w.after.phase_sums_ns[i] - w.before.phase_sums_ns[i]) / 1e9;
    let (sa, sb) = (&w.after.stats, &w.before.stats);
    let (da, db) = (sa.store.unwrap_or_default(), sb.store.unwrap_or_default());
    let mut l = Layers {
        select_s: phase(2),
        select_configs: w.log.model_evals as f64,
        select_hits: w.log.hits as f64,
        select_misses: w.log.misses as f64,
        client_rtt_s: w.log.rtt_ns as f64 / 1e9,
        client_requests: w.log.attempted as f64,
        ping_rtt_s: w.log.ping_rtt_ns as f64 / 1e9,
        pings: w.log.pings as f64,
        server_decode_s: phase(0),
        server_warm_s: phase(1),
        server_select_s: phase(2),
        server_encode_s: phase(3),
        server_total_s: phase(4),
        fw_hits: (sa.fw_hits - sb.fw_hits) as f64,
        fw_misses: (sa.fw_misses - sb.fw_misses) as f64,
        disk_hits: (da.hits - db.hits) as f64,
        disk_misses: (da.misses - db.misses) as f64,
        disk_writes: (da.writes - db.writes) as f64,
        disk_evictions: (da.evictions - db.evictions) as f64,
        disk_corrupt: (da.corrupt - db.corrupt) as f64,
        wall_s: w.wall.as_secs_f64(),
        thread_wall_s: sum.roots_s,
        remainder_s: sum.roots_s - sum.self_of("store.client.request"),
        spans: sum.spans as f64,
        samples: w.log.select_rtt_ns.len() as f64,
        throughput_untraced: throughput(&untraced),
        throughput_traced: throughput(&w),
        latency_p50_traced_ms: crate::p50_p99_ms(&w.log.select_rtt_ns).0,
        ..Default::default()
    };
    // Deterministic counts of the served modules, from their in-process
    // references (the same module gives the same counts).
    match mode {
        Mode::Warm => {
            for (rank, &n) in w.log.per_rank.iter().enumerate() {
                l.select_visited += n as f64 * ctx.hot_refs[rank].visited;
            }
        }
        Mode::Edits => {
            for r in &traced_refs {
                l.select_visited += r.visited;
                l.interp_blocks += r.interp_blocks;
                l.normalize_changes += r.normalize_changes;
            }
        }
    }
    let name = match mode {
        Mode::Warm => "serve-warm",
        Mode::Edits => "serve-edits",
    };
    crate::write_trace(name, seed, &w.spans);
    let rtt = l.client_rtt_s;
    for (label, s) in [
        ("server decode", l.server_decode_s),
        ("server warm", l.server_warm_s),
        ("server select", l.server_select_s),
        ("server encode", l.server_encode_s),
        (
            "server other",
            l.server_total_s
                - l.server_decode_s
                - l.server_warm_s
                - l.server_select_s
                - l.server_encode_s,
        ),
        ("unaccounted", rtt - l.server_total_s),
    ] {
        eprintln!(
            "{label:>16} {s:10.4} s {:6.2} % of client round trips",
            100.0 * s / rtt
        );
    }
    eprintln!(
        "{:>16} {:10.4} s of {:.4} s client thread wall",
        "client remainder", l.remainder_s, l.thread_wall_s
    );
    Ok(Outcome {
        attempted,
        metrics: l.metrics(),
        failures,
        note,
    })
}
