//! CI gate for the metrics surface: boots `caymand` in-process with a
//! `--metrics-file`-style periodic dump, hammers it with N concurrent
//! clients, scrapes METRICS over the wire, and validates the exposition
//! with the dependency-free parser — rejecting duplicate series,
//! non-monotone histogram buckets, and `_sum`/`_count` inconsistencies.
//! Also asserts the periodic dump file validates and that per-phase
//! histogram counts cover every request the clients sent.
//!
//! A second server keeps only [`EVICT_WINDOW`] frameworks warm and is sent
//! more distinct kernels than that, scraped after each SELECT: no counter
//! series may go down when a framework is evicted, and the server's
//! design-cache misses must equal the sum of the replies' own counts.
//!
//! Exits non-zero (panics) on any violation; prints one OK line otherwise.

use cayman_obs::promtext;
use cayman_store::{serve, Client, Endpoint, ServerOptions};
use std::path::Path;

const CLIENTS: usize = 6;
const REQS_PER_CLIENT: usize = 8;

/// Warm frameworks the eviction server keeps.
const EVICT_WINDOW: usize = 2;
/// Corpus kernels the eviction server is sent, in order. Kernel 1 misses
/// the design cache more than kernel 0, so the third SELECT evicts the
/// framework with the larger count.
const EVICT_KERNELS: [usize; 3] = [1, 2, 0];

fn main() {
    cayman_obs::init_from_env();
    let tmp = std::env::temp_dir().join(format!("cayman-metricsmoke-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("create smoke dir");
    let dump = tmp.join("metrics.prom");

    let server = serve(
        Endpoint::Unix(tmp.join("caymand.sock")),
        ServerOptions {
            metrics_file: Some(dump.clone()),
            metrics_interval_ms: 50,
            ..Default::default()
        },
    )
    .expect("server starts");

    let corpus = cayman::workloads::corpus::corpus();
    let w = corpus.first().expect("corpus is non-empty");
    let text = w.module.to_text();

    // N concurrent clients, mixed opcodes — the histograms must absorb
    // parallel recording without losing counts
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            let endpoint = server.endpoint().clone();
            let text = &text;
            s.spawn(move || {
                let mut c = Client::connect(&endpoint).expect("client connects");
                for i in 0..REQS_PER_CLIENT {
                    match i % 3 {
                        0 => drop(c.select_text(text).expect("select")),
                        1 => c.ping().expect("ping"),
                        _ => drop(c.health().expect("health")),
                    }
                    assert!(c.last_request_id() > 0, "every reply carries an id");
                }
            });
        }
    });

    // scrape over the wire and validate strictly
    let mut client = Client::connect(server.endpoint()).expect("scraper connects");
    let metrics = client.metrics().expect("metrics");
    let exp = promtext::validate(&metrics.text)
        .unwrap_or_else(|e| panic!("wire exposition invalid: {e}"));

    let sent = (CLIENTS * REQS_PER_CLIENT) as f64;
    let total = exp
        .value("cayman_req_total_nanos_count")
        .expect("req.total histogram exported");
    assert!(
        total >= sent,
        "per-phase histograms lost requests: counted {total}, clients sent {sent}"
    );
    for phase in ["decode", "warm", "select", "encode"] {
        let name = format!("cayman_req_{phase}_nanos");
        assert!(
            exp.histogram_names().contains(&name.as_str()),
            "missing {phase} histogram"
        );
        let sum = exp.value(&format!("{name}_sum")).expect("_sum exported");
        let count = exp
            .value(&format!("{name}_count"))
            .expect("_count exported");
        assert!(
            count == 0.0 || sum >= 0.0,
            "{name}: _sum/_count inconsistent"
        );
    }
    assert!(
        exp.value("cayman_server_requests").unwrap_or(0.0) > sent,
        "server request counter covers the fleet plus this scrape"
    );

    // the periodic dump landed and validates too (written at least once
    // at startup and every 50ms since)
    std::thread::sleep(std::time::Duration::from_millis(200));
    let dumped = std::fs::read_to_string(&dump).expect("metrics file dumped");
    promtext::validate(&dumped).unwrap_or_else(|e| panic!("dumped exposition invalid: {e}"));

    client.shutdown_server().expect("shutdown");
    server.wait();
    let compared = eviction_keeps_counters_monotone(&tmp);
    let _ = std::fs::remove_dir_all(&tmp);
    println!(
        "metricsmoke: OK ({CLIENTS} clients x {REQS_PER_CLIENT} reqs, exposition valid on the \
         wire and in the dump file, {total} requests in the phase histograms; {compared} \
         cumulative series non-decreasing across {} evicting SELECTs)",
        EVICT_KERNELS.len()
    );
}

/// Runs the eviction scenario and returns how many counter and histogram
/// series the scrape-to-scrape checks compared.
fn eviction_keeps_counters_monotone(tmp: &Path) -> usize {
    let server = serve(
        Endpoint::Unix(tmp.join("caymand-evict.sock")),
        ServerOptions {
            max_frameworks: EVICT_WINDOW,
            ..Default::default()
        },
    )
    .expect("eviction server starts");
    let corpus = cayman::workloads::corpus::corpus();
    let mut client = Client::connect(server.endpoint()).expect("client connects");
    let scrape = |c: &mut Client| {
        promtext::validate(&c.metrics().expect("metrics").text)
            .unwrap_or_else(|e| panic!("exposition invalid: {e}"))
    };
    let mut last = scrape(&mut client);
    let mut compared = 0;
    let mut misses = 0;
    for i in EVICT_KERNELS {
        let text = corpus[i].module.to_text();
        misses += client.select_text(&text).expect("select").cache_misses;
        let now = scrape(&mut client);
        compared += promtext::check_monotone(&last, &now)
            .unwrap_or_else(|e| panic!("after selecting {}: {e}", corpus[i].name));
        last = now;
    }
    let evictions = (EVICT_KERNELS.len() - EVICT_WINDOW) as f64;
    assert_eq!(last.value("cayman_server_fw_evictions"), Some(evictions));
    assert_eq!(
        last.value("cayman_server_select_cache_misses"),
        Some(misses as f64),
        "server design-cache misses are the sum of the replies' own counts"
    );
    client.shutdown_server().expect("shutdown");
    server.wait();
    compared
}
