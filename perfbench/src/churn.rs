//! `churn`: owner writes beside reads, on the `serve` graph and
//! defaults.
//!
//! Three shards (DIJ, LDM, HYP), each loaded from a `Mem`-backend
//! snapshot so `refresh_shard_snapshot` works. One writer thread
//! applies seeded edge re-weights on an open-loop schedule with a fixed
//! interval and refreshes every shard's snapshot after each update. Two
//! reader threads cycle through the methods; at each a reader opens a
//! session and issues point requests, a batch and a stream.
//! `update_edge_weight` holds every shard's write lock for the whole
//! repair, so the readers stall once per update; that time is reported
//! by the stall and update metrics and left out of the throughput
//! metrics. FULL is left out: one FULL update takes over 12 s at this
//! size.

use crate::common::{
    keygen, median, publish, queries_at, Failure, Kind, Log, Method, Request, Size, BATCH_LEN,
    GRAPH_SEED, STREAM_LEN,
};
use crate::report::Outcome;
use crate::Args;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use spnet_core::snapshot::{save_package, SnapshotRefresh};
use spnet_core::{Client, SpService, StoreBackend};
use spnet_crypto::rsa::signing_ops;
use spnet_graph::gen::Dataset;
use spnet_graph::workload::make_workload;
use spnet_graph::NodeId;
use std::path::Path;
use std::time::{Duration, Instant};

const METHODS: [Method; 3] = [Method::Dij, Method::Ldm, Method::Hyp];
const POOL: usize = 2048;
/// Reader threads: two, as in `serve`. With one reader, its point
/// latencies on the two-core host followed other tenants' load on the
/// idle core, split into two clusters 1.45x apart, and the median jumped
/// between them from seed to seed; and a run opened only 8 sessions per
/// method, too few for a steady `session_open_ms`.
const READERS: usize = 2;

pub fn run(args: &Args, size: &Size, work: &Path) -> Outcome {
    let g = Dataset::De.generate(size.de_scale, GRAPH_SEED);
    let pool = make_workload(&g, size.range, POOL, args.seed ^ 0xC4A1).pairs;
    // Seeded re-weights of random edges, each by a factor in [0.5, 1.5).
    let edges: Vec<(NodeId, NodeId, f64)> = g.edges().collect();
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x0DD5);
    let planned = (args.seconds / size.update_interval).ceil() as usize + 1;
    let plan: Vec<(NodeId, NodeId, f64)> = (0..planned)
        .map(|_| {
            let (u, v, w) = edges[rng.random_range(0..edges.len())];
            (u, v, w * rng.random_range(0.5..1.5))
        })
        .collect();

    let mut main = Log::new(0, args.trace);
    let setup_start = Instant::now();
    let key = keygen(size, &mut main.spans);
    let mut builder = SpService::builder();
    for m in METHODS {
        let published = publish(&g, m, size, &key, &mut main.spans);
        let dir = work.join(m.name());
        let a = Instant::now();
        save_package(&published, &dir).expect("save the churn snapshot");
        let b = Instant::now();
        main.spans.secs("store.save_s", None, a, b);
        builder = builder
            .snapshot(&dir, StoreBackend::Mem)
            .expect("load the churn snapshot");
        main.spans.ms("store.load_ms", None, b, Instant::now(), 1.0);
    }
    let service = builder.build();
    let setup_s = setup_start.elapsed().as_secs_f64();
    let client = Client::new(key.public_key().clone());

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let (writer, readers) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut log = Log::new(1, args.trace);
            let mut applied = Vec::new();
            let mut visible_ms = Vec::new();
            let mut windows = Vec::new();
            for (i, &(u, v, w)) in plan.iter().enumerate() {
                let due = start + Duration::from_secs_f64(size.update_interval * (i as f64 + 0.5));
                if due >= deadline {
                    break;
                }
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                let op = log.begin();
                let a = Instant::now();
                let signs = signing_ops();
                let result = service.update_edge_weight(&key, u, v, w);
                let b = Instant::now();
                let signs = signing_ops() - signs;
                windows.push((a, b));
                let epoch = match result {
                    Ok(e) => e,
                    Err(e) => {
                        log.fail(op, Failure::Other(format!("update failed: {e}")));
                        continue;
                    }
                };
                applied.push((u, v, w));
                log.spans.ms("update.lateness_ms", None, due, a, 1.0);
                log.spans.ms("update.apply_ms", None, a, b, 1.0);
                log.spans.count("rsa.signs_per_update", None, signs as f64);
                // The update is visible once a freshly opened session
                // binds the new epoch.
                match service.open_session_for(client.clone(), Method::Dij.code()) {
                    Ok(s) if s.epoch() == epoch => {
                        visible_ms.push(due.elapsed().as_secs_f64() * 1e3);
                    }
                    Ok(s) => log.fail(
                        op,
                        Failure::Other(format!(
                            "fresh session bound epoch {} after update to {epoch}",
                            s.epoch()
                        )),
                    ),
                    Err(e) => log.fail(op, e.into()),
                }
                let (mut pages, mut bytes) = (0, 0);
                for shard in 0..METHODS.len() {
                    let a = Instant::now();
                    match service.refresh_shard_snapshot(shard, key.public_key()) {
                        Ok(SnapshotRefresh::InPlace(st)) => {
                            pages += st.pages_rewritten;
                            bytes += st.bytes_written;
                        }
                        Ok(SnapshotRefresh::FullRewrite) => {}
                        Err(e) => log.fail(op, Failure::Other(format!("refresh: {e}"))),
                    }
                    log.spans
                        .ms("store.refresh_ms", None, a, Instant::now(), 1.0);
                }
                log.spans
                    .count("store.pages_rewritten_per_update", None, pages as f64);
                log.spans
                    .count("store.bytes_written_per_update", None, bytes as f64);
            }
            (log, applied, visible_ms, windows)
        });
        let readers: Vec<_> = (0..READERS)
            .map(|t| {
                let (service, client, pool) = (&service, &client, &pool);
                s.spawn(move || {
                    let mut log = Log::new(t as u64 + 2, args.trace);
                    // The readers start apart in the pool and in the
                    // method cycle, as the `serve` clients do.
                    let mut cursor = t * POOL / READERS;
                    let mut visit = t;
                    while Instant::now() < deadline {
                        for _ in 0..METHODS.len() {
                            let m = METHODS[visit % METHODS.len()];
                            visit += 1;
                            // A fresh session per visit, so a reader binds
                            // each new epoch within one cycle of its
                            // publication. A run has fewer updates than the
                            // service retains epochs, so no session is ever
                            // evicted under a reader.
                            let Some(session) = log.open(service, client, m) else {
                                continue;
                            };
                            for _ in 0..size.churn_points_per_visit {
                                log.point(&session, m, pool[cursor % pool.len()]);
                                cursor += 1;
                            }
                            log.batch(&session, m, &queries_at(pool, cursor, BATCH_LEN));
                            cursor += BATCH_LEN;
                            log.stream(&session, m, &queries_at(pool, cursor, STREAM_LEN));
                            cursor += STREAM_LEN;
                        }
                    }
                    log
                })
            })
            .collect();
        (
            writer.join().expect("churn writer panicked"),
            readers
                .into_iter()
                .map(|h| h.join().expect("churn reader panicked"))
                .collect::<Vec<_>>(),
        )
    });
    let (wlog, applied, visible_ms, windows) = writer;
    main.merge(wlog);
    for log in readers {
        main.merge(log);
    }
    record_stalls(&mut main, &windows);

    let par = service.scheduler_stats().unwrap_or((0, 0));
    Outcome {
        client_threads: READERS,
        setup_s,
        par,
        update_ms: visible_ms,
        cold_start_ms: Vec::new(),
        graph: g,
        updates: applied,
        blocked: windows,
        log: main,
    }
}

type Span = (Instant, Instant);

/// `service.read_stall_frac`: the share of the readers' point requests
/// that overlap an update's `update_edge_weight` span;
/// `service.read_stall_ms`: their mean latency above the median of the
/// method's other point requests.
fn record_stalls(log: &mut Log, updates: &[Span]) {
    let stalled = |&(a, b): &Span| updates.iter().any(|&(ua, ub)| a < ub && ua < b);
    let points: Vec<&Request> = log
        .requests
        .iter()
        .filter(|r| r.kind == Kind::Point)
        .collect();
    let mut extra = Vec::new();
    for m in METHODS {
        let (hit, calm): (Vec<&Request>, Vec<&Request>) = points
            .iter()
            .filter(|r| r.method == m)
            .partition(|r| stalled(&r.span));
        let base = median(&calm.iter().map(|r| r.ms()).collect::<Vec<_>>());
        extra.extend(hit.iter().map(|r| r.ms() - base));
    }
    let frac = extra.len() as f64 / points.len().max(1) as f64;
    let mean = if extra.is_empty() {
        0.0
    } else {
        extra.iter().sum::<f64>() / extra.len() as f64
    };
    log.spans.count("service.read_stall_frac", None, frac);
    log.spans.count("service.read_stall_ms", None, mean);
}
