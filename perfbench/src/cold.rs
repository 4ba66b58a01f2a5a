//! `cold-start`: restarts under a lazy paged store larger than its page
//! cache.
//!
//! A 250k-node road network served by DIJ alone. Setup publishes and
//! saves the snapshot once; the timed phase then repeats restarts on one
//! thread: `load_package(dir, File)` → `SpServiceBuilder::package` →
//! four clients in turn, each opening a session and issuing short-range
//! point requests → one batch and one stream → drop.
//! The pager and the snapshot load dominate; search is small and RSA
//! runs only at load and open.

use crate::common::{
    keygen, publish, queries_at, Failure, Log, Method, Size, BATCH_LEN, GRAPH_SEED, STREAM_LEN,
};
use crate::report::Outcome;
use crate::Args;
use spnet_core::snapshot::{load_package, save_package};
use spnet_core::{Client, SpService, StoreBackend};
use spnet_graph::gen::datasets::DATASET_WEIGHT_SCALE;
use spnet_graph::gen::road_network;
use spnet_graph::workload::make_workload;
use std::path::Path;
use std::time::{Duration, Instant};

const POOL: usize = 1024;
/// Clients that reconnect to each restarted service. With one, a run
/// opened only about 30 sessions, and `session_open_ms` spread 0.17 of
/// its median over six runs while the point latency of the same runs
/// spread 0.07.
const CLIENTS_PER_RESTART: usize = 4;

pub fn run(args: &Args, size: &Size, work: &Path) -> Outcome {
    let side = size.road_side;
    let g = road_network(side, side, 1.054, DATASET_WEIGHT_SCALE, GRAPH_SEED);
    let pool = make_workload(&g, size.cold_range, POOL, args.seed ^ 0xC01D).pairs;

    let mut log = Log::new(0, args.trace);
    let setup_start = Instant::now();
    let key = keygen(size, &mut log.spans);
    let published = publish(&g, Method::Dij, size, &key, &mut log.spans);
    let a = Instant::now();
    save_package(&published, work).expect("save the cold-start snapshot");
    log.spans.secs("store.save_s", None, a, Instant::now());
    let setup_s = setup_start.elapsed().as_secs_f64();
    drop(published);
    let client = Client::new(key.public_key().clone());

    let m = Method::Dij;
    let mut cursor = 0;
    let mut cold_start_ms = Vec::new();
    let (mut jobs, mut stolen) = (0, 0);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while Instant::now() < deadline {
        let op = log.begin();
        let t0 = Instant::now();
        let loaded = match load_package(work, StoreBackend::File) {
            Ok(l) => l,
            Err(e) => {
                log.fail(op, Failure::Other(format!("load: {e}")));
                continue;
            }
        };
        log.spans.ms("store.load_ms", None, t0, Instant::now(), 1.0);
        let store = loaded.store;
        let service = SpService::builder().package(loaded.package).build();
        // The clients reconnect one after another; each opens its own
        // session and issues its share of the point requests.
        let mut last = None;
        for c in 0..CLIENTS_PER_RESTART {
            let Some(session) = log.open(&service, &client, m) else {
                continue;
            };
            for i in 0..size.points_per_restart / CLIENTS_PER_RESTART {
                let (faults, evictions) = (store.fault_count(), store.evict_count());
                let done = log.point(&session, m, pool[cursor % pool.len()]);
                cursor += 1;
                log.spans.count(
                    "store.faults_per_query",
                    None,
                    (store.fault_count() - faults) as f64,
                );
                log.spans.count(
                    "store.evictions_per_query",
                    None,
                    (store.evict_count() - evictions) as f64,
                );
                if let (0, 0, Some((_, t))) = (c, i, done) {
                    cold_start_ms.push((t - t0).as_secs_f64() * 1e3);
                }
            }
            last = Some(session);
        }
        let Some(session) = last else {
            continue;
        };
        log.batch(&session, m, &queries_at(&pool, cursor, BATCH_LEN));
        cursor += BATCH_LEN;
        log.stream(&session, m, &queries_at(&pool, cursor, STREAM_LEN));
        cursor += STREAM_LEN;
        if let Some((j, s)) = service.scheduler_stats() {
            jobs += j;
            stolen += s;
        }
    }

    Outcome {
        client_threads: 1,
        setup_s,
        par: (jobs, stolen),
        update_ms: Vec::new(),
        cold_start_ms,
        graph: g,
        updates: Vec::new(),
        blocked: Vec::new(),
        log,
    }
}
