//! `serve`: read-only serving at the paper's Table II defaults.
//!
//! One `SpService` holds one shard per method (DIJ, FULL, LDM, HYP)
//! with its default scheduler. Two closed-loop client threads cycle
//! through the methods in equal counts; at each method a thread opens a
//! session, then issues point requests, one 32-query batch and one
//! 64-query stream. Graph search, Merkle work and decoding inside prove
//! and verify dominate; RSA appears only at session open.

use crate::common::{
    keygen, publish, queries_at, Log, Method, Size, BATCH_LEN, GRAPH_SEED, STREAM_LEN,
};
use crate::report::Outcome;
use crate::Args;
use spnet_core::{Client, SpService};
use spnet_graph::gen::Dataset;
use spnet_graph::workload::make_workload;
use std::time::{Duration, Instant};

/// Client threads (the benchmark host has two cores).
const CLIENTS: usize = 2;
/// Distinct query pairs the clients cycle through.
const POOL: usize = 2048;

pub fn run(args: &Args, size: &Size) -> Outcome {
    let g = Dataset::De.generate(size.de_scale, GRAPH_SEED);
    let pool = make_workload(&g, size.range, POOL, args.seed ^ 0x5E4E).pairs;

    let mut main = Log::new(0, args.trace);
    let setup_start = Instant::now();
    let key = keygen(size, &mut main.spans);
    let mut builder = SpService::builder();
    for m in Method::ALL {
        builder = builder.package(publish(&g, m, size, &key, &mut main.spans).package);
    }
    let service = builder.build();
    let setup_s = setup_start.elapsed().as_secs_f64();
    let client = Client::new(key.public_key().clone());

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let logs: Vec<Log> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let (service, client, pool) = (&service, &client, &pool);
                s.spawn(move || {
                    let mut log = Log::new(t as u64 + 1, args.trace);
                    // The threads start half a cycle apart, so they
                    // serve different methods at the same time.
                    let mut cursor = t * POOL / CLIENTS;
                    let mut visit = t * 2;
                    // Whole cycles only, so every method is served
                    // equally often.
                    while Instant::now() < deadline {
                        for _ in 0..Method::ALL.len() {
                            let m = Method::ALL[visit % Method::ALL.len()];
                            visit += 1;
                            let Some(session) = log.open(service, client, m) else {
                                continue;
                            };
                            for _ in 0..size.points_per_visit {
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
        handles
            .into_iter()
            .map(|h| h.join().expect("serve client thread panicked"))
            .collect()
    });
    for log in logs {
        main.merge(log);
    }

    let par = service.scheduler_stats().unwrap_or((0, 0));
    Outcome {
        client_threads: CLIENTS,
        setup_s,
        par,
        update_ms: Vec::new(),
        cold_start_ms: Vec::new(),
        graph: g,
        updates: Vec::new(),
        blocked: Vec::new(),
        log: main,
    }
}
