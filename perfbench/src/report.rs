//! Turns a workload's [`Outcome`] into its metrics: runs the output
//! check, prints the human-readable report, and prints the result line
//! (the last line of standard output).

use crate::common::{
    check_outputs, median, median_of_methods, peak_rss_mb, percentile, Kind, Log, Method,
};
use crate::Args;
use spnet_graph::{Graph, NodeId};
use std::time::Instant;

/// End-to-end metrics: name and unit. Every workload reports each one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_qps", "queries/s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("batch_qps", "queries/s"),
    ("stream_qps", "queries/s"),
    ("proof_kb_per_query", "KiB"),
    ("session_open_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: name, unit, and whether the metric is split by
/// method (`<name>.<DIJ|FULL|LDM|HYP>`). The last three are end-to-end
/// figures that only some workloads have; they are reported with the
/// per-layer metrics because every workload must report every
/// end-to-end metric.
pub const PER_LAYER: &[(&str, &str, bool)] = &[
    ("owner.keygen_s", "s", false),
    ("owner.publish_s", "s", true),
    ("store.save_s", "s", false),
    ("store.load_ms", "ms", false),
    ("store.faults_per_query", "count", false),
    ("store.evictions_per_query", "count", false),
    ("store.refresh_ms", "ms", false),
    ("store.pages_rewritten_per_update", "count", false),
    ("store.bytes_written_per_update", "bytes", false),
    ("service.open_ms", "ms", true),
    ("service.read_stall_frac", "ratio", false),
    ("service.read_stall_ms", "ms", false),
    ("service.epoch_invalidated", "count", false),
    ("provider.prove_ms", "ms", true),
    ("provider.batch_prove_ms", "ms", true),
    ("wire.encode_ms", "ms", true),
    ("wire.decode_ms", "ms", true),
    ("wire.batch_encode_ms", "ms", true),
    ("wire.batch_decode_ms", "ms", true),
    ("wire.bytes_per_query", "bytes", true),
    ("wire.batch_bytes_per_query", "bytes", true),
    ("client.verify_ms", "ms", true),
    ("client.batch_verify_ms", "ms", true),
    ("client.rejections", "count", false),
    ("stream.chunk_ms", "ms", true),
    ("par.jobs", "count", false),
    ("par.stolen", "count", false),
    ("update.apply_ms", "ms", false),
    ("update.lateness_ms", "ms", false),
    ("rsa.signs_per_update", "count", false),
    ("graph.reference_ms", "ms", false),
    ("update_p50_ms", "ms", false),
    ("cold_start_ms", "ms", false),
    ("failed_frac", "ratio", false),
];

/// Every per-layer metric as (key, unit, method), method splits
/// expanded.
fn layer_slots() -> Vec<(&'static str, &'static str, Option<Method>)> {
    let mut out = Vec::new();
    for &(key, unit, split) in PER_LAYER {
        if split {
            out.extend(Method::ALL.iter().map(|&m| (key, unit, Some(m))));
        } else {
            out.push((key, unit, None));
        }
    }
    out
}

fn slot_name(key: &str, method: Option<Method>) -> String {
    match method {
        Some(m) => format!("{key}.{}", m.name()),
        None => key.to_string(),
    }
}

/// Every per-layer metric name with its unit.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    layer_slots()
        .into_iter()
        .map(|(key, unit, m)| (slot_name(key, m), unit))
        .collect()
}

/// What a workload hands back after its timed phase.
pub struct Outcome {
    /// Client threads that issued requests.
    pub client_threads: usize,
    /// Seconds of setup to a servable service.
    pub setup_s: f64,
    /// Scheduler `(executed, stolen)` jobs over the run.
    pub par: (u64, u64),
    /// Due-to-visible times of the owner updates, ms.
    pub update_ms: Vec<f64>,
    /// Snapshot-to-first-verified-answer times of the restarts, ms.
    pub cold_start_ms: Vec<f64>,
    /// Spans during which an owner update held the shard write locks;
    /// the throughput metrics leave this time out.
    pub blocked: Vec<(Instant, Instant)>,
    /// The served graph before any update.
    pub graph: Graph,
    /// The applied updates, in epoch order.
    pub updates: Vec<(NodeId, NodeId, f64)>,
    /// Every client and owner thread's log, merged.
    pub log: Log,
}

/// One reported metric.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    samples: usize,
}

/// Checks the outputs, prints the report and the result line, and
/// returns whether the run was correct.
pub fn finish(args: &Args, mut out: Outcome) -> bool {
    let (graph, updates) = (&out.graph, &out.updates);
    let mismatches = check_outputs(&mut out.log, |epoch| {
        let mut g = graph.clone();
        for &(u, v, w) in &updates[..epoch as usize] {
            g.set_edge_weight(u, v, w);
        }
        g
    });
    let log = &out.log;
    let failed = log.failed.len() as u64;
    let attempted = log.attempted.max(1);

    println!(
        "meta {{\"commit\": \"{}\", \"source_digest\": \"{}\", \"nproc\": {}, \"client_threads\": {}, \
         \"scheduler_threads\": {}, \"key_bits\": {}, \"nodes\": {}, \"edges\": {}, \"workload\": \"{}\", \
         \"seed\": {}, \"seconds\": {}, \"parallel\": {}, \"trace\": {}, \"tiny\": {}}}",
        std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
        std::env::var("PERFBENCH_SOURCE_DIGEST").unwrap_or_else(|_| "unknown".into()),
        nproc(),
        out.client_threads,
        nproc(),
        args.size().key_bits,
        out.graph.num_nodes(),
        out.graph.num_edges(),
        args.workload,
        args.seed,
        args.seconds,
        spnet_core::PARALLEL_ENABLED,
        args.trace,
        args.tiny,
    );

    let e2e = end_to_end(&out);
    for m in &e2e {
        println!(
            "e2e {} = {} {} (samples {})",
            m.name, m.value, m.unit, m.samples
        );
    }
    let layers = per_layer(&out, failed as f64 / attempted as f64);
    if args.trace {
        for m in &layers {
            println!(
                "layer {} = {} {} (samples {})",
                m.name, m.value, m.unit, m.samples
            );
        }
        for (name, n, total) in log.spans.summary() {
            println!("span {name}: {n} samples, total {total}");
        }
    } else {
        // The workload-specific end-to-end figures, reported with the
        // per-layer metrics in a traced run.
        for m in layers
            .iter()
            .filter(|m| !m.name.contains('.') && m.samples > 0)
        {
            println!(
                "e2e {} = {} {} (samples {})",
                m.name, m.value, m.unit, m.samples
            );
        }
    }
    for (variant, n) in &log.rejections {
        println!("rejection {variant}: {n}");
    }
    for e in &log.errors {
        println!("error {e}");
    }
    println!(
        "checked {} verified distances, {} mismatches; attempted {} operations, {} failed",
        log.verified.len(),
        mismatches,
        log.attempted,
        failed
    );

    let correct = failed == 0 && log.attempted > 0;
    let shown = if args.trace { &layers } else { &e2e };
    let metrics: Vec<String> = shown
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    correct
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A finite JSON number with every digit Rust prints for the `f64`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn end_to_end(out: &Outcome) -> Vec<Metric> {
    let log = &out.log;
    let point_ms = log.point_ms();
    let points = point_ms.len();
    let all: Vec<f64> = point_ms.iter().map(|&(_, _, ms)| ms).collect();
    let bytes: u64 = log
        .requests
        .iter()
        .filter(|r| r.kind == Kind::Point)
        .map(|r| r.bytes)
        .sum();
    let (batch, stream) = (
        log.qps(Kind::Batch, &out.blocked),
        log.qps(Kind::Stream, &out.blocked),
    );
    let m = |name: &str, unit: &'static str, value: f64, samples: usize| Metric {
        name: name.into(),
        unit,
        value,
        samples,
    };
    vec![
        m("setup_s", "s", out.setup_s, 1),
        m(
            "query_qps",
            "queries/s",
            log.qps(Kind::Point, &out.blocked).0,
            points,
        ),
        m("query_p50_ms", "ms", median_of_methods(&point_ms), points),
        m("query_p99_ms", "ms", percentile(&all, 99.0), points),
        m("batch_qps", "queries/s", batch.0, batch.1),
        m("stream_qps", "queries/s", stream.0, stream.1),
        m(
            "proof_kb_per_query",
            "KiB",
            bytes as f64 / points.max(1) as f64 / 1024.0,
            points,
        ),
        m(
            "session_open_ms",
            "ms",
            median_of_methods(&log.open_ms),
            log.open_ms.len(),
        ),
        m("peak_rss_mb", "MiB", peak_rss_mb(), 1),
    ]
}

fn per_layer(out: &Outcome, failed_frac: f64) -> Vec<Metric> {
    let log = &out.log;
    layer_slots()
        .into_iter()
        .map(|(key, unit, method)| {
            let (value, samples) = match key {
                "service.epoch_invalidated" => (log.epoch_invalidated as f64, 1),
                "client.rejections" => (log.rejections.values().sum::<u64>() as f64, 1),
                "par.jobs" => (out.par.0 as f64, 1),
                "par.stolen" => (out.par.1 as f64, 1),
                "update_p50_ms" => (median(&out.update_ms), out.update_ms.len()),
                "cold_start_ms" => (median(&out.cold_start_ms), out.cold_start_ms.len()),
                "failed_frac" => (failed_frac, log.attempted as usize),
                _ => log.spans.mean(key, method),
            };
            Metric {
                name: slot_name(key, method),
                unit,
                value,
                samples,
            }
        })
        .collect()
}
