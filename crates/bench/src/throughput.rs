//! Serving-throughput experiment: queries/second per method.
//!
//! The paper reports proof *sizes*; the ROADMAP's north star is a
//! provider that serves "heavy traffic from millions of users", so
//! from PR 1 onward the repo tracks end-to-end **throughput**:
//!
//! * `prove_qps` / `verify_qps` — `answer` / `verify` rates of one
//!   query at a time (a batch of one) over a paper-style workload,
//! * `batch_prove_qps` / `batch_verify_qps` — the same workload served
//!   through the pooled batch path (all four methods), which shares
//!   tuples, Merkle covers, signed roots and method hint proofs across
//!   queries and fans out over threads when the `parallel` feature is
//!   on,
//! * `stream_verify_qps` — client-side verification of the same
//!   workload arriving as encoded stream frames (header + pooled
//!   chunks + end), i.e. decode + batched verify per chunk through
//!   `spnet_core::stream::StreamVerifier`.
//!
//! Results are printed as a table and written to
//! `BENCH_throughput.json` so successive PRs can diff the trajectory.
//! Regenerate with:
//!
//! ```text
//! cargo run --release -p spnet-bench --bin figures -- throughput
//! ```

use crate::config::HarnessConfig;
use crate::report::{fmt_f, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spnet_core::owner::{DataOwner, SetupConfig};
use spnet_core::provider::ServiceProvider;
use spnet_core::stream::StreamVerifier;
use spnet_core::{Client, SpService};
use spnet_graph::algo::dijkstra::reference;
use spnet_graph::gen::grid_network;
use spnet_graph::workload::make_workload;
use spnet_graph::NodeId;
use std::fmt::Write as _;
use std::time::Instant;

/// Queries per pooled stream chunk in the streaming-verify
/// measurement.
const STREAM_CHUNK_LEN: usize = 16;

/// Throughput measurements for one method.
#[derive(Debug, Clone)]
pub struct MethodThroughput {
    /// Method display name.
    pub method: String,
    /// Single-query proof generations per second.
    pub prove_qps: f64,
    /// Single-query client verifications per second.
    pub verify_qps: f64,
    /// Batched proof generations per second (None only in historical
    /// baselines — every method batches now).
    pub batch_prove_qps: Option<f64>,
    /// Batched verifications per second (None only in historical
    /// baselines — every method batches now).
    pub batch_verify_qps: Option<f64>,
    /// Streaming verifications per second — frame decode + chunked
    /// batch verify (None only in historical baselines — every method
    /// streams now).
    pub stream_verify_qps: Option<f64>,
}

/// The full experiment output.
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    /// Machine-speed probe: textbook `reference::sssp` runs per second
    /// on a fixed small graph, measured in the same process as the
    /// method rates. The regression gate divides every qps column by
    /// this before comparing against the committed baseline, so a
    /// uniformly slower/faster runner cancels out and the tolerance
    /// only has to absorb genuine per-metric noise (which is why it
    /// could drop from 0.30 to 0.15).
    pub ref_qps: f64,
    /// |V| of the measured graph.
    pub num_nodes: usize,
    /// |E| of the measured graph.
    pub num_edges: usize,
    /// Number of distinct workload queries.
    pub queries: usize,
    /// Whether the `parallel` feature was compiled in.
    pub parallel: bool,
    /// Worker threads available to the parallel paths.
    pub threads: usize,
    /// Per-method rates.
    pub methods: Vec<MethodThroughput>,
}

/// Times `f` over enough repetitions of a `queries`-sized pass to fill
/// ~`budget_ms`, returning operations/second. Shared with the
/// query-operator experiment (`crate::queries`).
pub(crate) fn measure_qps(queries: usize, budget_ms: u64, mut f: impl FnMut()) -> f64 {
    // One warmup pass.
    f();
    let budget = std::time::Duration::from_millis(budget_ms);
    let start = Instant::now();
    let mut passes = 0u64;
    while start.elapsed() < budget {
        f();
        passes += 1;
    }
    (passes as f64 * queries as f64) / start.elapsed().as_secs_f64()
}

/// Measures the reference probe: full textbook SSSPs per second on a
/// fixed 3,600-node grid (independent of the harness configuration, so
/// every report's probe is the same workload).
pub(crate) fn reference_probe_qps() -> f64 {
    let g = grid_network(60, 60, 1.2, 7);
    let sources: Vec<NodeId> = (0..8u32).map(|i| NodeId(i * 450)).collect();
    measure_qps(sources.len(), 200, || {
        for &s in &sources {
            std::hint::black_box(reference::sssp(&g, s));
        }
    })
}

/// Runs the experiment and returns the report (no I/O).
pub fn run_throughput(cfg: &HarnessConfig) -> ThroughputReport {
    let ref_qps = reference_probe_qps();
    eprintln!("[throughput] reference probe: {ref_qps:.1} sssp/s");
    let g = cfg.dataset.generate(cfg.scale, cfg.seed);
    eprintln!(
        "[throughput] {} @ scale {} → |V|={} |E|={}",
        cfg.dataset.name(),
        cfg.scale,
        g.num_nodes(),
        g.num_edges()
    );
    let workload = make_workload(&g, cfg.range, cfg.queries, cfg.seed ^ 0x7199);
    let pairs: Vec<(NodeId, NodeId)> = workload.pairs.clone();
    let mut methods = Vec::new();
    for method in cfg.all_methods() {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xBE7C);
        let setup = SetupConfig {
            ordering: cfg.ordering,
            fanout: cfg.fanout,
            seed: cfg.seed,
            ..SetupConfig::default()
        };
        let published = DataOwner::publish(&g, &method, &setup, &mut rng);
        let client = Client::new(published.public_key.clone());
        let provider = ServiceProvider::new(published.package);

        let prove_qps = measure_qps(pairs.len(), 400, || {
            for &(s, t) in &pairs {
                std::hint::black_box(provider.answer(&[(s, t)]).expect("workload reachable"));
            }
        });
        let answers: Vec<_> = pairs
            .iter()
            .map(|&(s, t)| provider.answer(&[(s, t)]).expect("workload reachable"))
            .collect();
        let verify_qps = measure_qps(pairs.len(), 400, || {
            for (&(s, t), a) in pairs.iter().zip(&answers) {
                std::hint::black_box(client.verify(&[(s, t)], a).expect("honest answer"));
            }
        });

        // Streaming verify: the same workload as encoded frames
        // (header + pooled chunks + end); the client decodes and
        // batch-verifies chunk by chunk.
        let frames: Vec<Vec<u8>> = provider
            .answer_stream(&pairs, STREAM_CHUNK_LEN)
            .collect::<Result<_, _>>()
            .expect("stream frames");

        // The batch rates go through the session facade — the only
        // batch entry point since the raw ones were removed.
        let service = SpService::builder()
            .package(provider.package().clone())
            .build();
        let session = service
            .open_session(client.clone())
            .expect("authentic epoch");
        let bp = measure_qps(pairs.len(), 400, || {
            std::hint::black_box(session.answer_batch(&pairs).expect("batch"));
        });
        let batch = session.answer_batch(&pairs).expect("batch");
        let bv = measure_qps(pairs.len(), 400, || {
            std::hint::black_box(session.verify_batch(&pairs, &batch).expect("honest batch"));
        });
        let (batch_prove_qps, batch_verify_qps) = (Some(bp), Some(bv));
        let sv = measure_qps(pairs.len(), 400, || {
            let mut verifier = StreamVerifier::new(&client, &pairs);
            for f in &frames {
                std::hint::black_box(verifier.feed(f).expect("honest stream"));
            }
            verifier.finish().expect("complete stream");
        });
        let stream_verify_qps = Some(sv);

        eprintln!(
            "[throughput] {}: prove {:.0}/s verify {:.0}/s batch {:?}/{:?} stream {:?}",
            method.name(),
            prove_qps,
            verify_qps,
            batch_prove_qps.map(|v| v as u64),
            batch_verify_qps.map(|v| v as u64),
            stream_verify_qps.map(|v| v as u64),
        );
        methods.push(MethodThroughput {
            method: method.name().to_string(),
            prove_qps,
            verify_qps,
            batch_prove_qps,
            batch_verify_qps,
            stream_verify_qps,
        });
    }
    ThroughputReport {
        ref_qps,
        num_nodes: g.num_nodes(),
        num_edges: g.num_edges(),
        queries: pairs.len(),
        parallel: parallel_enabled(),
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        methods,
    }
}

/// Whether spnet-core was built with its parallel batch paths.
fn parallel_enabled() -> bool {
    spnet_core::PARALLEL_ENABLED
}

impl ThroughputReport {
    /// Renders the printable table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Throughput — queries/second per method",
            &[
                "method",
                "prove q/s",
                "verify q/s",
                "batch prove q/s",
                "batch verify q/s",
                "stream verify q/s",
            ],
        );
        for m in &self.methods {
            t.row(vec![
                m.method.clone(),
                fmt_f(m.prove_qps),
                fmt_f(m.verify_qps),
                m.batch_prove_qps.map_or("-".into(), fmt_f),
                m.batch_verify_qps.map_or("-".into(), fmt_f),
                m.stream_verify_qps.map_or("-".into(), fmt_f),
            ]);
        }
        t
    }

    /// Serializes the report as pretty JSON (hand-rolled; no serde in
    /// the offline environment).
    pub fn to_json(&self) -> String {
        fn num(v: f64) -> String {
            if v.is_finite() {
                format!("{v:.1}")
            } else {
                "null".into()
            }
        }
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"schema\": \"spnet-throughput/v3\",");
        let _ = writeln!(s, "  \"ref_qps\": {},", num(self.ref_qps));
        let _ = writeln!(s, "  \"num_nodes\": {},", self.num_nodes);
        let _ = writeln!(s, "  \"num_edges\": {},", self.num_edges);
        let _ = writeln!(s, "  \"queries\": {},", self.queries);
        let _ = writeln!(s, "  \"parallel\": {},", self.parallel);
        let _ = writeln!(s, "  \"threads\": {},", self.threads);
        let _ = writeln!(s, "  \"methods\": [");
        for (i, m) in self.methods.iter().enumerate() {
            let comma = if i + 1 < self.methods.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "    {{\"method\": \"{}\", \"prove_qps\": {}, \"verify_qps\": {}, \
                 \"batch_prove_qps\": {}, \"batch_verify_qps\": {}, \
                 \"stream_verify_qps\": {}}}{}",
                m.method,
                num(m.prove_qps),
                num(m.verify_qps),
                m.batch_prove_qps.map_or("null".into(), num),
                m.batch_verify_qps.map_or("null".into(), num),
                m.stream_verify_qps.map_or("null".into(), num),
                comma
            );
        }
        let _ = writeln!(s, "  ]");
        let _ = writeln!(s, "}}");
        s
    }

    /// Writes `BENCH_throughput.json` into `dir`.
    pub fn save_json(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        let path = dir.join("BENCH_throughput.json");
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// Experiment entry point used by the `figures` binary: prints the
/// table and writes `BENCH_throughput.json` to the current directory.
pub fn throughput(cfg: &HarnessConfig) -> Vec<(String, Table)> {
    let report = run_throughput(cfg);
    let t = report.table();
    t.print();
    match report.save_json(std::path::Path::new(".")) {
        Ok(path) => eprintln!("[throughput] wrote {}", path.display()),
        Err(e) => eprintln!("[throughput] could not write BENCH_throughput.json: {e}"),
    }
    vec![("throughput".into(), t)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_throughput_run_is_sane() {
        let cfg = HarnessConfig {
            scale: 0.008,
            queries: 3,
            range: 2000.0,
            landmarks: 6,
            cells: 9,
            ..HarnessConfig::default()
        };
        let report = run_throughput(&cfg);
        assert_eq!(report.methods.len(), 4);
        for m in &report.methods {
            assert!(m.prove_qps > 0.0, "{}", m.method);
            assert!(m.verify_qps > 0.0, "{}", m.method);
            assert!(m.batch_prove_qps.unwrap() > 0.0, "{}", m.method);
            assert!(m.batch_verify_qps.unwrap() > 0.0, "{}", m.method);
            assert!(m.stream_verify_qps.unwrap() > 0.0, "{}", m.method);
        }
        assert!(report.ref_qps > 0.0);
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"spnet-throughput/v3\""));
        assert!(json.contains("\"ref_qps\""));
        assert!(json.contains("\"stream_verify_qps\""));
        assert!(json.contains("\"DIJ\""));
    }
}
