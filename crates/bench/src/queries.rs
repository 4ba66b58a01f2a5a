//! Verified query-operator experiment: certificate sizes and verify
//! cost of the range / k-nearest-POI / distance-matrix operators,
//! committed as `BENCH_queries.json`.
//!
//! One row per method (DIJ/FULL/LDM/HYP), each measuring the three
//! `spnet-queries` operators end to end through the session facade:
//!
//! * **range** — `Session::verify_range` rate on a fixed
//!   `(source, radius)` disc, plus the certificate's serialized size
//!   and the member count it certifies complete.
//! * **k-NN** — `verify_knn` rate (directory-completeness certificate
//!   plus pooled distance batch) next to the **plain** pooled-batch
//!   verify over the *same* `(source, poi)` pairs. Their ratio is the
//!   price of the completeness certificate; the gate bounds it.
//! * **matrix** — pooled `verify_matrix` cell rate and certificate
//!   size, next to the summed wire size of per-pair single answers —
//!   the pooling win the gate requires to stay a win.
//!
//! Regenerate with:
//!
//! ```text
//! cargo run --release -p spnet-bench --bin figures -- queries
//! ```
//!
//! `SPNET_QUERIES_SIDE` (lattice side, default 40 → 1,600 nodes)
//! overrides the committed-artifact size — the CI smoke uses a reduced
//! size through [`QueriesConfig::smoke`] instead of this env.

use crate::report::{fmt_f, Table};
use crate::throughput::measure_qps;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spnet_core::methods::{LdmConfig, MethodConfig};
use spnet_core::owner::{DataOwner, SetupConfig};
use spnet_core::provider::ServiceProvider;
use spnet_core::wire::encode_batch_answer;
use spnet_core::{Client, SpService};
use spnet_crypto::rsa::RsaKeyPair;
use spnet_graph::gen::grid_network;
use spnet_graph::landmark::{CompressionStrategy, LandmarkStrategy};
use spnet_graph::NodeId;
use spnet_queries::{PoiSet, SessionQueries};
use std::fmt::Write as _;

/// Environment variable overriding the committed-artifact lattice side.
pub const SIDE_ENV: &str = "SPNET_QUERIES_SIDE";

/// Configuration of one query-operator run.
#[derive(Debug, Clone)]
pub struct QueriesConfig {
    /// Lattice side (`|V| = side²`, coordinates span `[0, 10000]²`).
    pub side: usize,
    /// POI directory size.
    pub pois: usize,
    /// `k` of the measured k-NN query.
    pub k: u32,
    /// Range radius (coordinate units; the extent is 10,000).
    pub radius: f64,
    /// Matrix rows.
    pub mat_sources: usize,
    /// Matrix columns.
    pub mat_targets: usize,
    /// LDM landmark count.
    pub landmarks: usize,
    /// HYP cell count.
    pub cells: usize,
    /// Master seed.
    pub seed: u64,
}

impl QueriesConfig {
    /// The committed-artifact configuration: side from [`SIDE_ENV`]
    /// (default 40 → 1,600 nodes, small enough for FULL's O(|V|²)
    /// build).
    pub fn from_env(seed: u64) -> Self {
        let side = std::env::var(SIDE_ENV)
            .ok()
            .and_then(|raw| raw.trim().parse().ok())
            .filter(|&s| s >= 4)
            .unwrap_or(40);
        QueriesConfig {
            side,
            pois: 12,
            k: 3,
            radius: 2_500.0,
            mat_sources: 4,
            mat_targets: 6,
            landmarks: 24,
            cells: 16,
            seed,
        }
    }

    /// The CI smoke configuration: one reduced size (`nodes` is
    /// rounded to the nearest square lattice).
    pub fn smoke(nodes: usize, seed: u64) -> Self {
        let side = ((nodes as f64).sqrt().round() as usize).max(4);
        QueriesConfig {
            side,
            pois: 8,
            k: 3,
            radius: 2_500.0,
            mat_sources: 3,
            mat_targets: 4,
            landmarks: 8,
            cells: 9,
            seed,
        }
    }

    /// The four methods at the configured hint sizes, in the paper's
    /// presentation order.
    fn methods(&self) -> Vec<MethodConfig> {
        vec![
            MethodConfig::Dij,
            MethodConfig::Full {
                use_floyd_warshall: false,
            },
            MethodConfig::Ldm(LdmConfig {
                landmarks: self.landmarks,
                bits: 12,
                xi: 50.0,
                strategy: LandmarkStrategy::Farthest,
                compression: CompressionStrategy::HilbertSweep,
            }),
            MethodConfig::Hyp { cells: self.cells },
        ]
    }
}

/// One method row: per-operator verify rates and certificate sizes.
#[derive(Debug, Clone)]
pub struct QueriesRow {
    /// Method display name.
    pub method: String,
    /// Nodes the range certificate proves complete.
    pub range_members: usize,
    /// Verified range queries per second (client side).
    pub range_verify_qps: f64,
    /// Range certificate size in bytes.
    pub range_cert_bytes: u64,
    /// Verified k-NN queries per second (directory certificate +
    /// pooled batch + local ranking).
    pub knn_verify_qps: f64,
    /// k-NN certificate size in bytes.
    pub knn_cert_bytes: u64,
    /// Plain pooled-batch verifications per second over the same
    /// `(source, poi)` pairs, without the completeness certificate.
    pub plain_verify_qps: f64,
    /// Verified matrix cells per second (pooled batch, client side).
    pub matrix_verify_qps: f64,
    /// Pooled matrix certificate size in bytes.
    pub matrix_cert_bytes: u64,
    /// Summed wire size of per-pair single answers for the same cells
    /// — what the matrix would cost without the shared tuple pool.
    pub matrix_separate_bytes: u64,
}

impl QueriesRow {
    /// The completeness certificate's verify-cost multiplier: plain
    /// batch rate over k-NN rate (≥ 1; the gate bounds it).
    pub fn knn_overhead(&self) -> f64 {
        self.plain_verify_qps / self.knn_verify_qps
    }

    /// How much smaller the pooled matrix certificate is than per-pair
    /// answers (> 1 means pooling wins).
    pub fn matrix_pool_ratio(&self) -> f64 {
        self.matrix_separate_bytes as f64 / self.matrix_cert_bytes as f64
    }
}

/// The full experiment output.
#[derive(Debug, Clone)]
pub struct QueriesReport {
    /// Whether the `parallel` feature was compiled in.
    pub parallel: bool,
    /// Worker threads available.
    pub threads: usize,
    /// Master seed.
    pub seed: u64,
    /// |V| of the measured lattice.
    pub num_nodes: usize,
    /// |E| of the measured lattice.
    pub num_edges: usize,
    /// POI directory size.
    pub pois: usize,
    /// Measured `k`.
    pub k: u32,
    /// Measured range radius.
    pub radius: f64,
    /// One row per method.
    pub rows: Vec<QueriesRow>,
}

/// Runs the experiment and returns the report (no I/O).
pub fn run_queries(cfg: &QueriesConfig) -> QueriesReport {
    let g = grid_network(cfg.side, cfg.side, 1.15, cfg.seed);
    let n = g.num_nodes();
    eprintln!(
        "[queries] lattice {side}x{side} → |V|={n} |E|={}",
        g.num_edges(),
        side = cfg.side
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x9E17);
    let keypair = RsaKeyPair::generate(&mut rng, SetupConfig::default().rsa_bits);
    // POIs spread evenly over the lattice, payload = station index.
    let step = (n / cfg.pois).max(1);
    let poi_list: Vec<(NodeId, f64)> = (0..cfg.pois)
        .map(|i| (NodeId((i * step) as u32), i as f64))
        .collect();
    let pois = PoiSet::publish(&keypair, &poi_list).expect("distinct ascending POIs");
    let source = NodeId((n / 2) as u32);
    let mat_sources: Vec<NodeId> = poi_list[..cfg.mat_sources].iter().map(|p| p.0).collect();
    let mat_targets: Vec<NodeId> = (0..cfg.mat_targets)
        .map(|j| NodeId(((j * step) + step / 2) as u32 % n as u32))
        .collect();

    let mut rows = Vec::new();
    for method in cfg.methods() {
        let setup = SetupConfig {
            seed: cfg.seed,
            ..SetupConfig::default()
        };
        let published = DataOwner::publish_with_key(&g, &method, &setup, &keypair);
        // A plain provider for the per-pair answers the pooled matrix
        // is compared against; the clone goes into the session facade.
        let provider = ServiceProvider::new(published.package.clone());
        let service = SpService::builder().package(published.package).build();
        let session = service
            .open_session(Client::new(published.public_key))
            .expect("authentic epoch");

        // -- range --
        let range_answer = session
            .answer_range(source, cfg.radius)
            .expect("range answer");
        let range_members = range_answer.members.len();
        let range_cert_bytes = range_answer.size_bytes() as u64;
        let range_verify_qps = measure_qps(1, 300, || {
            std::hint::black_box(
                session
                    .verify_range(source, cfg.radius, &range_answer)
                    .expect("honest range"),
            );
        });

        // -- k-NN vs the plain pooled batch over the same pairs --
        let knn_answer = session
            .answer_knn(&pois, source, cfg.k)
            .expect("knn answer");
        let knn_cert_bytes = knn_answer.size_bytes() as u64;
        let knn_verify_qps = measure_qps(1, 300, || {
            std::hint::black_box(
                session
                    .verify_knn(source, cfg.k, &knn_answer)
                    .expect("honest knn"),
            );
        });
        let pairs: Vec<(NodeId, NodeId)> = poi_list.iter().map(|&(v, _)| (source, v)).collect();
        let plain = session.answer_batch(&pairs).expect("plain batch");
        let plain_verify_qps = measure_qps(1, 300, || {
            std::hint::black_box(session.verify_batch(&pairs, &plain).expect("honest batch"));
        });

        // -- matrix: pooled certificate vs per-pair answers --
        let matrix_answer = session
            .answer_matrix(&mat_sources, &mat_targets)
            .expect("matrix answer");
        let matrix_cert_bytes = matrix_answer.size_bytes() as u64;
        let cells = mat_sources.len() * mat_targets.len();
        let matrix_verify_qps = measure_qps(cells, 300, || {
            std::hint::black_box(
                session
                    .verify_matrix(&mat_sources, &mat_targets, &matrix_answer)
                    .expect("honest matrix"),
            );
        });
        let matrix_separate_bytes: u64 = mat_sources
            .iter()
            .flat_map(|&s| mat_targets.iter().map(move |&t| (s, t)))
            .map(|(s, t)| {
                encode_batch_answer(&provider.answer(&[(s, t)]).expect("reachable")).len() as u64
            })
            .sum();

        let row = QueriesRow {
            method: method.name().to_string(),
            range_members,
            range_verify_qps,
            range_cert_bytes,
            knn_verify_qps,
            knn_cert_bytes,
            plain_verify_qps,
            matrix_verify_qps,
            matrix_cert_bytes,
            matrix_separate_bytes,
        };
        eprintln!(
            "[queries] {}: range {:.0}/s ({} members, {} B), knn {:.0}/s ({} B, {:.2}x plain), \
             matrix {:.0} cells/s ({} B pooled vs {} B separate)",
            row.method,
            row.range_verify_qps,
            row.range_members,
            row.range_cert_bytes,
            row.knn_verify_qps,
            row.knn_cert_bytes,
            row.knn_overhead(),
            row.matrix_verify_qps,
            row.matrix_cert_bytes,
            row.matrix_separate_bytes,
        );
        rows.push(row);
    }
    QueriesReport {
        parallel: spnet_core::PARALLEL_ENABLED,
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        seed: cfg.seed,
        num_nodes: n,
        num_edges: g.num_edges(),
        pois: cfg.pois,
        k: cfg.k,
        radius: cfg.radius,
        rows,
    }
}

impl QueriesReport {
    /// The printable table.
    pub fn tables(&self) -> Vec<(String, Table)> {
        let mut t = Table::new(
            "Queries — verified range / k-NN / matrix: verify rates and certificate sizes",
            &[
                "method",
                "range /s",
                "members",
                "range B",
                "knn /s",
                "knn B",
                "plain /s",
                "knn cost x",
                "matrix cells/s",
                "matrix B",
                "separate B",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.method.clone(),
                fmt_f(r.range_verify_qps),
                format!("{}", r.range_members),
                format!("{}", r.range_cert_bytes),
                fmt_f(r.knn_verify_qps),
                format!("{}", r.knn_cert_bytes),
                fmt_f(r.plain_verify_qps),
                format!("{:.2}", r.knn_overhead()),
                fmt_f(r.matrix_verify_qps),
                format!("{}", r.matrix_cert_bytes),
                format!("{}", r.matrix_separate_bytes),
            ]);
        }
        vec![("queries_operators".into(), t)]
    }

    /// Serializes the report as pretty JSON (hand-rolled; no serde in
    /// the offline environment).
    pub fn to_json(&self) -> String {
        fn num(v: f64) -> String {
            if v.is_finite() {
                format!("{v:.2}")
            } else {
                "null".into()
            }
        }
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"schema\": \"spnet-queries/v1\",");
        let _ = writeln!(s, "  \"parallel\": {},", self.parallel);
        let _ = writeln!(s, "  \"threads\": {},", self.threads);
        let _ = writeln!(s, "  \"seed\": {},", self.seed);
        let _ = writeln!(s, "  \"num_nodes\": {},", self.num_nodes);
        let _ = writeln!(s, "  \"num_edges\": {},", self.num_edges);
        let _ = writeln!(s, "  \"pois\": {},", self.pois);
        let _ = writeln!(s, "  \"k\": {},", self.k);
        let _ = writeln!(s, "  \"radius\": {},", num(self.radius));
        let _ = writeln!(s, "  \"rows\": [");
        for (i, r) in self.rows.iter().enumerate() {
            let comma = if i + 1 < self.rows.len() { "," } else { "" };
            let _ = writeln!(s, "    {{");
            let _ = writeln!(s, "      \"method\": \"{}\",", r.method);
            let _ = writeln!(s, "      \"range_members\": {},", r.range_members);
            let _ = writeln!(
                s,
                "      \"range_verify_qps\": {},",
                num(r.range_verify_qps)
            );
            let _ = writeln!(s, "      \"range_cert_bytes\": {},", r.range_cert_bytes);
            let _ = writeln!(s, "      \"knn_verify_qps\": {},", num(r.knn_verify_qps));
            let _ = writeln!(s, "      \"knn_cert_bytes\": {},", r.knn_cert_bytes);
            let _ = writeln!(
                s,
                "      \"plain_verify_qps\": {},",
                num(r.plain_verify_qps)
            );
            let _ = writeln!(
                s,
                "      \"matrix_verify_qps\": {},",
                num(r.matrix_verify_qps)
            );
            let _ = writeln!(s, "      \"matrix_cert_bytes\": {},", r.matrix_cert_bytes);
            let _ = writeln!(
                s,
                "      \"matrix_separate_bytes\": {}",
                r.matrix_separate_bytes
            );
            let _ = writeln!(s, "    }}{comma}");
        }
        let _ = writeln!(s, "  ]");
        let _ = writeln!(s, "}}");
        s
    }

    /// Writes `BENCH_queries.json` into `dir`.
    pub fn save_json(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        let path = dir.join("BENCH_queries.json");
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// Experiment entry point used by the `figures` binary: prints the
/// table and writes `BENCH_queries.json` to the current directory.
pub fn queries(cfg: &crate::config::HarnessConfig) -> Vec<(String, Table)> {
    let report = run_queries(&QueriesConfig::from_env(cfg.seed));
    let tables = report.tables();
    for (_, t) in &tables {
        t.print();
    }
    match report.save_json(std::path::Path::new(".")) {
        Ok(path) => eprintln!("[queries] wrote {}", path.display()),
        Err(e) => eprintln!("[queries] could not write BENCH_queries.json: {e}"),
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_queries_run_is_sane() {
        let report = run_queries(&QueriesConfig::smoke(100, 42));
        assert_eq!(report.rows.len(), 4);
        assert_eq!(report.num_nodes, 100);
        for r in &report.rows {
            assert!(r.range_verify_qps > 0.0, "{}", r.method);
            assert!(r.range_members >= 2, "{}", r.method);
            assert!(r.range_cert_bytes > 0, "{}", r.method);
            assert!(r.knn_verify_qps > 0.0, "{}", r.method);
            assert!(r.knn_cert_bytes > 0, "{}", r.method);
            assert!(r.plain_verify_qps > 0.0, "{}", r.method);
            assert!(r.matrix_verify_qps > 0.0, "{}", r.method);
            assert!(
                r.matrix_cert_bytes < r.matrix_separate_bytes,
                "{}: pooling must win ({} vs {})",
                r.method,
                r.matrix_cert_bytes,
                r.matrix_separate_bytes
            );
        }
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"spnet-queries/v1\""));
        assert!(json.contains("\"matrix_separate_bytes\""));
        assert!(json.contains("\"HYP\""));
    }
}
