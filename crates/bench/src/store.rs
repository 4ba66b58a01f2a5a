//! Cold-start persistence experiment: rebuild-and-resign vs
//! snapshot-load, committed as `BENCH_store.json`.
//!
//! One row per network size (default road-100k and road-1M). Each row
//! times the two ways a provider can come up:
//!
//! * **Rebuild-and-resign** — what a restart without a snapshot costs:
//!   reload the archived raw graph from disk (`load_graph`), recompute
//!   every extended tuple, rebuild the Merkle tree, and RSA sign the
//!   root. Requires the private key.
//! * **Snapshot-load** — `ProviderPackage::load_snapshot` from the
//!   owner's published `snapshot.spnet`, on both backends: the eager
//!   `Mem` store (rebuild digests, verify the pinned signed root) and
//!   the lazy `File` store (fault pages on demand). Requires only the
//!   file; the row records the RSA signing operations observed during
//!   the load window, which must be **zero**.
//!
//! The method is DIJ — the one method that exists at every size (FULL
//! is O(|V|²), and LDM/HYP hint sizes are a tuning choice; the network
//! ADS the snapshot persists is common to all four). Byte-equality of
//! cold answers against the freshly built provider is asserted inline
//! on every row. Regenerate with:
//!
//! ```text
//! cargo run --release -p spnet-bench --bin figures -- store
//! ```
//!
//! `SPNET_STORE_SIZES` (comma-separated node counts, default
//! `100000,1000000`) overrides the row sizes — the CI smoke uses a
//! reduced size through [`StoreConfig::smoke`] instead of this env.

use crate::report::{fmt_f, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spnet_core::methods::MethodConfig;
use spnet_core::owner::{DataOwner, ProviderPackage, SetupConfig};
use spnet_core::provider::ServiceProvider;
use spnet_core::wire::encode_batch_answer;
use spnet_core::StoreBackend;
use spnet_graph::gen::road_network;
use spnet_graph::io::{load_graph, save_graph};
use spnet_graph::workload::make_workload;
use std::fmt::Write as _;
use std::time::Instant;

/// Environment variable overriding the measured sizes.
pub const SIZES_ENV: &str = "SPNET_STORE_SIZES";

/// Configuration of one store run.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Target node counts per row (rounded to the nearest square for
    /// the road lattice).
    pub sizes: Vec<usize>,
    /// Workload range for the inline byte-equality check.
    pub range: f64,
    /// Master seed.
    pub seed: u64,
}

impl StoreConfig {
    /// The committed-artifact configuration: sizes from [`SIZES_ENV`]
    /// (default 100k + 1M).
    pub fn from_env(seed: u64) -> Self {
        let sizes = std::env::var(SIZES_ENV)
            .ok()
            .map(|raw| {
                raw.split(',')
                    .filter_map(|t| t.trim().parse().ok())
                    .collect::<Vec<usize>>()
            })
            .filter(|v| !v.is_empty())
            .unwrap_or_else(|| vec![100_000, 1_000_000]);
        StoreConfig {
            sizes,
            range: 500.0,
            seed,
        }
    }

    /// The CI smoke configuration: one reduced size.
    pub fn smoke(nodes: usize, seed: u64) -> Self {
        StoreConfig {
            sizes: vec![nodes],
            range: 500.0,
            seed,
        }
    }
}

/// One size row: the rebuild path vs the two snapshot-load paths.
#[derive(Debug, Clone)]
pub struct StoreRow {
    /// Human label (`100k`, `1m`, ...).
    pub label: String,
    /// |V| of the road instance.
    pub nodes: usize,
    /// |E| of the road instance.
    pub edges: usize,
    /// Rebuild-and-resign wall seconds: reload the archived graph from
    /// disk + `DataOwner::publish`.
    pub build_sign_s: f64,
    /// `Published::save_snapshot` wall seconds.
    pub save_s: f64,
    /// `load_snapshot` seconds on the eager `Mem` backend.
    pub load_mem_s: f64,
    /// `load_snapshot` seconds on the lazy `File` backend.
    pub load_file_s: f64,
    /// On-disk `snapshot.spnet` size.
    pub snapshot_bytes: u64,
    /// RSA signing operations the publish performed.
    pub sign_ops_build: u64,
    /// RSA signing operations observed across both loads (must be 0).
    pub sign_ops_load: u64,
}

impl StoreRow {
    /// How much faster the lazy cold start is than rebuild-and-resign.
    pub fn file_speedup(&self) -> f64 {
        self.build_sign_s / self.load_file_s
    }
}

/// The full experiment output.
#[derive(Debug, Clone)]
pub struct StoreReport {
    /// Whether the `parallel` feature was compiled in.
    pub parallel: bool,
    /// Worker threads available.
    pub threads: usize,
    /// Master seed the rows were measured under.
    pub seed: u64,
    /// One row per size.
    pub rows: Vec<StoreRow>,
}

/// Human label for a node count (`100k`, `1m`).
fn size_label(n: usize) -> String {
    if n >= 1_000_000 {
        format!("{}m", (n + 500_000) / 1_000_000)
    } else {
        format!("{}k", (n + 500) / 1_000)
    }
}

/// Runs the experiment and returns the report (temp files only).
pub fn run_store(cfg: &StoreConfig) -> StoreReport {
    let mut rows = Vec::new();
    for &target in &cfg.sizes {
        let side = (target as f64).sqrt().round().max(2.0) as usize;
        let n = side * side;
        eprintln!("[store] row {} (lattice {side}x{side})", size_label(n));
        let g = road_network(side, side, 1.05, 1.0, cfg.seed);
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x570E);
        let setup = SetupConfig {
            seed: cfg.seed,
            ..SetupConfig::default()
        };

        let dir =
            std::env::temp_dir().join(format!("spnet-store-bench-{n}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let graph_path = dir.join("network.graph");
        save_graph(&g, &graph_path).expect("graph archive");

        // Both restart paths start from disk artifacts: the rebuild
        // reloads the archived graph before publishing.
        let ops_before_build = spnet_crypto::rsa::signing_ops();
        let start = Instant::now();
        let reloaded = load_graph(&graph_path).expect("graph reload");
        let published = DataOwner::publish(&reloaded, &MethodConfig::Dij, &setup, &mut rng);
        let build_sign_s = start.elapsed().as_secs_f64();
        let sign_ops_build = spnet_crypto::rsa::signing_ops() - ops_before_build;
        let start = Instant::now();
        let path = published.save_snapshot(&dir).expect("snapshot save");
        let save_s = start.elapsed().as_secs_f64();
        let snapshot_bytes = std::fs::metadata(&path).expect("snapshot metadata").len();

        let ops_before_load = spnet_crypto::rsa::signing_ops();
        let start = Instant::now();
        let mem = ProviderPackage::load_snapshot(&dir, StoreBackend::Mem).expect("mem load");
        let load_mem_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let file = ProviderPackage::load_snapshot(&dir, StoreBackend::File).expect("file load");
        let load_file_s = start.elapsed().as_secs_f64();
        let sign_ops_load = spnet_crypto::rsa::signing_ops() - ops_before_load;

        // Cold providers must serve byte-identical verified answers.
        let (s, t) = make_workload(&g, cfg.range, 1, cfg.seed ^ 0x570F).pairs[0];
        let fresh = ServiceProvider::new(published.package);
        let want = encode_batch_answer(&fresh.answer(&[(s, t)]).expect("workload reachable"));
        for loaded in [mem, file] {
            let cold = ServiceProvider::new(loaded.package);
            let got = encode_batch_answer(&cold.answer(&[(s, t)]).expect("workload reachable"));
            assert_eq!(got, want, "cold answer must be byte-equal");
        }
        std::fs::remove_dir_all(&dir).ok();

        let row = StoreRow {
            label: size_label(n),
            nodes: n,
            edges: g.num_edges(),
            build_sign_s,
            save_s,
            load_mem_s,
            load_file_s,
            snapshot_bytes,
            sign_ops_build,
            sign_ops_load,
        };
        eprintln!(
            "[store]   build+sign {:.2}s ({} sign ops), save {:.2}s ({} bytes), \
             load mem {:.3}s / file {:.4}s ({} sign ops)",
            row.build_sign_s,
            row.sign_ops_build,
            row.save_s,
            row.snapshot_bytes,
            row.load_mem_s,
            row.load_file_s,
            row.sign_ops_load,
        );
        rows.push(row);
    }
    StoreReport {
        parallel: spnet_core::PARALLEL_ENABLED,
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        seed: cfg.seed,
        rows,
    }
}

impl StoreReport {
    /// The printable table.
    pub fn tables(&self) -> Vec<(String, Table)> {
        let mut t = Table::new(
            "Store — rebuild-and-resign vs snapshot cold start (DIJ, road family)",
            &[
                "size",
                "|V|",
                "build+sign s",
                "save s",
                "load mem s",
                "load file s",
                "snapshot MB",
                "sign ops build",
                "sign ops load",
                "file speedup",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.label.clone(),
                format!("{}", r.nodes),
                fmt_f(r.build_sign_s),
                fmt_f(r.save_s),
                fmt_f(r.load_mem_s),
                fmt_f(r.load_file_s),
                format!("{:.1}", r.snapshot_bytes as f64 / 1e6),
                format!("{}", r.sign_ops_build),
                format!("{}", r.sign_ops_load),
                format!("{:.1}", r.file_speedup()),
            ]);
        }
        vec![("store_cold_start".into(), t)]
    }

    /// Serializes the report as pretty JSON (hand-rolled; no serde in
    /// the offline environment).
    pub fn to_json(&self) -> String {
        fn num(v: f64) -> String {
            if v.is_finite() {
                format!("{v:.4}")
            } else {
                "null".into()
            }
        }
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"schema\": \"spnet-store/v1\",");
        let _ = writeln!(s, "  \"parallel\": {},", self.parallel);
        let _ = writeln!(s, "  \"threads\": {},", self.threads);
        let _ = writeln!(s, "  \"seed\": {},", self.seed);
        let _ = writeln!(s, "  \"method\": \"DIJ\",");
        let _ = writeln!(s, "  \"rows\": [");
        for (i, r) in self.rows.iter().enumerate() {
            let comma = if i + 1 < self.rows.len() { "," } else { "" };
            let _ = writeln!(s, "    {{");
            let _ = writeln!(s, "      \"label\": \"{}\",", r.label);
            let _ = writeln!(s, "      \"nodes\": {},", r.nodes);
            let _ = writeln!(s, "      \"edges\": {},", r.edges);
            let _ = writeln!(s, "      \"build_sign_s\": {},", num(r.build_sign_s));
            let _ = writeln!(s, "      \"save_s\": {},", num(r.save_s));
            let _ = writeln!(s, "      \"load_mem_s\": {},", num(r.load_mem_s));
            let _ = writeln!(s, "      \"load_file_s\": {},", num(r.load_file_s));
            let _ = writeln!(s, "      \"snapshot_bytes\": {},", r.snapshot_bytes);
            let _ = writeln!(s, "      \"sign_ops_build\": {},", r.sign_ops_build);
            let _ = writeln!(s, "      \"sign_ops_load\": {}", r.sign_ops_load);
            let _ = writeln!(s, "    }}{comma}");
        }
        let _ = writeln!(s, "  ]");
        let _ = writeln!(s, "}}");
        s
    }

    /// Writes `BENCH_store.json` into `dir`.
    pub fn save_json(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        let path = dir.join("BENCH_store.json");
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// Experiment entry point used by the `figures` binary: prints the
/// table and writes `BENCH_store.json` to the current directory.
pub fn store(cfg: &crate::config::HarnessConfig) -> Vec<(String, Table)> {
    let report = run_store(&StoreConfig::from_env(cfg.seed));
    let tables = report.tables();
    for (_, t) in &tables {
        t.print();
    }
    match report.save_json(std::path::Path::new(".")) {
        Ok(path) => eprintln!("[store] wrote {}", path.display()),
        Err(e) => eprintln!("[store] could not write BENCH_store.json: {e}"),
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_store_run_is_sane() {
        let cfg = StoreConfig::smoke(2_500, 42);
        let report = run_store(&cfg);
        assert_eq!(report.rows.len(), 1);
        let row = &report.rows[0];
        assert_eq!(row.nodes, 2_500);
        assert!(row.build_sign_s > 0.0 && row.save_s > 0.0);
        assert!(row.load_mem_s > 0.0 && row.load_file_s > 0.0);
        assert!(row.snapshot_bytes > 0);
        assert!(row.sign_ops_build >= 1, "the owner must sign at publish");
        // sign_ops_load == 0 is pinned by tests/store_persist.rs under
        // a lock; here parallel unit tests may sign concurrently, so
        // only the structural fields are asserted.
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"spnet-store/v1\""));
        assert!(json.contains("\"sign_ops_load\""));
    }

    #[test]
    fn size_labels() {
        assert_eq!(size_label(99_856), "100k");
        assert_eq!(size_label(1_000_000), "1m");
        assert_eq!(size_label(2_500), "3k");
    }
}
