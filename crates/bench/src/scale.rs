//! Million-node scale experiment: SSSP frontier sweeps and per-method
//! serving rates at 100k and 1M nodes, committed as `BENCH_scale.json`.
//!
//! Two measurements per size row:
//!
//! * **SSSP sweeps** — full single-source shortest-path time on three
//!   synthetic families (perturbed-grid road, road + highway hierarchy,
//!   preferential-attachment scale-free), with the frontier forced to
//!   the 4-ary heap and to the calibrated bucket queue. The committed
//!   ratio on the 1M road network is the repo's headline claim for the
//!   bucket queue (gated ≥ 2× by `spnet_bench::gate`).
//! * **Method rates** — owner build time plus one-query-at-a-time
//!   (batch of one) prove / verify qps for DIJ, LDM and HYP over a range-bounded workload.
//!   FULL is excluded by construction: its O(|V|²) distance matrix is
//!   ≥ 10¹⁰ entries at these sizes and cannot be materialized (the
//!   same reason the paper caps FULL's own evaluation).
//!
//! Timings are **min-of-N passes** (`sssp_passes`) — on shared or
//! single-core hosts the minimum is the stable estimator; means drift
//! with scheduler noise. Regenerate with:
//!
//! ```text
//! cargo run --release -p spnet-bench --bin figures -- scale
//! ```
//!
//! `SPNET_SCALE_SIZES` (comma-separated node counts, default
//! `100000,1000000`) overrides the row sizes — the CI smoke uses a
//! reduced size through [`ScaleConfig::smoke`] instead of this env.

use crate::report::{fmt_f, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spnet_core::methods::{LdmConfig, MethodConfig};
use spnet_core::owner::{DataOwner, SetupConfig};
use spnet_core::provider::ServiceProvider;
use spnet_core::Client;
use spnet_graph::gen::{highway_network, road_network, scale_free};
use spnet_graph::search::SearchWorkspace;
use spnet_graph::workload::make_workload;
use spnet_graph::{FrontierKind, Graph, NodeId};
use std::fmt::Write as _;
use std::time::Instant;

/// Environment variable overriding the measured sizes.
pub const SIZES_ENV: &str = "SPNET_SCALE_SIZES";

/// Configuration of one scale run.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Target node counts per row (rounded to the nearest square for
    /// the lattice families).
    pub sizes: Vec<usize>,
    /// SSSP sources per timing pass (spread over the id range).
    pub sssp_sources: usize,
    /// Timing passes; the minimum is reported.
    pub sssp_passes: usize,
    /// Query pairs for the method prove/verify workload.
    pub queries: usize,
    /// Workload range (coordinate units; the extent is 10,000, so the
    /// per-query ball is a constant area fraction at every size).
    pub range: f64,
    /// LDM landmarks at scale (the paper's 200 is sized for 28k-node
    /// graphs; landmark selection is `c` full-graph SSSPs).
    pub landmarks: usize,
    /// HYP cells at scale. Border count grows with `√cells · √|V|` and
    /// the owner's hyper matrix is O(borders²) (paper footnote 1), so
    /// this trades owner build cost against per-query proof size.
    pub cells: usize,
    /// Master seed.
    pub seed: u64,
}

impl ScaleConfig {
    /// The committed-artifact configuration: sizes from
    /// [`SIZES_ENV`] (default 100k + 1M).
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
        ScaleConfig {
            sizes,
            sssp_sources: 3,
            sssp_passes: 5,
            queries: 8,
            range: 500.0,
            landmarks: 32,
            cells: 64,
            seed,
        }
    }

    /// The CI smoke configuration: one reduced size, fewer passes and
    /// queries, smaller hint structures — minutes, not an hour.
    pub fn smoke(nodes: usize, seed: u64) -> Self {
        ScaleConfig {
            sizes: vec![nodes],
            sssp_sources: 2,
            sssp_passes: 2,
            queries: 4,
            range: 500.0,
            landmarks: 16,
            cells: 16,
            seed,
        }
    }
}

/// One family's forced-frontier SSSP measurement.
#[derive(Debug, Clone)]
pub struct SsspScale {
    /// `road`, `highway`, or `scale_free`.
    pub family: String,
    /// |V| of the generated instance.
    pub nodes: usize,
    /// |E| of the generated instance.
    pub edges: usize,
    /// Per-source full SSSP, 4-ary heap frontier (min over passes).
    pub heap_ms: f64,
    /// Per-source full SSSP, calibrated bucket frontier (min over
    /// passes).
    pub bucket_ms: f64,
}

impl SsspScale {
    /// Heap-over-bucket speedup of the bucket queue.
    pub fn speedup(&self) -> f64 {
        self.heap_ms / self.bucket_ms
    }
}

/// One method's build + serving rates at one size.
#[derive(Debug, Clone)]
pub struct MethodScale {
    /// Method display name.
    pub method: String,
    /// Owner-side build (publish) seconds.
    pub build_s: f64,
    /// Single-query proof generations per second (min-pass timing).
    pub prove_qps: f64,
    /// Single-query verifications per second (min-pass timing).
    pub verify_qps: f64,
}

/// One size row of the report.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// Human label (`100k`, `1m`, ...).
    pub label: String,
    /// |V| of the road instance the method rates are measured on.
    pub nodes: usize,
    /// Per-family SSSP sweeps.
    pub sssp: Vec<SsspScale>,
    /// Per-method rates (road family).
    pub methods: Vec<MethodScale>,
}

/// The full experiment output.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// Whether the `parallel` feature was compiled in.
    pub parallel: bool,
    /// Worker threads available.
    pub threads: usize,
    /// The configuration the rows were measured under.
    pub config: ScaleConfig,
    /// One row per size.
    pub rows: Vec<ScaleRow>,
}

/// Human label for a node count (`100k`, `1m`).
fn size_label(n: usize) -> String {
    if n >= 1_000_000 {
        format!("{}m", (n + 500_000) / 1_000_000)
    } else {
        format!("{}k", (n + 500) / 1_000)
    }
}

/// Evenly spread SSSP sources over the id range.
fn spread_sources(n: usize, count: usize) -> Vec<NodeId> {
    (1..=count)
        .map(|i| NodeId((i * n / (count + 1)) as u32))
        .collect()
}

/// Min-over-passes per-source SSSP milliseconds for both frontiers.
fn sssp_pair(g: &Graph, sources: &[NodeId], passes: usize) -> (f64, f64) {
    let mut ws = SearchWorkspace::new();
    let mut best = [f64::INFINITY; 2];
    for _ in 0..passes.max(1) {
        for (slot, kind) in [(0usize, FrontierKind::Heap), (1, FrontierKind::Bucket)] {
            let start = Instant::now();
            for &s in sources {
                std::hint::black_box(ws.sssp_with_frontier(g, s, kind).dist(s));
            }
            let ms = start.elapsed().as_secs_f64() * 1e3 / sources.len() as f64;
            best[slot] = best[slot].min(ms);
        }
    }
    (best[0], best[1])
}

/// Times one family instance (the caller drops the graph afterwards).
fn measure_family(family: &str, g: &Graph, cfg: &ScaleConfig) -> SsspScale {
    let sources = spread_sources(g.num_nodes(), cfg.sssp_sources);
    let (heap_ms, bucket_ms) = sssp_pair(g, &sources, cfg.sssp_passes);
    eprintln!(
        "[scale]   {family}: |V|={} |E|={} heap {heap_ms:.1}ms bucket {bucket_ms:.1}ms ({:.2}x)",
        g.num_nodes(),
        g.num_edges(),
        heap_ms / bucket_ms
    );
    SsspScale {
        family: family.to_string(),
        nodes: g.num_nodes(),
        edges: g.num_edges(),
        heap_ms,
        bucket_ms,
    }
}

/// Min duration of `passes` runs of `f`, in seconds.
fn best_secs(passes: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..passes.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Build + prove/verify rates for one method on the road instance.
fn measure_method(g: &Graph, method: &MethodConfig, cfg: &ScaleConfig) -> MethodScale {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5CA1E);
    let setup = SetupConfig {
        seed: cfg.seed,
        ..SetupConfig::default()
    };
    let start = Instant::now();
    let published = DataOwner::publish(g, method, &setup, &mut rng);
    let build_s = start.elapsed().as_secs_f64();
    let client = Client::new(published.public_key.clone());
    let provider = ServiceProvider::new(published.package);
    let pairs = make_workload(g, cfg.range, cfg.queries, cfg.seed ^ 0x5CA2E).pairs;

    let prove = best_secs(cfg.sssp_passes, || {
        for &(s, t) in &pairs {
            std::hint::black_box(provider.answer(&[(s, t)]).expect("workload reachable"));
        }
    });
    let answers: Vec<_> = pairs
        .iter()
        .map(|&(s, t)| provider.answer(&[(s, t)]).expect("workload reachable"))
        .collect();
    let verify = best_secs(cfg.sssp_passes, || {
        for (&(s, t), a) in pairs.iter().zip(&answers) {
            std::hint::black_box(client.verify(&[(s, t)], a).expect("honest answer"));
        }
    });
    let m = MethodScale {
        method: method.name().to_string(),
        build_s,
        prove_qps: pairs.len() as f64 / prove,
        verify_qps: pairs.len() as f64 / verify,
    };
    eprintln!(
        "[scale]   {}: build {:.1}s prove {:.1}/s verify {:.1}/s",
        m.method, m.build_s, m.prove_qps, m.verify_qps
    );
    m
}

/// The three scale methods. FULL is excluded: O(|V|²) precomputation
/// does not exist at these sizes (see module docs).
fn scale_methods(cfg: &ScaleConfig) -> Vec<MethodConfig> {
    vec![
        MethodConfig::Dij,
        MethodConfig::Ldm(LdmConfig {
            landmarks: cfg.landmarks,
            ..LdmConfig::default()
        }),
        MethodConfig::Hyp { cells: cfg.cells },
    ]
}

/// Runs the experiment and returns the report (no I/O).
pub fn run_scale(cfg: &ScaleConfig) -> ScaleReport {
    let mut rows = Vec::new();
    for &target in &cfg.sizes {
        let side = (target as f64).sqrt().round().max(2.0) as usize;
        let n = side * side;
        eprintln!("[scale] row {} (lattice {side}x{side})", size_label(n));
        let mut sssp = Vec::new();
        let mut methods = Vec::new();
        {
            let road = road_network(side, side, 1.05, 1.0, cfg.seed);
            sssp.push(measure_family("road", &road, cfg));
            for method in scale_methods(cfg) {
                methods.push(measure_method(&road, &method, cfg));
            }
        }
        {
            let hw = highway_network(side, side, 1.05, 25.min(side / 2).max(2), cfg.seed);
            sssp.push(measure_family("highway", &hw, cfg));
        }
        {
            let sf = scale_free(n, 2, cfg.seed);
            sssp.push(measure_family("scale_free", &sf, cfg));
        }
        rows.push(ScaleRow {
            label: size_label(n),
            nodes: n,
            sssp,
            methods,
        });
    }
    ScaleReport {
        parallel: spnet_core::PARALLEL_ENABLED,
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        config: cfg.clone(),
        rows,
    }
}

impl ScaleReport {
    /// The printable tables (SSSP sweeps + method rates).
    pub fn tables(&self) -> Vec<(String, Table)> {
        let mut sweep = Table::new(
            "Scale — full SSSP per frontier (min-of-N, per source)",
            &[
                "size",
                "family",
                "|V|",
                "|E|",
                "heap ms",
                "bucket ms",
                "speedup",
            ],
        );
        let mut rates = Table::new(
            "Scale — method build + serving rates (road family)",
            &["size", "method", "build s", "prove q/s", "verify q/s"],
        );
        for row in &self.rows {
            for s in &row.sssp {
                sweep.row(vec![
                    row.label.clone(),
                    s.family.clone(),
                    format!("{}", s.nodes),
                    format!("{}", s.edges),
                    fmt_f(s.heap_ms),
                    fmt_f(s.bucket_ms),
                    format!("{:.2}", s.speedup()),
                ]);
            }
            for m in &row.methods {
                rates.row(vec![
                    row.label.clone(),
                    m.method.clone(),
                    fmt_f(m.build_s),
                    fmt_f(m.prove_qps),
                    fmt_f(m.verify_qps),
                ]);
            }
        }
        vec![
            ("scale_sssp".into(), sweep),
            ("scale_methods".into(), rates),
        ]
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
        let _ = writeln!(s, "  \"schema\": \"spnet-scale/v1\",");
        let _ = writeln!(s, "  \"parallel\": {},", self.parallel);
        let _ = writeln!(s, "  \"threads\": {},", self.threads);
        let _ = writeln!(s, "  \"seed\": {},", self.config.seed);
        let _ = writeln!(s, "  \"queries\": {},", self.config.queries);
        let _ = writeln!(s, "  \"range\": {},", self.config.range);
        let _ = writeln!(s, "  \"landmarks\": {},", self.config.landmarks);
        let _ = writeln!(s, "  \"cells\": {},", self.config.cells);
        let _ = writeln!(s, "  \"sssp_sources\": {},", self.config.sssp_sources);
        let _ = writeln!(s, "  \"sssp_passes\": {},", self.config.sssp_passes);
        let _ = writeln!(
            s,
            "  \"full_excluded\": \"FULL precomputes an O(|V|^2) distance \
             matrix; at 100k+ nodes that is >= 10^10 entries and cannot be \
             built, so scale rows track DIJ/LDM/HYP only\","
        );
        let _ = writeln!(s, "  \"rows\": [");
        for (i, row) in self.rows.iter().enumerate() {
            let _ = writeln!(s, "    {{");
            let _ = writeln!(s, "      \"label\": \"{}\",", row.label);
            let _ = writeln!(s, "      \"nodes\": {},", row.nodes);
            let _ = writeln!(s, "      \"sssp\": [");
            for (j, f) in row.sssp.iter().enumerate() {
                let comma = if j + 1 < row.sssp.len() { "," } else { "" };
                let _ = writeln!(
                    s,
                    "        {{\"family\": \"{}\", \"nodes\": {}, \"edges\": {}, \
                     \"heap_ms\": {}, \"bucket_ms\": {}, \"speedup\": {}}}{}",
                    f.family,
                    f.nodes,
                    f.edges,
                    num(f.heap_ms),
                    num(f.bucket_ms),
                    num(f.speedup()),
                    comma
                );
            }
            let _ = writeln!(s, "      ],");
            let _ = writeln!(s, "      \"methods\": [");
            for (j, m) in row.methods.iter().enumerate() {
                let comma = if j + 1 < row.methods.len() { "," } else { "" };
                let _ = writeln!(
                    s,
                    "        {{\"method\": \"{}\", \"build_s\": {}, \
                     \"prove_qps\": {}, \"verify_qps\": {}}}{}",
                    m.method,
                    num(m.build_s),
                    num(m.prove_qps),
                    num(m.verify_qps),
                    comma
                );
            }
            let _ = writeln!(s, "      ]");
            let comma = if i + 1 < self.rows.len() { "," } else { "" };
            let _ = writeln!(s, "    }}{comma}");
        }
        let _ = writeln!(s, "  ]");
        let _ = writeln!(s, "}}");
        s
    }

    /// Writes `BENCH_scale.json` into `dir`.
    pub fn save_json(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        let path = dir.join("BENCH_scale.json");
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// Experiment entry point used by the `figures` binary: prints the
/// tables and writes `BENCH_scale.json` to the current directory.
pub fn scale(cfg: &crate::config::HarnessConfig) -> Vec<(String, Table)> {
    let report = run_scale(&ScaleConfig::from_env(cfg.seed));
    let tables = report.tables();
    for (_, t) in &tables {
        t.print();
    }
    match report.save_json(std::path::Path::new(".")) {
        Ok(path) => eprintln!("[scale] wrote {}", path.display()),
        Err(e) => eprintln!("[scale] could not write BENCH_scale.json: {e}"),
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_scale_run_is_sane() {
        let cfg = ScaleConfig {
            sizes: vec![2_500],
            sssp_sources: 1,
            sssp_passes: 1,
            queries: 2,
            range: 2_000.0,
            landmarks: 8,
            cells: 4,
            seed: 42,
        };
        let report = run_scale(&cfg);
        assert_eq!(report.rows.len(), 1);
        let row = &report.rows[0];
        assert_eq!(row.nodes, 2_500);
        assert_eq!(row.sssp.len(), 3);
        for f in &row.sssp {
            assert!(f.heap_ms > 0.0 && f.bucket_ms > 0.0, "{}", f.family);
        }
        assert_eq!(row.methods.len(), 3);
        for m in &row.methods {
            assert!(m.prove_qps > 0.0 && m.verify_qps > 0.0, "{}", m.method);
            assert_ne!(m.method, "FULL");
        }
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"spnet-scale/v1\""));
        assert!(json.contains("\"full_excluded\""));
        assert!(json.contains("\"scale_free\""));
    }

    #[test]
    fn size_labels() {
        assert_eq!(size_label(99_856), "100k");
        assert_eq!(size_label(1_000_000), "1m");
        assert_eq!(size_label(50_176), "50k");
    }
}
