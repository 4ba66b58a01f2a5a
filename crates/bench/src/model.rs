//! Proof-size estimation model — the paper's stated future direction
//! ("A promising future direction is to develop a model for estimating
//! the proof size for shortest path verification", Section VII).
//!
//! A first-order analytical model: it is fitted to a graph with a
//! handful of sampled Dijkstra runs (to learn the distance CDF and the
//! average tuple size), then predicts the communication overhead of
//! each method from closed-form expressions. The `figures model`
//! experiment validates predictions against measurements; accuracy
//! within a small factor is the goal — enough for an owner to choose a
//! method and parameters *before* committing to hint construction.
//!
//! Model summary (m = expected ΓS tuple count, n = |V|, f = fanout):
//!
//! * Dijkstra ball:  `m_DIJ(r) = n · CDF(r)` from the sampled distance
//!   distribution.
//! * LDM cone:       `m_LDM(r) = α · m_DIJ(r) + fringe`, α the
//!   bound-tightness factor (defaults to the paper's regime, can be
//!   calibrated with one probe query).
//! * HYP coarse set: `2 · n/p` cell tuples + `b²` hyper pairs with
//!   `b ≈ β·√(n/p)` border nodes per cell (2-D perimeter scaling).
//! * Merkle covers: proving `m` leaves forming `R ≈ κ·√m` contiguous
//!   runs (Hilbert locality of a 2-D region) costs approximately
//!   `(f−1) · R · log_f(n/R)` digests.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use spnet_graph::algo::dijkstra_sssp;
use spnet_graph::{Graph, NodeId};

/// Digest size in bytes (SHA-256).
const DIGEST_BYTES: f64 = 32.0;
/// Per-entry framing in Merkle proofs (level + index).
const ENTRY_OVERHEAD: f64 = 8.0;
/// Signed-root + signature overhead shipped per proof.
const SIGNED_ROOT_BYTES: f64 = 85.0;

/// Hilbert-locality run constant: a compact 2-D region of m nodes maps
/// to roughly κ·√m contiguous leaf runs.
const KAPPA_RUNS: f64 = 2.0;
/// Border scaling: borders per cell ≈ β·√(cell population) on sparse
/// planar networks.
const BETA_BORDER: f64 = 1.6;

/// A fitted proof-size model for one graph.
#[derive(Debug, Clone)]
pub struct SizeModel {
    n: f64,
    fanout: f64,
    /// Pooled sampled shortest-path distances (sorted).
    dist_samples: Vec<f64>,
    /// Mean encoded size of a base tuple (id, coords, adjacency).
    base_tuple_bytes: f64,
    /// Mean shortest-path hop length per unit distance.
    hops_per_unit: f64,
}

impl SizeModel {
    /// Fits the model with `samples` full Dijkstra runs from random
    /// sources.
    pub fn fit(g: &Graph, fanout: usize, samples: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = g.num_nodes();
        let mut dists = Vec::new();
        let mut hops_num = 0.0f64;
        let mut hops_den = 0.0f64;
        for _ in 0..samples.max(1) {
            let s = NodeId(rng.random_range(0..n as u32));
            let r = dijkstra_sssp(g, s);
            for v in g.nodes() {
                let d = r.dist[v.index()];
                if d.is_finite() && v != s {
                    dists.push(d);
                    if let Some(p) = r.path_to(v) {
                        hops_num += p.num_edges() as f64;
                        hops_den += d;
                    }
                }
            }
        }
        dists.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // Base tuple size: id(4) + coords(16) + deg·12 + 2 tag bytes + len(4).
        let avg_degree = 2.0 * g.num_edges() as f64 / n as f64;
        let base_tuple_bytes = 4.0 + 16.0 + 4.0 + avg_degree * 12.0 + 2.0;
        SizeModel {
            n: n as f64,
            fanout: fanout as f64,
            dist_samples: dists,
            base_tuple_bytes,
            hops_per_unit: if hops_den > 0.0 {
                hops_num / hops_den
            } else {
                0.0
            },
        }
    }

    /// Empirical CDF of shortest-path distances.
    pub fn cdf(&self, r: f64) -> f64 {
        if self.dist_samples.is_empty() {
            return 0.0;
        }
        let idx = self.dist_samples.partition_point(|&d| d <= r);
        idx as f64 / self.dist_samples.len() as f64
    }

    /// Expected Dijkstra-ball size at query range `r`.
    pub fn ball_nodes(&self, r: f64) -> f64 {
        (self.n * self.cdf(r)).max(2.0)
    }

    /// Expected reported-path hop count at range `r`.
    pub fn path_hops(&self, r: f64) -> f64 {
        (self.hops_per_unit * r).max(1.0)
    }

    /// Merkle cover bytes for proving `m` leaves out of `n`, assuming
    /// `R ≈ κ√m` contiguous runs.
    fn merkle_cover_bytes(&self, m: f64) -> f64 {
        if m <= 0.0 {
            return 0.0;
        }
        let runs = (KAPPA_RUNS * m.sqrt()).min(m).max(1.0);
        let f = self.fanout;
        let levels = (self.n / runs).max(f).log(f).max(1.0);
        (f - 1.0) * runs * levels * (DIGEST_BYTES + ENTRY_OVERHEAD)
    }

    /// One single-leaf Merkle path in a tree of `leaves`.
    fn single_path_bytes(&self, leaves: f64) -> f64 {
        let f = self.fanout;
        (f - 1.0) * leaves.max(f).log(f) * (DIGEST_BYTES + ENTRY_OVERHEAD)
    }

    /// Predicted DIJ communication overhead (bytes) at range `r`.
    pub fn predict_dij(&self, r: f64) -> f64 {
        let m = self.ball_nodes(r);
        m * self.base_tuple_bytes + self.merkle_cover_bytes(m) + SIGNED_ROOT_BYTES
    }

    /// Predicted FULL communication overhead (bytes) at range `r`.
    pub fn predict_full(&self, r: f64) -> f64 {
        let path = self.path_hops(r) + 1.0;
        let s = 24.0 + self.single_path_bytes(self.n) * 2.0 + SIGNED_ROOT_BYTES;
        let t = path * self.base_tuple_bytes + self.merkle_cover_bytes(path) + SIGNED_ROOT_BYTES;
        s + t
    }

    /// Predicted LDM communication overhead (bytes).
    ///
    /// * `c` landmarks at `bits` each; `share_full` of shipped tuples
    ///   carry full vectors (the rest are 12-byte references);
    /// * `alpha` — cone size as a fraction of the DIJ ball (bound
    ///   tightness; ≈ 0.2–0.3 in the saturated regime we measure, can
    ///   be calibrated with [`SizeModel::calibrate_ldm_alpha`]).
    pub fn predict_ldm(&self, r: f64, c: usize, bits: u8, share_full: f64, alpha: f64) -> f64 {
        let m = (alpha * self.ball_nodes(r)).max(2.0);
        let vec_bytes = (c as f64 * bits as f64 / 8.0).ceil() + 6.0;
        let psi = share_full * vec_bytes + (1.0 - share_full) * 13.0;
        m * (self.base_tuple_bytes + psi) + self.merkle_cover_bytes(m) + SIGNED_ROOT_BYTES
    }

    /// Predicted HYP communication overhead (bytes) with `p` cells at
    /// range `r`.
    pub fn predict_hyp(&self, r: f64, p: usize) -> f64 {
        let cell_pop = self.n / p as f64;
        let borders = (BETA_BORDER * cell_pop.sqrt()).min(cell_pop).max(1.0);
        let pairs = borders * borders;
        let cell_tuples = 2.0 * cell_pop;
        // Hyper tree: B(B−1)/2 leaves overall; the queried pairs form
        // ~`borders` runs.
        let total_borders = borders * p as f64;
        let hyper_leaves = (total_borders * total_borders / 2.0).max(2.0);
        let f = self.fanout;
        let hyper_cover = (f - 1.0)
            * borders.max(1.0)
            * (hyper_leaves / borders.max(1.0)).max(f).log(f)
            * (DIGEST_BYTES + ENTRY_OVERHEAD);
        let path_extra = (self.path_hops(r) - 2.0 * cell_pop.sqrt()).max(0.0);
        let m_t = cell_tuples + path_extra;
        cell_tuples * (self.base_tuple_bytes + 5.0)
            + pairs * 20.0
            + hyper_cover
            + path_extra * (self.base_tuple_bytes + 5.0)
            + self.merkle_cover_bytes(m_t)
            + self.single_path_bytes(p as f64) // cell directory
            + 3.0 * SIGNED_ROOT_BYTES
    }

    /// Calibrates the LDM `alpha` (cone / ball ratio) with one probe
    /// query against real hints.
    pub fn calibrate_ldm_alpha(
        &self,
        g: &Graph,
        hints: &spnet_core::methods::ldm::LdmHints,
        r: f64,
        seed: u64,
    ) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let wl = spnet_graph::workload::make_workload(g, r, 1, rng.random());
        let (s, t) = wl.pairs[0];
        let d = spnet_graph::algo::dijkstra_path(g, s, t)
            .expect("workload pairs reachable")
            .distance;
        let cone = spnet_core::methods::ldm::gamma_nodes(g, hints, s, t, d).len() as f64;
        (cone / self.ball_nodes(d)).clamp(0.01, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spnet_graph::gen::Dataset;

    fn model() -> (Graph, SizeModel) {
        let g = Dataset::De.generate(0.03, 1600);
        let m = SizeModel::fit(&g, 2, 3, 1601);
        (g, m)
    }

    #[test]
    fn cdf_is_monotone_and_bounded() {
        let (_, m) = model();
        let mut last = 0.0;
        for r in [0.0, 100.0, 500.0, 1000.0, 2000.0, 1e9] {
            let c = m.cdf(r);
            assert!((0.0..=1.0).contains(&c));
            assert!(c >= last);
            last = c;
        }
        assert_eq!(m.cdf(0.0), 0.0);
        assert!((m.cdf(1e12) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ball_grows_with_range() {
        let (_, m) = model();
        assert!(m.ball_nodes(2000.0) > m.ball_nodes(500.0));
    }

    #[test]
    fn predictions_positive_and_ordered() {
        let (_, m) = model();
        let r = 2000.0;
        let dij = m.predict_dij(r);
        let full = m.predict_full(r);
        assert!(dij > 0.0 && full > 0.0);
        // The model must reproduce the headline: DIJ ≫ FULL.
        assert!(dij > full, "model predicts DIJ {dij} ≤ FULL {full}");
    }

    #[test]
    fn hyp_prediction_decreases_with_cells() {
        let (_, m) = model();
        let few = m.predict_hyp(2000.0, 25);
        let many = m.predict_hyp(2000.0, 400);
        assert!(many < few, "{many} ≥ {few}");
    }

    #[test]
    fn ldm_prediction_grows_with_vector_payload() {
        let (_, m) = model();
        let small = m.predict_ldm(2000.0, 50, 12, 0.5, 0.25);
        let big = m.predict_ldm(2000.0, 800, 12, 0.5, 0.25);
        assert!(big > small);
    }

    #[test]
    fn prediction_within_factor_three_of_measurement_dij() {
        // End-to-end sanity: measured DIJ proof vs model prediction.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use spnet_core::methods::MethodConfig;
        use spnet_core::owner::{DataOwner, SetupConfig};
        use spnet_core::provider::ServiceProvider;
        let (g, m) = model();
        let mut rng = StdRng::seed_from_u64(1602);
        let p = DataOwner::publish(&g, &MethodConfig::Dij, &SetupConfig::default(), &mut rng);
        let provider = ServiceProvider::new(p.package);
        let wl = spnet_graph::workload::make_workload(&g, 2000.0, 5, 1603);
        let mut measured = 0.0;
        for &(s, t) in &wl.pairs {
            measured += provider.answer(&[(s, t)]).unwrap().stats().total_bytes() as f64;
        }
        measured /= wl.pairs.len() as f64;
        let predicted = m.predict_dij(2000.0);
        let ratio = predicted / measured;
        assert!(
            (0.33..=3.0).contains(&ratio),
            "prediction {predicted:.0} vs measured {measured:.0} (ratio {ratio:.2})"
        );
    }
}
