//! Measurement runner: publish → workload → prove → verify, timed.

use crate::config::HarnessConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spnet_core::methods::MethodConfig;
use spnet_core::owner::{DataOwner, SetupConfig};
use spnet_core::proof::ProofStats;
use spnet_core::provider::ServiceProvider;
use spnet_core::Client;
use spnet_graph::workload::make_workload;
use spnet_graph::Graph;
use std::time::Instant;

/// Aggregated measurements for one (method, graph, workload) cell.
#[derive(Debug, Clone)]
pub struct MethodMeasurement {
    /// Method display name.
    pub method: String,
    /// Offline construction time of hints + ADS (seconds).
    pub construction_s: f64,
    /// Mean proof statistics over the workload.
    pub stats: ProofStats,
    /// Mean proof-generation latency per query (milliseconds).
    pub gen_ms: f64,
    /// Mean client verification latency per query (milliseconds).
    pub verify_ms: f64,
    /// Number of queries measured.
    pub queries: usize,
}

impl MethodMeasurement {
    /// Communication overhead in KBytes (the Figure 8a/9a/… metric).
    pub fn total_kb(&self) -> f64 {
        self.stats.total_kbytes()
    }

    /// S-prf KBytes.
    pub fn s_kb(&self) -> f64 {
        self.stats.s_bytes as f64 / 1024.0
    }

    /// T-prf KBytes.
    pub fn t_kb(&self) -> f64 {
        self.stats.t_bytes as f64 / 1024.0
    }
}

/// Runs one method over one workload on `graph`.
///
/// Panics if any honest answer fails verification — the harness
/// doubles as an end-to-end correctness check.
pub fn run_method(graph: &Graph, method: &MethodConfig, cfg: &HarnessConfig) -> MethodMeasurement {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xBE7C);
    let setup = SetupConfig {
        ordering: cfg.ordering,
        fanout: cfg.fanout,
        seed: cfg.seed,
        ..SetupConfig::default()
    };
    let published = DataOwner::publish(graph, method, &setup, &mut rng);
    let construction_s = published.construction_seconds;
    let client = Client::new(published.public_key.clone());
    let provider = ServiceProvider::new(published.package);

    let workload = make_workload(graph, cfg.range, cfg.queries, cfg.seed ^ 0x0111);
    let mut total = ProofStats::default();
    let mut gen_s = 0.0;
    let mut verify_s = 0.0;
    for &(s, t) in &workload.pairs {
        let t0 = Instant::now();
        let answer = provider
            .answer(&[(s, t)])
            .expect("workload pairs are reachable");
        gen_s += t0.elapsed().as_secs_f64();
        total.add(&answer.stats());
        if cfg.verify {
            let t1 = Instant::now();
            let v = client
                .verify(&[(s, t)], &answer)
                .unwrap_or_else(|e| panic!("{}: honest answer rejected: {e}", method.name()))[0];
            verify_s += t1.elapsed().as_secs_f64();
            let reported = answer.queries[0].path.distance;
            assert!(
                (v - reported).abs() <= 1e-6 * v.max(1.0),
                "verified distance mismatch"
            );
        }
    }
    let q = workload.pairs.len();
    MethodMeasurement {
        method: method.name().to_string(),
        construction_s,
        stats: total.scale_down(q),
        gen_ms: gen_s * 1000.0 / q as f64,
        verify_ms: verify_s * 1000.0 / q as f64,
        queries: q,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spnet_graph::gen::grid_network;

    #[test]
    fn run_method_produces_sane_measurements() {
        let g = grid_network(10, 10, 1.15, 2024);
        let cfg = HarnessConfig {
            queries: 5,
            range: 3000.0,
            landmarks: 8,
            cells: 9,
            ..HarnessConfig::default()
        };
        for method in cfg.all_methods() {
            let m = run_method(&g, &method, &cfg);
            assert_eq!(m.queries, 5);
            assert!(m.total_kb() > 0.0, "{}", m.method);
            assert!(m.construction_s >= 0.0);
            assert!(m.gen_ms >= 0.0 && m.verify_ms >= 0.0);
        }
    }
}
