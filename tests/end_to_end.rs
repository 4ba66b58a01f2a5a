//! End-to-end integration tests: owner → provider → client across all
//! four methods, multiple graph families, and a full query workload.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spnet_core::methods::{LdmConfig, MethodConfig};
use spnet_core::owner::{DataOwner, SetupConfig};
use spnet_core::provider::ServiceProvider;
use spnet_core::Client;
use spnet_graph::algo::dijkstra_path;
use spnet_graph::gen::{grid_network, Dataset};
use spnet_graph::order::NodeOrdering;
use spnet_graph::workload::make_workload;
use spnet_graph::{Graph, NodeId};

fn all_methods() -> Vec<MethodConfig> {
    vec![
        MethodConfig::Dij,
        MethodConfig::Full {
            use_floyd_warshall: false,
        },
        MethodConfig::Ldm(LdmConfig {
            landmarks: 16,
            ..LdmConfig::default()
        }),
        MethodConfig::Hyp { cells: 16 },
    ]
}

fn run_workload(g: &Graph, method: &MethodConfig, setup: &SetupConfig, seed: u64, queries: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let p = DataOwner::publish(g, method, setup, &mut rng);
    let client = Client::new(p.public_key);
    let provider = ServiceProvider::new(p.package);
    let workload = make_workload(g, 3000.0, queries, seed ^ 9);
    for &(s, t) in &workload.pairs {
        let answer = provider.answer(&[(s, t)]).unwrap();
        let v = client
            .verify(&[(s, t)], &answer)
            .unwrap_or_else(|e| panic!("{} ({s},{t}): {e}", method.name()));
        // The verified optimum must equal the true shortest distance.
        let truth = dijkstra_path(g, s, t).unwrap().distance;
        assert!(
            (v[0] - truth).abs() <= 1e-6 * truth.max(1.0),
            "{} ({s},{t}): verified {} vs true {}",
            method.name(),
            v[0],
            truth
        );
    }
}

#[test]
fn workload_on_grid_all_methods() {
    let g = grid_network(14, 14, 1.15, 2001);
    for method in all_methods() {
        run_workload(&g, &method, &SetupConfig::default(), 2002, 12);
    }
}

#[test]
fn workload_on_scaled_dataset_all_methods() {
    let g = Dataset::De.generate(0.01, 2003); // ~290 nodes
    for method in all_methods() {
        run_workload(&g, &method, &SetupConfig::default(), 2004, 8);
    }
}

#[test]
fn every_ordering_works_end_to_end() {
    let g = grid_network(10, 10, 1.15, 2005);
    for ordering in spnet_graph::order::ALL_ORDERINGS {
        let setup = SetupConfig {
            ordering,
            ..SetupConfig::default()
        };
        run_workload(&g, &MethodConfig::Dij, &setup, 2006, 5);
    }
}

#[test]
fn every_fanout_works_end_to_end() {
    let g = grid_network(10, 10, 1.15, 2007);
    for fanout in [2usize, 4, 8, 16, 32] {
        let setup = SetupConfig {
            fanout,
            ..SetupConfig::default()
        };
        run_workload(&g, &MethodConfig::Hyp { cells: 9 }, &setup, 2008, 5);
    }
}

#[test]
fn adjacent_and_identical_queries() {
    let g = grid_network(8, 8, 1.15, 2009);
    for method in all_methods() {
        let mut rng = StdRng::seed_from_u64(2010);
        let p = DataOwner::publish(&g, &method, &SetupConfig::default(), &mut rng);
        let client = Client::new(p.public_key);
        let provider = ServiceProvider::new(p.package);
        // Adjacent nodes: single-edge path.
        let s = NodeId(0);
        let t = g.neighbors(s).next().unwrap().0;
        let a = provider.answer(&[(s, t)]).unwrap();
        let v = client.verify(&[(s, t)], &a).unwrap();
        assert!(v[0] > 0.0);
        assert_eq!(a.queries[0].path.num_edges(), 1, "{}", method.name());
    }
}

#[test]
fn long_range_queries_cross_many_cells() {
    // HYP with fine-grained cells: intermediate cells on the path are
    // covered by the fine proof, not shipped as full cells.
    let g = grid_network(16, 16, 1.2, 2011);
    let mut rng = StdRng::seed_from_u64(2012);
    let p = DataOwner::publish(
        &g,
        &MethodConfig::Hyp { cells: 64 },
        &SetupConfig::default(),
        &mut rng,
    );
    let client = Client::new(p.public_key);
    let provider = ServiceProvider::new(p.package);
    let (s, t) = (NodeId(0), NodeId(255)); // opposite corners
    let answer = provider.answer(&[(s, t)]).unwrap();
    let v = client.verify(&[(s, t)], &answer).unwrap();
    let truth = dijkstra_path(&g, s, t).unwrap().distance;
    assert!((v[0] - truth).abs() <= 1e-6 * truth);
    // The path crosses many cells, so fine tuples outside the source
    // and target cells must be pooled.
    let cell = |v: NodeId| answer.pool.iter().find(|tp| tp.id == v).unwrap().cell;
    let (cs, ct) = (cell(s), cell(t));
    assert!(
        answer.pool.iter().any(|tp| tp.cell != cs && tp.cell != ct),
        "corner-to-corner path should traverse intermediate cells"
    );
}

#[test]
fn full_with_floyd_warshall_small_graph() {
    let g = grid_network(7, 7, 1.15, 2013);
    run_workload(
        &g,
        &MethodConfig::Full {
            use_floyd_warshall: true,
        },
        &SetupConfig::default(),
        2014,
        5,
    );
}

#[test]
fn ldm_greedy_compression_end_to_end() {
    let g = grid_network(8, 8, 1.15, 2015);
    let method = MethodConfig::Ldm(LdmConfig {
        landmarks: 8,
        bits: 10,
        xi: 100.0,
        strategy: spnet_graph::landmark::LandmarkStrategy::Random,
        compression: spnet_graph::landmark::CompressionStrategy::GreedyExact,
    });
    run_workload(&g, &method, &SetupConfig::default(), 2016, 5);
}

#[test]
fn non_hilbert_default_still_sound() {
    let g = grid_network(9, 9, 1.15, 2017);
    let setup = SetupConfig {
        ordering: NodeOrdering::Random,
        ..SetupConfig::default()
    };
    for method in all_methods() {
        run_workload(&g, &method, &setup, 2018, 4);
    }
}
