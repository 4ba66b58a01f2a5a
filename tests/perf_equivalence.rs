//! Equivalence guarantees for the PR-1 performance overhaul:
//!
//! 1. The reused-workspace Dijkstra is **bit-identical** (distances,
//!    parents, reconstructed paths) to the seed's fresh-allocation
//!    reference implementation, across random geometric and grid
//!    graphs, radii, and interleaved reuse.
//! 2. Batched proving/verification — which fans out over threads when
//!    the default `parallel` feature is on — agrees exactly with
//!    proving and verifying each query as a batch of one. (CI
//!    additionally runs this file with
//!    `--no-default-features`, so parallel and sequential builds are
//!    both pinned to the same observable results.)
//! 3. The calibrated bucket-queue frontier introduced for million-node
//!    scale is **bit-identical** to the 4-ary heap on distances,
//!    parents, and settle counts — both forced explicitly, across
//!    random geometric, scale-free, and grid graphs, and on degenerate
//!    weight ranges where graph calibration falls back to the heap.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spnet_core::methods::{LdmConfig, MethodConfig};
use spnet_core::owner::{DataOwner, SetupConfig};
use spnet_core::provider::ServiceProvider;
use spnet_core::Client;
use spnet_graph::algo::dijkstra::reference;
use spnet_graph::gen::{grid_network, random_geometric, scale_free};
use spnet_graph::search::SearchWorkspace;
use spnet_graph::{FrontierKind, Graph, GraphBuilder, NodeId};

fn graph_for(family: usize, seed: u64) -> Graph {
    match family % 3 {
        0 => grid_network(9, 9, 1.2, seed),
        1 => grid_network(5, 13, 1.05, seed),
        _ => random_geometric(70, 3, seed),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Workspace SSSP equals the reference bit-for-bit, including when
    /// one workspace is reused across several sources and graphs.
    #[test]
    fn workspace_sssp_bit_identical(
        family in 0usize..3,
        seed in 0u64..4000,
        sources in prop::collection::vec(0usize..65, 1..5),
    ) {
        let g = graph_for(family, seed);
        let mut ws = SearchWorkspace::new();
        for &raw in &sources {
            let s = NodeId((raw % g.num_nodes()) as u32);
            let want = reference::sssp(&g, s);
            let got = ws.sssp(&g, s);
            for v in g.nodes() {
                prop_assert_eq!(
                    got.dist(v).to_bits(),
                    want.dist[v.index()].to_bits(),
                    "dist({}, {})", s, v
                );
                prop_assert_eq!(got.parent(v), want.parent[v.index()], "parent({})", v);
            }
        }
    }

    /// Bounded balls agree bit-for-bit (the Lemma 1 subgraph must be
    /// the exact same node set either way).
    #[test]
    fn workspace_ball_bit_identical(
        family in 0usize..3,
        seed in 0u64..4000,
        source in 0usize..65,
        radius in 0.0f64..6000.0,
    ) {
        let g = graph_for(family, seed);
        let s = NodeId((source % g.num_nodes()) as u32);
        let want = reference::ball(&g, s, radius);
        let mut ws = SearchWorkspace::new();
        let got = ws.ball(&g, s, radius);
        for v in g.nodes() {
            prop_assert_eq!(
                got.dist(v).to_bits(),
                want.dist[v.index()].to_bits(),
                "radius {}, node {}", radius, v
            );
            prop_assert_eq!(
                got.settled(v),
                want.dist[v.index()].is_finite(),
                "settled({})", v
            );
        }
    }

    /// Point-to-point searches return the same path, distance bits and
    /// reachability verdicts.
    #[test]
    fn workspace_path_bit_identical(
        family in 0usize..3,
        seed in 0u64..4000,
        s in 0usize..65,
        t in 0usize..65,
    ) {
        let g = graph_for(family, seed);
        let s = NodeId((s % g.num_nodes()) as u32);
        let t = NodeId((t % g.num_nodes()) as u32);
        let mut ws = SearchWorkspace::new();
        match (reference::path(&g, s, t), ws.path(&g, s, t)) {
            (Ok(want), Ok(got)) => {
                prop_assert_eq!(&got.nodes, &want.nodes);
                prop_assert_eq!(got.distance.to_bits(), want.distance.to_bits());
                let d = ws.distance(&g, s, t).unwrap();
                prop_assert_eq!(d.to_bits(), want.distance.to_bits());
            }
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "reachability disagreement: {:?} vs {:?}", a, b),
        }
    }

    /// Forced bucket-queue and 4-ary-heap frontiers settle the same
    /// nodes with the same distance bits and parents, on full SSSPs
    /// and bounded balls alike.
    #[test]
    fn frontier_kinds_bit_identical(
        family in 0usize..3,
        seed in 0u64..4000,
        source in 0usize..65,
        bounded in 0usize..2,
        radius in 0.0f64..6000.0,
    ) {
        let g = match family {
            0 => random_geometric(70, 3, seed),
            1 => scale_free(90, 2, seed),
            _ => grid_network(6, 11, 1.1, seed),
        };
        prop_assert_eq!(g.frontier_kind(), FrontierKind::Bucket);
        let s = NodeId((source % g.num_nodes()) as u32);
        let mut wh = SearchWorkspace::new();
        let mut wb = SearchWorkspace::new();
        let radius = (bounded == 1).then_some(radius);
        let (h, b) = match radius {
            Some(r) => (
                wh.ball_with_frontier(&g, s, r, FrontierKind::Heap),
                wb.ball_with_frontier(&g, s, r, FrontierKind::Bucket),
            ),
            None => (
                wh.sssp_with_frontier(&g, s, FrontierKind::Heap),
                wb.sssp_with_frontier(&g, s, FrontierKind::Bucket),
            ),
        };
        let mut settled = (0usize, 0usize);
        for v in g.nodes() {
            prop_assert_eq!(
                h.dist(v).to_bits(),
                b.dist(v).to_bits(),
                "dist({}, {})", s, v
            );
            prop_assert_eq!(h.parent(v), b.parent(v), "parent({})", v);
            settled.0 += h.settled(v) as usize;
            settled.1 += b.settled(v) as usize;
        }
        prop_assert_eq!(settled.0, settled.1, "settle counts");
    }

    /// Degenerate weight ranges (a zero-weight edge) calibrate to the
    /// heap fallback — and even a force-selected bucket queue stays
    /// exact on them.
    #[test]
    fn degenerate_weights_fall_back_to_heap_and_stay_exact(
        seed in 0u64..4000,
        n in 6usize..40,
        source in 0usize..40,
    ) {
        // A ring whose even-indexed edges weigh zero: min_weight == 0,
        // so per-graph calibration must refuse the bucket queue.
        let mut builder = GraphBuilder::new();
        for i in 0..n {
            builder.add_node(i as f64, seed as f64 % 97.0);
        }
        for i in 0..n {
            let w = if i % 2 == 0 { 0.0 } else { 1.0 + (i as f64) / 7.0 };
            builder
                .add_edge(NodeId(i as u32), NodeId(((i + 1) % n) as u32), w)
                .unwrap();
        }
        let g = builder.build();
        prop_assert_eq!(g.frontier_kind(), FrontierKind::Heap);
        let s = NodeId((source % n) as u32);
        let want = reference::sssp(&g, s);
        let mut wh = SearchWorkspace::new();
        let mut wb = SearchWorkspace::new();
        let h = wh.sssp_with_frontier(&g, s, FrontierKind::Heap);
        let b = wb.sssp_with_frontier(&g, s, FrontierKind::Bucket);
        for v in g.nodes() {
            prop_assert_eq!(h.dist(v).to_bits(), want.dist[v.index()].to_bits());
            prop_assert_eq!(b.dist(v).to_bits(), want.dist[v.index()].to_bits());
            prop_assert_eq!(h.parent(v), b.parent(v));
        }
    }

    /// A k-query batch (parallel by default) proves and verifies
    /// exactly what k batches of one do — paths, Γ and distances, bit
    /// for bit — for **all four methods**.
    #[test]
    fn batch_agrees_with_single_query_path(seed in 0u64..400, method_idx in 0usize..4) {
        let method = match method_idx {
            0 => MethodConfig::Dij,
            1 => MethodConfig::Full { use_floyd_warshall: false },
            2 => MethodConfig::Ldm(LdmConfig { landmarks: 6, ..LdmConfig::default() }),
            _ => MethodConfig::Hyp { cells: 9 },
        };
        let g = grid_network(7, 7, 1.2, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9A8);
        let p = DataOwner::publish(&g, &method, &SetupConfig::default(), &mut rng);
        let client = Client::new(p.public_key);
        let provider = ServiceProvider::new(p.package);
        let queries = [
            (NodeId(0), NodeId(48)),
            (NodeId(3), NodeId(45)),
            (NodeId(21), NodeId(27)),
            (NodeId(48), NodeId(0)),
        ];
        let b1 = provider.answer(&queries).unwrap();
        let b2 = provider.answer(&queries).unwrap();
        prop_assert_eq!(&b1, &b2, "batch answers must be deterministic");
        let batched = client.verify(&queries, &b1).unwrap();
        for (qi, (&q, &bd)) in queries.iter().zip(&batched).enumerate() {
            let single = provider.answer(&[q]).unwrap();
            let sd = client.verify(&[q], &single).unwrap()[0];
            prop_assert_eq!(sd.to_bits(), bd.to_bits(), "{} {:?}", method.name(), q);
            prop_assert_eq!(&single.queries[0].path, &b1.queries[qi].path);
            // The batch pool slice of this query is exactly the batch
            // of one's pool (same Γ either way).
            let single_ids: Vec<NodeId> = single.pool.iter().map(|tu| tu.id).collect();
            let batch_ids: Vec<NodeId> = b1.queries[qi]
                .members
                .iter()
                .map(|&i| b1.pool[i as usize].id)
                .collect();
            prop_assert_eq!(batch_ids, single_ids, "{} {:?}", method.name(), q);
        }
    }
}
