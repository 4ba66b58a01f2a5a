//! Property-based tests (proptest) on the protocol's core invariants:
//! Merkle round-trips under arbitrary shapes, landmark bound chains
//! (Theorem 1 / Lemma 3 / Lemma 4), Lemma 1 containment, and
//! end-to-end verification on randomized graphs and queries.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spnet_core::methods::{LdmConfig, MethodConfig};
use spnet_core::owner::{DataOwner, SetupConfig};
use spnet_core::provider::ServiceProvider;
use spnet_core::{Client, SpService};
use spnet_crypto::digest::hash_bytes;
use spnet_crypto::merkle::MerkleTree;
use spnet_graph::algo::{apsp_dijkstra, dijkstra_ball, dijkstra_path, dijkstra_sssp};
use spnet_graph::gen::grid_network;
use spnet_graph::landmark::{
    select_landmarks, CompressedVectors, CompressionStrategy, LandmarkStrategy, LandmarkVectors,
    QuantizedVectors,
};
use spnet_graph::NodeId;
use std::collections::BTreeSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Merkle proofs round-trip for arbitrary (leaf count, fanout,
    /// proven subset) combinations.
    #[test]
    fn merkle_round_trip(
        n in 1usize..200,
        fanout in 2usize..9,
        picks in prop::collection::vec(0usize..200, 1..12),
    ) {
        let leaves: Vec<_> = (0..n as u64).map(|i| hash_bytes(&i.to_le_bytes())).collect();
        let tree = MerkleTree::build(leaves.clone(), fanout).unwrap();
        let set: BTreeSet<usize> = picks.into_iter().map(|p| p % n).collect();
        let proof = tree.prove(set.clone()).unwrap();
        let pairs: Vec<_> = set.iter().map(|&i| (i, leaves[i])).collect();
        prop_assert_eq!(proof.reconstruct_root(&pairs).unwrap(), tree.root());
    }

    /// Tampering any single proven leaf digest must change the
    /// reconstructed root.
    #[test]
    fn merkle_tamper_detected(
        n in 2usize..100,
        fanout in 2usize..6,
        pick in 0usize..100,
        flip_byte in 0usize..32,
    ) {
        let leaves: Vec<_> = (0..n as u64).map(|i| hash_bytes(&i.to_le_bytes())).collect();
        let tree = MerkleTree::build(leaves.clone(), fanout).unwrap();
        let idx = pick % n;
        let proof = tree.prove([idx].into_iter().collect()).unwrap();
        let mut forged = leaves[idx];
        forged.0[flip_byte] ^= 0x01;
        let root = proof.reconstruct_root(&[(idx, forged)]).unwrap();
        prop_assert_ne!(root, tree.root());
    }

    /// The landmark bound chain holds on random grids:
    /// compressed ≤ loose ≤ exact ≤ true distance (Theorem 1, Lemmas
    /// 3 and 4).
    #[test]
    fn landmark_bound_chain(
        seed in 0u64..5000,
        c in 2usize..8,
        bits in 3u8..14,
        xi in 0.0f64..2000.0,
    ) {
        let g = grid_network(6, 6, 1.15, seed);
        let lms = select_landmarks(&g, c, LandmarkStrategy::Random, seed ^ 1);
        let lv = LandmarkVectors::compute(&g, &lms);
        let qv = QuantizedVectors::quantize(&lv, bits);
        let cv = CompressedVectors::build(&g, &qv, xi, CompressionStrategy::HilbertSweep);
        let apsp = apsp_dijkstra(&g);
        for u in 0..g.num_nodes() {
            for v in 0..g.num_nodes() {
                let (u_, v_) = (NodeId(u as u32), NodeId(v as u32));
                let exact = lv.lower_bound(u_, v_);
                let loose = qv.loose_lower_bound(u_, v_);
                let comp = cv.lower_bound(u_, v_);
                prop_assert!(comp <= loose + 1e-9, "Lemma 4: {comp} > {loose}");
                prop_assert!(loose <= exact + 1e-9, "Lemma 3: {loose} > {exact}");
                prop_assert!(exact <= apsp.get(u, v) + 1e-9, "Theorem 1");
            }
        }
    }

    /// Lemma 1: the Dijkstra ball of radius dist(vs,vt) suffices to
    /// recompute the exact distance on the subgraph it induces.
    #[test]
    fn lemma1_ball_containment(seed in 0u64..5000, s in 0u32..64, t in 0u32..64) {
        prop_assume!(s != t);
        let g = grid_network(8, 8, 1.15, seed);
        let d = dijkstra_path(&g, NodeId(s), NodeId(t)).unwrap().distance;
        let ball = dijkstra_ball(&g, NodeId(s), d * (1.0 + 1e-9));
        // Restrict the graph to ball nodes and re-run SSSP: distance to
        // t must be preserved.
        let inside: BTreeSet<u32> = (0..64u32)
            .filter(|&v| ball.dist[v as usize].is_finite())
            .collect();
        prop_assert!(inside.contains(&t));
        // Build the induced subgraph.
        let mut b = spnet_graph::GraphBuilder::new();
        let mut remap = std::collections::HashMap::new();
        for &v in &inside {
            let (x, y) = g.coords(NodeId(v));
            remap.insert(v, b.add_node(x, y));
        }
        for (u, v, w) in g.edges() {
            if let (Some(&ru), Some(&rv)) = (remap.get(&u.0), remap.get(&v.0)) {
                b.add_edge(ru, rv, w).unwrap();
            }
        }
        let sub = b.build();
        let sub_d = dijkstra_path(&sub, remap[&s], remap[&t]).unwrap().distance;
        prop_assert!((sub_d - d).abs() <= 1e-9 * d.max(1.0));
    }

    /// End-to-end randomized verification: random grid, random query,
    /// random method — the honest answer always verifies to the true
    /// optimum.
    #[test]
    fn randomized_end_to_end(
        seed in 0u64..1000,
        s in 0u32..49,
        t in 0u32..49,
        method_idx in 0usize..4,
    ) {
        let g = grid_network(7, 7, 1.2, seed);
        prop_assume!(s != t);
        let method = match method_idx {
            0 => MethodConfig::Dij,
            1 => MethodConfig::Full { use_floyd_warshall: false },
            2 => MethodConfig::Ldm(LdmConfig { landmarks: 6, ..LdmConfig::default() }),
            _ => MethodConfig::Hyp { cells: 9 },
        };
        let mut rng = StdRng::seed_from_u64(seed ^ 0xE2E);
        let p = DataOwner::publish(&g, &method, &SetupConfig::default(), &mut rng);
        let client = Client::new(p.public_key);
        let provider = ServiceProvider::new(p.package);
        let answer = provider.answer(&[(NodeId(s), NodeId(t))]).unwrap();
        let v = client.verify(&[(NodeId(s), NodeId(t))], &answer).unwrap();
        let truth = dijkstra_path(&g, NodeId(s), NodeId(t)).unwrap().distance;
        prop_assert!((v[0] - truth).abs() <= 1e-6 * truth.max(1.0));
    }

    /// SSSP distances satisfy the triangle inequality over edges
    /// (certificate of Dijkstra correctness on random graphs).
    #[test]
    fn dijkstra_edge_relaxation_invariant(seed in 0u64..5000) {
        let g = grid_network(9, 9, 1.2, seed);
        let r = dijkstra_sssp(&g, NodeId(0));
        for (u, v, w) in g.edges() {
            let (du, dv) = (r.dist[u.index()], r.dist[v.index()]);
            prop_assert!(dv <= du + w + 1e-9, "edge ({u},{v}) violates relaxation");
            prop_assert!(du <= dv + w + 1e-9, "edge ({v},{u}) violates relaxation");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Wire round-trip: any honest answer encodes and decodes to an
    /// identical, still-verifying answer.
    #[test]
    fn wire_round_trip_random(seed in 0u64..500, s in 0u32..36, t in 0u32..36, m in 0usize..4) {
        prop_assume!(s != t);
        let g = grid_network(6, 6, 1.2, seed);
        let method = match m {
            0 => MethodConfig::Dij,
            1 => MethodConfig::Full { use_floyd_warshall: false },
            2 => MethodConfig::Ldm(LdmConfig { landmarks: 4, ..LdmConfig::default() }),
            _ => MethodConfig::Hyp { cells: 4 },
        };
        let mut rng = StdRng::seed_from_u64(seed ^ 0x31E);
        let p = DataOwner::publish(&g, &method, &SetupConfig::default(), &mut rng);
        let client = Client::new(p.public_key);
        let provider = ServiceProvider::new(p.package);
        let answer = provider.answer(&[(NodeId(s), NodeId(t))]).unwrap();
        let bytes = spnet_core::wire::encode_batch_answer(&answer);
        let back = spnet_core::wire::decode_batch_answer(&bytes).unwrap();
        prop_assert_eq!(&back, &answer);
        prop_assert!(client.verify(&[(NodeId(s), NodeId(t))], &back).is_ok());
    }

    /// Batched answers agree with individual answers on every query,
    /// for every method, and survive a wire round trip.
    #[test]
    fn batch_matches_individual(seed in 0u64..500, method_idx in 0usize..4) {
        let method = match method_idx {
            0 => MethodConfig::Dij,
            1 => MethodConfig::Full { use_floyd_warshall: false },
            2 => MethodConfig::Ldm(LdmConfig { landmarks: 6, ..LdmConfig::default() }),
            _ => MethodConfig::Hyp { cells: 4 },
        };
        let g = grid_network(7, 7, 1.2, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBA7C);
        let p = DataOwner::publish(&g, &method, &SetupConfig::default(), &mut rng);
        let client = Client::new(p.public_key);
        // Batches are served and verified through the session facade.
        let service = SpService::builder().package(p.package).build();
        let session = service.open_session(client).unwrap();
        let queries = [(NodeId(0), NodeId(48)), (NodeId(1), NodeId(47)), (NodeId(6), NodeId(42))];
        let batch = session.answer_batch(&queries).unwrap();
        let back = spnet_core::wire::decode_batch_answer(
            &spnet_core::wire::encode_batch_answer(&batch),
        ).unwrap();
        prop_assert_eq!(&back, &batch);
        let batched = session.verify_batch(&queries, &back).unwrap();
        for (&(s, t), d) in queries.iter().zip(&batched) {
            let single = session.query_batch(&[(s, t)]).unwrap().remove(0);
            prop_assert!((single.distance - d).abs() <= 1e-9 * d.max(1.0), "{}", method.name());
        }
    }

    /// Incremental edge updates keep the ADS equal to a full rebuild
    /// and keep answers verifiable.
    #[test]
    fn update_keeps_system_sound(seed in 0u64..300, edge_idx in 0usize..50, wmul in 0.1f64..10.0) {
        let g = grid_network(6, 6, 1.2, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0DD);
        let kp = spnet_crypto::rsa::RsaKeyPair::generate(&mut rng, 128);
        let p = DataOwner::publish(&g, &MethodConfig::Dij, &SetupConfig::default(), &mut rng);
        let mut package = p.package;
        let meta = package.network_root.meta.clone();
        package.network_root = spnet_core::ads::SignedRoot::sign(&kp, package.ads.root(), meta);
        let client = Client::new(kp.public_key().clone());
        let edges: Vec<_> = package.graph.edges().collect();
        let (u, v, w) = edges[edge_idx % edges.len()];
        spnet_core::update::update_edge_weight(&mut package, &kp, u, v, w * wmul).unwrap();
        let provider = ServiceProvider::new(package);
        let answer = provider.answer(&[(NodeId(0), NodeId(35))]).unwrap();
        let verified = client.verify(&[(NodeId(0), NodeId(35))], &answer).unwrap();
        let truth = dijkstra_path(&provider.package().graph, NodeId(0), NodeId(35)).unwrap().distance;
        prop_assert!((verified[0] - truth).abs() <= 1e-6 * truth.max(1.0));
    }

    /// Snapshot persistence: a provider cold-started from disk — on
    /// either store backend — produces **byte-identical** answers to
    /// the freshly built provider, for every method and random query.
    #[test]
    fn snapshot_proof_bytes_identical_across_backends(
        seed in 0u64..200,
        m in 0usize..4,
        s in 0u32..36,
        t in 0u32..36,
    ) {
        prop_assume!(s != t);
        let g = grid_network(6, 6, 1.2, seed);
        let method = match m {
            0 => MethodConfig::Dij,
            1 => MethodConfig::Full { use_floyd_warshall: false },
            2 => MethodConfig::Ldm(LdmConfig { landmarks: 4, ..LdmConfig::default() }),
            _ => MethodConfig::Hyp { cells: 4 },
        };
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5A9);
        let p = DataOwner::publish(&g, &method, &SetupConfig::default(), &mut rng);
        let dir = std::env::temp_dir().join(
            format!("spnet-prop-snap-{seed}-{m}-{}", std::process::id()),
        );
        p.save_snapshot(&dir).unwrap();
        let fresh = ServiceProvider::new(p.package);
        let want = spnet_core::wire::encode_batch_answer(
            &fresh.answer(&[(NodeId(s), NodeId(t))]).unwrap(),
        );
        for backend in [spnet_core::StoreBackend::Mem, spnet_core::StoreBackend::File] {
            let loaded = spnet_core::load_package(&dir, backend).unwrap();
            let cold = ServiceProvider::new(loaded.package);
            let got = spnet_core::wire::encode_batch_answer(
                &cold.answer(&[(NodeId(s), NodeId(t))]).unwrap(),
            );
            prop_assert_eq!(&got, &want, "{} {:?}", method.name(), backend);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Graph file I/O round-trips arbitrary generated networks
    /// bit-exactly (digest-critical).
    #[test]
    fn graph_io_round_trip(seed in 0u64..500, rows in 2usize..8, cols in 2usize..8) {
        let g = grid_network(rows, cols, 1.2, seed);
        let path = std::env::temp_dir().join(format!("spnet_prop_{seed}_{rows}_{cols}.graph"));
        spnet_graph::io::save_graph(&g, &path).unwrap();
        let back = spnet_graph::io::load_graph(&path).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(back.num_nodes(), g.num_nodes());
        prop_assert_eq!(back.num_edges(), g.num_edges());
        for ((u1, v1, w1), (u2, v2, w2)) in g.edges().zip(back.edges()) {
            prop_assert_eq!((u1, v1), (u2, v2));
            prop_assert_eq!(w1.to_bits(), w2.to_bits());
        }
    }
}
