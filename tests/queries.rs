//! Integration and property tests of the verified query operators
//! (range / k-nearest-POI / distance matrix): agreement with
//! unverified reference recomputation, the completeness-tamper
//! quartet, and Mem/File backend bit-identity — all across the four
//! paper methods.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spnet_core::methods::{LdmConfig, MethodConfig};
use spnet_core::owner::{DataOwner, ProviderPackage, Published};
use spnet_core::prelude::*;
use spnet_crypto::rsa::RsaKeyPair;
use spnet_graph::algo::dijkstra_sssp;
use spnet_graph::gen::grid_network;
use spnet_graph::{Graph, NodeId};
use spnet_queries::wire::{decode_knn_answer, encode_knn_answer};
use spnet_queries::{PoiSet, QueryError, SessionQueries};
use std::sync::Arc;

fn all_methods() -> Vec<MethodConfig> {
    vec![
        MethodConfig::Dij,
        MethodConfig::Full {
            use_floyd_warshall: false,
        },
        MethodConfig::Ldm(LdmConfig {
            landmarks: 6,
            ..LdmConfig::default()
        }),
        MethodConfig::Hyp { cells: 9 },
    ]
}

struct Deployment {
    graph: Graph,
    published: Published,
    pois: PoiSet,
}

fn deploy(method: &MethodConfig, seed: u64) -> Deployment {
    let graph = grid_network(9, 9, 1.15, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xCAFE);
    let keypair = RsaKeyPair::generate(&mut rng, SetupConfig::default().rsa_bits);
    let published = DataOwner::publish_with_key(&graph, method, &SetupConfig::default(), &keypair);
    let pois = PoiSet::publish(
        &keypair,
        &[
            (NodeId(8), 1.0),
            (NodeId(40), 2.0),
            (NodeId(72), 3.0),
            (NodeId(80), 4.0),
            (NodeId(17), 5.0),
        ],
    )
    .unwrap();
    Deployment {
        graph,
        published,
        pois,
    }
}

fn open(dep: &Deployment) -> Session {
    SpService::builder()
        .package(dep.published.package.clone())
        .build()
        .open_session(Client::new(dep.published.public_key.clone()))
        .unwrap()
}

/// Unverified reference: the k nearest POIs by plain Dijkstra, ranked
/// by `(distance, node id)`.
fn reference_knn(
    g: &Graph,
    pois: &[(NodeId, f64)],
    source: NodeId,
    k: usize,
) -> Vec<(NodeId, f64)> {
    let sssp = dijkstra_sssp(g, source);
    let mut ranked: Vec<(NodeId, f64)> = pois
        .iter()
        .map(|&(v, _)| (v, sssp.distance_to(v)))
        .collect();
    ranked.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0 .0.cmp(&b.0 .0)));
    ranked.truncate(k);
    ranked
}

const POIS: [(NodeId, f64); 5] = [
    (NodeId(8), 1.0),
    (NodeId(40), 2.0),
    (NodeId(72), 3.0),
    (NodeId(80), 4.0),
    (NodeId(17), 5.0),
];

/// All three operators agree with unverified reference recomputation,
/// for every method, through the session facade.
#[test]
fn operators_match_reference_for_every_method() {
    for method in all_methods() {
        let dep = deploy(&method, 4200);
        let session = open(&dep);
        let name = method.name();

        // Range ≡ bounded reference.
        let source = NodeId(30);
        let radius = 3_500.0;
        let verified = session.query_range(source, radius).unwrap();
        let sssp = dijkstra_sssp(&dep.graph, source);
        let truth: Vec<(NodeId, f64)> = (0..dep.graph.num_nodes() as u32)
            .map(NodeId)
            .filter(|&v| sssp.distance_to(v) <= radius)
            .map(|v| (v, sssp.distance_to(v)))
            .collect();
        assert_eq!(verified.len(), truth.len(), "{name}: range cardinality");
        for (&(v, d), &(tv, td)) in verified.iter().zip(&truth) {
            assert_eq!(v, tv, "{name}: range member");
            assert!((d - td).abs() <= 1e-9 * td.max(1.0), "{name}: range dist");
        }

        // k-NN ≡ ranked reference, for every k.
        for k in [1u32, 3, 5] {
            let nearest = session.query_knn(&dep.pois, source, k).unwrap();
            let truth = reference_knn(&dep.graph, &POIS, source, k as usize);
            assert_eq!(nearest.len(), truth.len(), "{name}: k={k}");
            for (n, &(tv, td)) in nearest.iter().zip(&truth) {
                assert_eq!(n.node, tv, "{name}: k={k} ranking");
                assert!(
                    (n.distance - td).abs() <= 1e-9 * td.max(1.0),
                    "{name}: k={k} distance"
                );
            }
        }
        // Asking for more neighbours than POIs yields the whole set.
        assert_eq!(session.query_knn(&dep.pois, source, 99).unwrap().len(), 5);

        // Matrix ≡ per-pair reference, one-shot and streamed.
        let sources = [NodeId(0), NodeId(44), NodeId(80)];
        let targets = [NodeId(8), NodeId(72), NodeId(35), NodeId(60)];
        let m = session.query_matrix(&sources, &targets).unwrap();
        for (i, &s) in sources.iter().enumerate() {
            let sssp = dijkstra_sssp(&dep.graph, s);
            for (j, &t) in targets.iter().enumerate() {
                let td = sssp.distance_to(t);
                assert!(
                    (m.get(i, j) - td).abs() <= 1e-9 * td.max(1.0),
                    "{name}: cell ({i},{j})"
                );
            }
        }
        let mut streamed: Vec<(NodeId, Vec<f64>)> = Vec::new();
        session
            .stream_matrix_rows(&sources, &targets, &mut |s, row| {
                streamed.push((s, row.to_vec()));
            })
            .unwrap();
        assert_eq!(streamed.len(), sources.len(), "{name}: streamed rows");
        for (i, (s, row)) in streamed.iter().enumerate() {
            assert_eq!(*s, sources[i], "{name}: streamed row source");
            // Streamed rows are bit-identical to the one-shot matrix.
            for (j, d) in row.iter().enumerate() {
                assert_eq!(d.to_bits(), m.get(i, j).to_bits(), "{name}: streamed cell");
            }
        }
    }
}

/// The completeness-tamper quartet rejects with typed errors for every
/// method: dropped range member, shrunk radius, omitted k-th POI, and
/// a flipped matrix cell.
#[test]
fn tamper_quartet_rejected_for_every_method() {
    for method in all_methods() {
        let dep = deploy(&method, 4300);
        let session = open(&dep);
        let name = method.name();
        let source = NodeId(30);

        // (1) Drop one claimed range member.
        let radius = 4_000.0;
        let honest = session.answer_range(source, radius).unwrap();
        assert!(honest.num_members() > 2, "{name}: degenerate ball");
        let mut evil = honest.clone();
        let at = evil.members.len() / 2;
        evil.members.remove(at);
        evil.pool.remove(at);
        evil.integrity.positions.remove(at);
        assert!(
            session.verify_range(source, radius, &evil).is_err(),
            "{name}: dropped member must not verify"
        );

        // (2) Shrink the reported radius.
        let mut evil = honest.clone();
        evil.radius *= 0.5;
        assert!(
            matches!(
                session.verify_range(source, radius, &evil),
                Err(SessionError::Verify(
                    VerifyError::RangeRadiusMismatch { .. }
                ))
            ),
            "{name}: shrunk radius must fail typed"
        );

        // (3) Omit the k-th nearest POI from the directory proof.
        let honest_knn = session.answer_knn(&dep.pois, source, 3).unwrap();
        let ranked = session.verify_knn(source, 3, &honest_knn).unwrap();
        let kth = ranked[2].node;
        let mut evil = honest_knn.clone();
        let drop_at = evil
            .poi_proof
            .entries
            .iter()
            .position(|e| e.key == kth.0 as u64)
            .expect("k-th POI is in the proof run");
        evil.poi_proof.entries.remove(drop_at);
        let err = session.verify_knn(source, 3, &evil).unwrap_err();
        assert!(
            matches!(
                err,
                QueryError::Poi(_) | QueryError::PoiCountMismatch { .. }
            ),
            "{name}: omitted POI must fail typed, got {err}"
        );
        // …and omitting its distance from the batch instead.
        let mut evil = honest_knn.clone();
        evil.batch.queries.pop();
        assert!(
            session.verify_knn(source, 3, &evil).is_err(),
            "{name}: short batch must not verify"
        );

        // (4) Flip one matrix cell by doctoring its backing tuple.
        let sources = [NodeId(0), NodeId(44)];
        let targets = [NodeId(8), NodeId(72)];
        let honest_m = session.answer_matrix(&sources, &targets).unwrap();
        let mut evil = honest_m.clone();
        Arc::make_mut(&mut evil.batch.pool[0]).adj[0].1 *= 0.5;
        assert!(
            matches!(
                session.verify_matrix(&sources, &targets, &evil),
                Err(QueryError::Session(SessionError::Verify(
                    VerifyError::RootMismatch
                )))
            ),
            "{name}: flipped cell tuple must fail with RootMismatch"
        );
        // …and remapping the echoed rows.
        let mut evil = honest_m.clone();
        evil.sources.swap(0, 1);
        assert!(
            matches!(
                session.verify_matrix(&sources, &targets, &evil),
                Err(QueryError::MatrixShapeMismatch(_))
            ),
            "{name}: remapped rows must fail typed"
        );
    }
}

/// Verified range and k-NN results are bit-identical between a freshly
/// published provider and Mem/File cold-started replicas.
#[test]
fn backends_serve_bit_identical_query_results() {
    for method in all_methods() {
        let dep = deploy(&method, 4400);
        let name = method.name();
        let dir =
            std::env::temp_dir().join(format!("spnet-queries-{}-{}", name, std::process::id()));
        dep.published.save_snapshot(&dir).unwrap();
        dep.pois.save(&dir).unwrap();

        let source = NodeId(30);
        let radius = 3_500.0;
        let fresh = open(&dep);
        let want_range = fresh.query_range(source, radius).unwrap();
        let want_knn = fresh.query_knn(&dep.pois, source, 3).unwrap();

        for backend in [StoreBackend::Mem, StoreBackend::File] {
            let loaded = ProviderPackage::load_snapshot(&dir, backend).unwrap();
            let (pois, _store) = PoiSet::load(&dir, backend).unwrap();
            let session = SpService::builder()
                .package(loaded.package)
                .build()
                .open_session(Client::new(dep.published.public_key.clone()))
                .unwrap();
            let got_range = session.query_range(source, radius).unwrap();
            assert_eq!(got_range.len(), want_range.len(), "{name}/{backend:?}");
            for (w, g) in want_range.iter().zip(&got_range) {
                assert_eq!(w.0, g.0, "{name}/{backend:?}: member");
                assert_eq!(w.1.to_bits(), g.1.to_bits(), "{name}/{backend:?}: dist");
            }
            let got_knn = session.query_knn(&pois, source, 3).unwrap();
            assert_eq!(got_knn.len(), want_knn.len(), "{name}/{backend:?}");
            for (w, g) in want_knn.iter().zip(&got_knn) {
                assert_eq!(w.node, g.node, "{name}/{backend:?}: poi");
                assert_eq!(
                    w.distance.to_bits(),
                    g.distance.to_bits(),
                    "{name}/{backend:?}: poi dist"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized agreement: range and k-NN match unverified reference
    /// recomputation on random grids, sources, radii and k — and a
    /// wire round trip never changes the verified result (DIJ and HYP
    /// exercise the two aux-free/aux-bearing generic paths cheaply).
    #[test]
    fn randomized_range_and_knn_match_reference(
        seed in 0u64..2000,
        src in 0u32..36,
        radius in 0.0f64..6000.0,
        k in 1u32..6,
        hyp in 0u32..2,
    ) {
        let method = if hyp == 1 { MethodConfig::Hyp { cells: 4 } } else { MethodConfig::Dij };
        let graph = grid_network(6, 6, 1.15, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        let keypair = RsaKeyPair::generate(&mut rng, SetupConfig::default().rsa_bits);
        let published =
            DataOwner::publish_with_key(&graph, &method, &SetupConfig::default(), &keypair);
        let poi_items = [(NodeId(3), 1.0), (NodeId(20), 2.0), (NodeId(35), 3.0)];
        let pois = PoiSet::publish(&keypair, &poi_items).unwrap();
        let session = SpService::builder().package(published.package).build()
            .open_session(Client::new(published.public_key))
            .unwrap();
        let source = NodeId(src);

        let verified = session.query_range(source, radius).unwrap();
        let sssp = dijkstra_sssp(&graph, source);
        let truth: Vec<NodeId> = (0..36u32)
            .map(NodeId)
            .filter(|&v| sssp.distance_to(v) <= radius)
            .collect();
        prop_assert_eq!(verified.len(), truth.len());
        for (&(v, d), &tv) in verified.iter().zip(&truth) {
            prop_assert_eq!(v, tv);
            let td = sssp.distance_to(tv);
            prop_assert!((d - td).abs() <= 1e-9 * td.max(1.0));
        }

        let answer = session.answer_knn(&pois, source, k).unwrap();
        let decoded = decode_knn_answer(&encode_knn_answer(&answer)).unwrap();
        let nearest = session.verify_knn(source, k, &decoded).unwrap();
        let truth = reference_knn(&graph, &poi_items, source, k as usize);
        prop_assert_eq!(nearest.len(), truth.len());
        for (n, &(tv, td)) in nearest.iter().zip(&truth) {
            prop_assert_eq!(n.node, tv);
            prop_assert!((n.distance - td).abs() <= 1e-9 * td.max(1.0));
        }
    }
}
