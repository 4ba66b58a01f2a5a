//! Dynamic-update integration tests: randomized update sequences must
//! converge to exactly the state a fresh publish of the final graph
//! would produce (bit-identical roots and proofs), the incremental
//! snapshot refresh must round-trip through both store backends, and
//! MVCC sessions must drain across owner updates.
//!
//! Determinism argument these tests pin down: every repaired entry is
//! recomputed by the same SSSP (same float summation order) a fresh
//! build would run, and every clean entry is a deterministic function
//! of the graph bits — so after any update sequence the provider's
//! authenticated state is byte-for-byte the fresh-publish state, and
//! the deterministic RSA signatures match too.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use spnet_core::methods::{LdmConfig, MethodConfig};
use spnet_core::owner::DataOwner;
use spnet_core::prelude::*;
use spnet_core::snapshot::{load_package, update_snapshot, SnapshotRefresh};
use spnet_core::update::update_edge_weight;
use spnet_crypto::rsa::RsaKeyPair;
use spnet_graph::algo::dijkstra_path;
use spnet_graph::gen::grid_network;
use spnet_graph::landmark::LandmarkStrategy;
use spnet_graph::{Graph, NodeId};
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spnet-churn-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// All four methods, configured for bit-identity under updates: FULL
/// repairs rows with Dijkstra (so no Floyd–Warshall float ordering),
/// LDM selects landmarks weight-independently (`Random`) so a fresh
/// publish of the updated graph picks the same set.
fn all_methods() -> Vec<MethodConfig> {
    vec![
        MethodConfig::Dij,
        MethodConfig::Full {
            use_floyd_warshall: false,
        },
        MethodConfig::Ldm(LdmConfig {
            landmarks: 6,
            strategy: LandmarkStrategy::Random,
            ..LdmConfig::default()
        }),
        MethodConfig::Hyp { cells: 9 },
    ]
}

/// `n` random positive weight updates, applied identically to the
/// package (incremental repair) and to a plain graph (ground truth).
fn random_updates(
    pkg: &mut spnet_core::owner::ProviderPackage,
    truth: &mut Graph,
    kp: &RsaKeyPair,
    n: usize,
    seed: u64,
) {
    let edges: Vec<(NodeId, NodeId, f64)> = truth.edges().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..n {
        let (u, v, _) = edges[rng.random_range(0..edges.len())];
        let w = rng.random_range(0.05f64..8.0);
        update_edge_weight(pkg, kp, u, v, w).unwrap();
        truth.set_edge_weight(u, v, w).unwrap();
    }
}

/// Byte-level equality of two packages' authenticated state: network
/// root (digest + signature + signed metadata) and every auxiliary
/// signed root.
fn assert_signed_state_eq(
    a: &spnet_core::owner::ProviderPackage,
    b: &spnet_core::owner::ProviderPackage,
    ctx: &str,
) {
    assert_eq!(a.network_root, b.network_root, "{ctx}: network root");
    let (ra, rb) = (a.hints.aux_roots(), b.hints.aux_roots());
    assert_eq!(ra.len(), rb.len(), "{ctx}: aux root count");
    for (x, y) in ra.iter().zip(&rb) {
        assert_eq!(*x, *y, "{ctx}: aux root");
    }
}

const PROBES: [(u32, u32); 4] = [(0, 80), (8, 72), (40, 41), (80, 0)];

/// The tentpole property: N random in-place updates ≡ a fresh publish
/// of the final graph, for every method — same signed roots (deter-
/// ministic RSA over identical digests) and verifying answers with
/// the fresh-publish truth.
#[test]
fn update_sequences_match_fresh_publish_bit_for_bit() {
    for seed in [31u64, 32, 33] {
        let g = grid_network(9, 9, 1.15, 4400 + seed);
        let kp = {
            let mut rng = StdRng::seed_from_u64(4500 + seed);
            RsaKeyPair::generate(&mut rng, 256)
        };
        for method in all_methods() {
            let p = DataOwner::publish_with_key(&g, &method, &SetupConfig::default(), &kp);
            let mut pkg = p.package;
            let mut truth = g.clone();
            random_updates(&mut pkg, &mut truth, &kp, 4, 9000 + seed);
            let fresh = DataOwner::publish_with_key(&truth, &method, &SetupConfig::default(), &kp);
            assert_signed_state_eq(&pkg, &fresh.package, method.name());
            // And the updated provider serves verifying answers with
            // the final graph's distances.
            let client = Client::new(kp.public_key().clone());
            let provider = ServiceProvider::new(pkg);
            for &(s, t) in &PROBES {
                let (s, t) = (NodeId(s), NodeId(t));
                let a = provider.answer(&[(s, t)]).unwrap();
                let v = client.verify(&[(s, t)], &a).unwrap();
                let want = dijkstra_path(&truth, s, t).unwrap().distance;
                assert!(
                    (v[0] - want).abs() <= 1e-6 * want.max(1.0),
                    "{}: updated provider must serve the new truth",
                    method.name()
                );
            }
        }
    }
}

/// Incremental snapshot refresh: updates + [`update_snapshot`] leave a
/// file that loads (both backends) to exactly the updated package's
/// signed state — and the refresh takes the in-place path, rewriting
/// only a fraction of the file's pages.
#[test]
fn incremental_snapshot_refresh_round_trips_both_backends() {
    for method in all_methods() {
        let g = grid_network(9, 9, 1.15, 4600);
        let kp = {
            let mut rng = StdRng::seed_from_u64(4601);
            RsaKeyPair::generate(&mut rng, 256)
        };
        let p = DataOwner::publish_with_key(&g, &method, &SetupConfig::default(), &kp);
        let dir = tmpdir(&format!("refresh-{}", method.name()));
        spnet_core::snapshot::save_package(&p, &dir).unwrap();

        let mut pkg = p.package;
        let mut truth = g.clone();
        random_updates(&mut pkg, &mut truth, &kp, 3, 4602);
        let refresh = update_snapshot(&pkg, kp.public_key(), &dir).unwrap();
        match refresh {
            SnapshotRefresh::InPlace(stats) => {
                assert!(
                    stats.sections_rewritten > 0,
                    "{}: an update must dirty something",
                    method.name()
                );
                assert!(
                    stats.sections_rewritten < stats.sections_total,
                    "{}: clean sections (public key, node order) must \
                     be skipped ({} of {} rewritten)",
                    method.name(),
                    stats.sections_rewritten,
                    stats.sections_total
                );
                let file_len = std::fs::metadata(dir.join(spnet_core::snapshot::SNAPSHOT_FILE))
                    .unwrap()
                    .len();
                assert!(
                    stats.bytes_written < file_len,
                    "{}: in-place refresh must write less than the \
                     whole file ({} of {} bytes)",
                    method.name(),
                    stats.bytes_written,
                    file_len
                );
            }
            SnapshotRefresh::FullRewrite => {
                panic!("{}: expected the in-place path", method.name())
            }
        }

        for backend in [StoreBackend::Mem, StoreBackend::File] {
            let loaded = load_package(&dir, backend).unwrap();
            assert_signed_state_eq(&loaded.package, &pkg, method.name());
            let client = Client::new(loaded.public_key.clone());
            let provider = ServiceProvider::new(loaded.package);
            for &(s, t) in &PROBES {
                let (s, t) = (NodeId(s), NodeId(t));
                let a = provider.answer(&[(s, t)]).unwrap();
                let v = client.verify(&[(s, t)], &a).unwrap();
                let want = dijkstra_path(&truth, s, t).unwrap().distance;
                assert!(
                    (v[0] - want).abs() <= 1e-6 * want.max(1.0),
                    "{}: reloaded provider serves the updated truth",
                    method.name()
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A reloaded package stays updatable: load → update → update_snapshot
/// → reload keeps converging on the fresh-publish state. (This is the
/// restart-with-churn lifecycle; LDM rebuilds its owner-side exact
/// cache on the first post-load repair.)
#[test]
fn reloaded_packages_accept_further_updates() {
    for method in all_methods() {
        let g = grid_network(9, 9, 1.15, 4700);
        let kp = {
            let mut rng = StdRng::seed_from_u64(4701);
            RsaKeyPair::generate(&mut rng, 256)
        };
        let p = DataOwner::publish_with_key(&g, &method, &SetupConfig::default(), &kp);
        let dir = tmpdir(&format!("reload-{}", method.name()));
        spnet_core::snapshot::save_package(&p, &dir).unwrap();

        let mut loaded = load_package(&dir, StoreBackend::Mem).unwrap();
        let mut truth = g.clone();
        random_updates(&mut loaded.package, &mut truth, &kp, 2, 4702);
        update_snapshot(&loaded.package, kp.public_key(), &dir).unwrap();

        let fresh = DataOwner::publish_with_key(&truth, &method, &SetupConfig::default(), &kp);
        let reloaded = load_package(&dir, StoreBackend::Mem).unwrap();
        assert_signed_state_eq(&reloaded.package, &fresh.package, method.name());
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// MVCC acceptance: a session (and stream) opened before an update
/// drains on its pinned epoch without [`SessionError::EpochInvalidated`],
/// while a session opened after verifies against the new root.
#[test]
fn sessions_survive_updates_on_their_pinned_epoch() {
    let g = grid_network(9, 9, 1.15, 4800);
    let kp = {
        let mut rng = StdRng::seed_from_u64(4801);
        RsaKeyPair::generate(&mut rng, 256)
    };
    let p = DataOwner::publish_with_key(&g, &MethodConfig::Dij, &SetupConfig::default(), &kp);
    let service = SpService::builder().package(p.package).build();
    let client = Client::new(kp.public_key().clone());

    let old_truth = dijkstra_path(&g, NodeId(0), NodeId(80)).unwrap().distance;
    let pinned = service.open_session(client.clone()).unwrap();
    let queries: Vec<(NodeId, NodeId)> = PROBES
        .iter()
        .map(|&(s, t)| (NodeId(s), NodeId(t)))
        .collect();
    let mut stream = pinned.query_stream_chunked(&queries, 1);
    let first = stream.next().unwrap().unwrap();
    assert_eq!(first.len(), 1);

    // Owner re-weights the first shortest-path edge mid-stream.
    let path = dijkstra_path(&g, NodeId(0), NodeId(80)).unwrap();
    let (u, v) = (path.nodes[0], path.nodes[1]);
    assert_eq!(service.update_edge_weight(&kp, u, v, 500.0).unwrap(), 1);

    // The pinned session's stream completes on its original epoch...
    let rest: Vec<_> = stream
        .collect::<Result<Vec<_>, _>>()
        .expect("pre-update stream drains on its pinned epoch")
        .into_iter()
        .flatten()
        .collect();
    assert_eq!(first.len() + rest.len(), queries.len());
    // ...still answering with the pre-update truth.
    let a = pinned
        .query_batch(&[(NodeId(0), NodeId(80))])
        .unwrap()
        .remove(0);
    assert_eq!(a.distance.to_bits(), old_truth.to_bits());

    // A post-update session binds epoch 1 and the new truth.
    let mut g2 = g.clone();
    g2.set_edge_weight(u, v, 500.0).unwrap();
    let new_truth = dijkstra_path(&g2, NodeId(0), NodeId(80)).unwrap().distance;
    assert!((new_truth - old_truth).abs() > 1e-9);
    let fresh = service.open_session(client).unwrap();
    assert_eq!(fresh.epoch(), 1);
    let b = fresh
        .query_batch(&[(NodeId(0), NodeId(80))])
        .unwrap()
        .remove(0);
    assert_eq!(b.distance.to_bits(), new_truth.to_bits());
}

/// A snapshot-backed service shard refreshes its file in place after a
/// service-level update, and a cold restart from that file serves the
/// updated network.
#[test]
fn service_refreshes_snapshot_after_update() {
    let g = grid_network(9, 9, 1.15, 4900);
    let kp = {
        let mut rng = StdRng::seed_from_u64(4901);
        RsaKeyPair::generate(&mut rng, 256)
    };
    let p = DataOwner::publish_with_key(&g, &MethodConfig::Dij, &SetupConfig::default(), &kp);
    let dir = tmpdir("service-refresh");
    spnet_core::snapshot::save_package(&p, &dir).unwrap();

    let service = SpService::builder()
        .snapshot(&dir, StoreBackend::Mem)
        .unwrap()
        .threads(0)
        .build();
    let path = dijkstra_path(&g, NodeId(0), NodeId(80)).unwrap();
    let (u, v) = (path.nodes[0], path.nodes[1]);
    service.update_edge_weight(&kp, u, v, 500.0).unwrap();
    let refresh = service.refresh_shard_snapshot(0, kp.public_key()).unwrap();
    assert!(matches!(refresh, SnapshotRefresh::InPlace(_)));

    // Cold restart from the refreshed file serves the new truth.
    let restarted = SpService::builder()
        .snapshot(&dir, StoreBackend::Mem)
        .unwrap()
        .threads(0)
        .build();
    let session = restarted
        .open_session(Client::new(kp.public_key().clone()))
        .unwrap();
    let mut g2 = g.clone();
    g2.set_edge_weight(u, v, 500.0).unwrap();
    let want = dijkstra_path(&g2, NodeId(0), NodeId(80)).unwrap().distance;
    let a = session
        .query_batch(&[(NodeId(0), NodeId(80))])
        .unwrap()
        .remove(0);
    assert_eq!(a.distance.to_bits(), want.to_bits());
    std::fs::remove_dir_all(&dir).ok();
}
