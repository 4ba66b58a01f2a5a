//! Adversarial integration tests: every attack in the tamper module,
//! against every method, across several graphs and query shapes; plus
//! handcrafted proof-manipulation attacks below the `Attack` API.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spnet_core::batch::BatchAux;
use spnet_core::methods::{LdmConfig, MethodConfig};
use spnet_core::owner::{DataOwner, SetupConfig};
use spnet_core::provider::ServiceProvider;
use spnet_core::tamper::{apply, Attack, ALL_ATTACKS};
use spnet_core::{Client, VerifyError};
use spnet_graph::gen::grid_network;
use spnet_graph::{Graph, GraphBuilder, NodeId, Path};

fn methods() -> Vec<MethodConfig> {
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

fn deploy(g: &Graph, method: &MethodConfig, seed: u64) -> (ServiceProvider, Client) {
    let mut rng = StdRng::seed_from_u64(seed);
    let p = DataOwner::publish(g, method, &SetupConfig::default(), &mut rng);
    (ServiceProvider::new(p.package), Client::new(p.public_key))
}

#[test]
fn all_attacks_rejected_everywhere() {
    let g = grid_network(12, 12, 1.2, 4001);
    let queries = [(0u32, 143u32), (5, 138), (72, 71)];
    for method in methods() {
        let (provider, client) = deploy(&g, &method, 4002);
        for &(s, t) in &queries {
            let (s, t) = (NodeId(s), NodeId(t));
            let honest = provider.answer(&[(s, t)]).unwrap();
            client.verify(&[(s, t)], &honest).expect("honest accepted");
            for attack in ALL_ATTACKS {
                if let Some(evil) = apply(attack, &g, &honest) {
                    assert!(
                        client.verify(&[(s, t)], &evil).is_err(),
                        "{} ({s},{t}): {attack:?} undetected",
                        method.name()
                    );
                }
            }
        }
    }
}

#[test]
fn replayed_proof_for_other_query_rejected() {
    let g = grid_network(10, 10, 1.2, 4003);
    for method in methods() {
        let (provider, client) = deploy(&g, &method, 4004);
        let honest = provider.answer(&[(NodeId(0), NodeId(99))]).unwrap();
        assert!(
            client.verify(&[(NodeId(0), NodeId(98))], &honest).is_err(),
            "{}: replay accepted",
            method.name()
        );
        assert!(
            client.verify(&[(NodeId(1), NodeId(99))], &honest).is_err(),
            "{}: replay accepted",
            method.name()
        );
    }
}

#[test]
fn swapped_integrity_positions_rejected() {
    let g = grid_network(10, 10, 1.2, 4005);
    let (provider, client) = deploy(&g, &MethodConfig::Dij, 4006);
    let mut evil = provider.answer(&[(NodeId(0), NodeId(99))]).unwrap();
    if evil.integrity.positions.len() >= 2 {
        evil.integrity.positions.swap(0, 1);
        let err = client
            .verify(&[(NodeId(0), NodeId(99))], &evil)
            .unwrap_err();
        assert!(
            matches!(
                err,
                VerifyError::RootMismatch | VerifyError::MalformedIntegrityProof(_)
            ),
            "{err:?}"
        );
    }
}

#[test]
fn truncated_merkle_proof_rejected() {
    let g = grid_network(10, 10, 1.2, 4007);
    let (provider, client) = deploy(&g, &MethodConfig::Dij, 4008);
    let mut evil = provider.answer(&[(NodeId(0), NodeId(99))]).unwrap();
    // Drop a sibling digest; when the ball covers every leaf the proof
    // carries none, so drop a proven leaf position instead — either way
    // the proof is missing material it claimed to have.
    if evil.integrity.merkle.entries.pop().is_none() {
        evil.integrity.positions.pop();
    }
    assert!(client.verify(&[(NodeId(0), NodeId(99))], &evil).is_err());
}

#[test]
fn foreign_signed_root_rejected() {
    // A provider serving data signed by some other (legitimate) owner
    // must still fail against this client's trusted key.
    let g = grid_network(8, 8, 1.2, 4009);
    let (provider_a, client_a) = deploy(&g, &MethodConfig::Dij, 4010);
    let (provider_b, _client_b) = deploy(&g, &MethodConfig::Dij, 4011);
    let honest_a = provider_a.answer(&[(NodeId(0), NodeId(63))]).unwrap();
    let honest_b = provider_b.answer(&[(NodeId(0), NodeId(63))]).unwrap();
    // Splice B's signed root into A's otherwise-valid answer.
    let mut franken = honest_a.clone();
    franken.integrity.signed_root = honest_b.integrity.signed_root.clone();
    assert!(client_a
        .verify(&[(NodeId(0), NodeId(63))], &franken)
        .is_err());
}

#[test]
fn full_distance_forgery_rejected() {
    let g = grid_network(9, 9, 1.2, 4012);
    let (provider, client) = deploy(
        &g,
        &MethodConfig::Full {
            use_floyd_warshall: false,
        },
        4013,
    );
    let q = [(NodeId(0), NodeId(80))];
    let mut evil = provider.answer(&q).unwrap();
    if let BatchAux::Full { proof, .. } = &mut evil.aux {
        proof.rows[0].entries[0].value *= 0.5; // claim the optimum is shorter
    }
    let err = client.verify(&q, &evil).unwrap_err();
    assert!(matches!(err, VerifyError::RootMismatch), "{err:?}");
}

#[test]
fn hyp_hyper_edge_forgery_rejected() {
    let g = grid_network(12, 12, 1.2, 4014);
    let (provider, client) = deploy(&g, &MethodConfig::Hyp { cells: 16 }, 4015);
    let q = [(NodeId(0), NodeId(143))];
    let mut evil = provider.answer(&q).unwrap();
    if let BatchAux::Hyp { hyper, .. } = &mut evil.aux {
        if !hyper.entries.is_empty() {
            hyper.entries[0].value *= 3.0; // inflate a crossing distance
        }
    }
    let err = client.verify(&q, &evil).unwrap_err();
    assert!(
        matches!(
            err,
            VerifyError::RootMismatch | VerifyError::MalformedIntegrityProof(_)
        ),
        "{err:?}"
    );
}

#[test]
fn hyp_dropped_cell_node_rejected() {
    let g = grid_network(12, 12, 1.2, 4016);
    let (provider, client) = deploy(&g, &MethodConfig::Hyp { cells: 16 }, 4017);
    let (s, t) = (NodeId(0), NodeId(143));
    let mut evil = provider.answer(&[(s, t)]).unwrap();
    // Drop a non-endpoint tuple of the source cell from the query's Γ.
    let cell_of = |id: NodeId| {
        let tp = evil.pool.iter().find(|tp| tp.id == id).unwrap();
        tp.cell.map(|c| c.cell)
    };
    let idx = evil.queries[0]
        .members
        .iter()
        .position(|&i| {
            let id = evil.pool[i as usize].id;
            id != s && id != t && cell_of(id) == cell_of(s)
        })
        .expect("source cell has more than its endpoint");
    evil.queries[0].members.remove(idx);
    assert!(client.verify(&[(s, t)], &evil).is_err());
}

#[test]
fn ldm_psi_strip_rejected() {
    let g = grid_network(10, 10, 1.2, 4018);
    let method = MethodConfig::Ldm(LdmConfig {
        landmarks: 12,
        ..LdmConfig::default()
    });
    let (provider, client) = deploy(&g, &method, 4019);
    let q = [(NodeId(0), NodeId(99))];
    let mut evil = provider.answer(&q).unwrap();
    for tp in evil.pool.iter_mut() {
        // Pooled tuples are shared handles; copy-on-write to tamper.
        std::sync::Arc::make_mut(tp).psi = None; // strip all landmark payloads
    }
    // Digests change ⇒ root mismatch (strip-and-rehash is impossible
    // without the owner's key).
    let err = client.verify(&q, &evil).unwrap_err();
    assert!(matches!(err, VerifyError::RootMismatch), "{err:?}");
}

#[test]
fn attack_on_longer_paths_still_detected() {
    let g = grid_network(16, 16, 1.25, 4020);
    let (provider, client) = deploy(&g, &MethodConfig::Dij, 4021);
    let q = [(NodeId(0), NodeId(255))];
    let honest = provider.answer(&q).unwrap();
    let evil = apply(Attack::SuboptimalPath, &g, &honest);
    if let Some(evil) = evil {
        assert!(client.verify(&q, &evil).is_err());
    }
}

#[test]
fn near_tie_detour_rejected_for_every_method() {
    // s—a—t is the optimum (2000); s—b—t is longer by 0.001, far below
    // the old relative slack of 1e-6. Swapping in the detour, with its
    // true length, must fail as not shortest for every method.
    let mut b = GraphBuilder::new();
    let s = b.add_node(0.0, 0.0);
    let a = b.add_node(1.0, 1.0);
    let m = b.add_node(1.0, -1.0);
    let t = b.add_node(2.0, 0.0);
    b.add_edge(s, a, 1000.0).unwrap();
    b.add_edge(a, t, 1000.0).unwrap();
    b.add_edge(s, m, 1000.0).unwrap();
    b.add_edge(m, t, 1000.001).unwrap();
    let g = b.build();
    let methods = [
        MethodConfig::Dij,
        MethodConfig::Full {
            use_floyd_warshall: false,
        },
        MethodConfig::Ldm(LdmConfig {
            landmarks: 2,
            ..LdmConfig::default()
        }),
        MethodConfig::Hyp { cells: 4 },
    ];
    for method in methods {
        let (provider, client) = deploy(&g, &method, 4022);
        let q = [(s, t)];
        let honest = provider.answer(&q).unwrap();
        assert_eq!(honest.queries[0].path.nodes, vec![s, a, t]);
        assert_eq!(client.verify(&q, &honest).unwrap(), vec![2000.0]);
        let mut evil = honest.clone();
        evil.queries[0].path = Path {
            nodes: vec![s, m, t],
            distance: 1000.0 + 1000.001,
        };
        let err = client.verify(&q, &evil).unwrap_err();
        assert!(
            matches!(
                err,
                VerifyError::NotShortest { .. } | VerifyError::MissingTuple(_)
            ),
            "{}: near-tie detour not rejected: {err:?}",
            method.name()
        );
    }
}

#[test]
fn wire_mutation_fuzz_never_verifies_wrongly() {
    // Byte-level adversary: mutate the encoded answer at every offset
    // (stride-sampled) with several corruption patterns. Every mutant
    // must either fail to decode, fail to verify, or decode to an
    // answer that still proves the SAME distance (benign mutations of
    // non-load-bearing bytes cannot exist in this canonical format,
    // but equal-distance acceptance is the sound criterion).
    use spnet_core::wire::{decode_batch_answer, encode_batch_answer};
    let g = grid_network(8, 8, 1.2, 4100);
    let (provider, client) = deploy(&g, &MethodConfig::Dij, 4101);
    let q = [(NodeId(0), NodeId(63))];
    let honest = provider.answer(&q).unwrap();
    let truth = honest.queries[0].path.distance;
    let bytes = encode_batch_answer(&honest);
    let mut mutants_checked = 0usize;
    let stride = (bytes.len() / 200).max(1);
    for i in (0..bytes.len()).step_by(stride) {
        for pattern in [0x01u8, 0x80, 0xFF] {
            let mut evil = bytes.clone();
            evil[i] ^= pattern;
            mutants_checked += 1;
            let Ok(decoded) = decode_batch_answer(&evil) else {
                continue; // rejected at decode — fine
            };
            match client.verify(&q, &decoded) {
                Err(_) => {} // rejected at verify — fine
                Ok(v) => assert!(
                    (v[0] - truth).abs() <= 1e-6 * truth.max(1.0),
                    "mutant at byte {i} pattern {pattern:#x} verified a wrong distance"
                ),
            }
        }
    }
    assert!(mutants_checked >= 300, "fuzz coverage too thin");
}

#[test]
fn truncation_fuzz_never_panics() {
    use spnet_core::wire::{decode_batch_answer, encode_batch_answer};
    let g = grid_network(7, 7, 1.2, 4102);
    let (provider, _) = deploy(&g, &MethodConfig::Hyp { cells: 9 }, 4103);
    let honest = provider.answer(&[(NodeId(0), NodeId(48))]).unwrap();
    let bytes = encode_batch_answer(&honest);
    for cut in (0..bytes.len()).step_by((bytes.len() / 100).max(1)) {
        // Must return an error, not panic.
        assert!(decode_batch_answer(&bytes[..cut]).is_err() || cut == bytes.len());
    }
}
