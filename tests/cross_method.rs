//! Cross-method consistency: all four methods must prove the same
//! optimum for the same query, and their proof-size ordering must
//! match the paper's headline result (Fig. 8a) on a mid-size network.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spnet_core::methods::{LdmConfig, MethodConfig};
use spnet_core::owner::{DataOwner, SetupConfig};
use spnet_core::proof::ProofStats;
use spnet_core::provider::ServiceProvider;
use spnet_core::Client;
use spnet_graph::gen::grid_network;
use spnet_graph::workload::make_workload;
use spnet_graph::{Graph, NodeId};

struct Deployment {
    provider: ServiceProvider,
    client: Client,
    name: &'static str,
}

fn deploy(g: &Graph, seed: u64) -> Vec<Deployment> {
    let methods: Vec<(MethodConfig, &'static str)> = vec![
        (MethodConfig::Dij, "DIJ"),
        (
            MethodConfig::Full {
                use_floyd_warshall: false,
            },
            "FULL",
        ),
        (
            MethodConfig::Ldm(LdmConfig {
                landmarks: 64,
                ..LdmConfig::default()
            }),
            "LDM",
        ),
        (MethodConfig::Hyp { cells: 36 }, "HYP"),
    ];
    methods
        .into_iter()
        .map(|(m, name)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let p = DataOwner::publish(g, &m, &SetupConfig::default(), &mut rng);
            Deployment {
                client: Client::new(p.public_key),
                provider: ServiceProvider::new(p.package),
                name,
            }
        })
        .collect()
}

#[test]
fn all_methods_prove_identical_optima() {
    let g = grid_network(15, 15, 1.15, 3001);
    let deployments = deploy(&g, 3002);
    let workload = make_workload(&g, 4000.0, 10, 3003);
    for &(s, t) in &workload.pairs {
        let mut distances = Vec::new();
        for d in &deployments {
            let answer = d.provider.answer(&[(s, t)]).unwrap();
            let v = d.client.verify(&[(s, t)], &answer).unwrap();
            distances.push((d.name, v[0]));
        }
        let base = distances[0].1;
        for &(name, dist) in &distances[1..] {
            assert!(
                (dist - base).abs() <= 1e-6 * base.max(1.0),
                "({s},{t}): {name} proved {dist}, DIJ proved {base}"
            );
        }
    }
}

#[test]
fn proof_size_ranking_matches_figure8() {
    // Fig 8a: DIJ ≫ LDM, HYP ≫ FULL — check the two robust inequalities
    // (DIJ largest, FULL smallest) averaged over a workload.
    // Shape needs the paper's range semantics (the Fig. 8b DIJ ball
    // covers most of the network), which the calibrated dataset
    // generator provides.
    let g = spnet_graph::gen::Dataset::De.generate(0.04, 3004);
    let deployments = deploy(&g, 3005);
    let workload = make_workload(&g, 2000.0, 6, 3006);
    let mut sizes: Vec<(&str, ProofStats)> = Vec::new();
    for d in &deployments {
        let mut acc = ProofStats::default();
        for &(s, t) in &workload.pairs {
            acc.add(&d.provider.answer(&[(s, t)]).unwrap().stats());
        }
        sizes.push((d.name, acc.scale_down(workload.pairs.len())));
    }
    let get = |n: &str| sizes.iter().find(|(m, _)| *m == n).unwrap().1.total_bytes();
    let (dij, full, ldm, hyp) = (get("DIJ"), get("FULL"), get("LDM"), get("HYP"));
    assert!(dij > ldm, "DIJ {dij} ≤ LDM {ldm}");
    assert!(dij > hyp, "DIJ {dij} ≤ HYP {hyp}");
    assert!(ldm > full, "LDM {ldm} ≤ FULL {full}");
    assert!(hyp > full, "HYP {hyp} ≤ FULL {full}");
}

#[test]
fn answers_are_deterministic() {
    let g = grid_network(10, 10, 1.15, 3007);
    let deployments = deploy(&g, 3008);
    for d in &deployments {
        let a1 = d.provider.answer(&[(NodeId(0), NodeId(99))]).unwrap();
        let a2 = d.provider.answer(&[(NodeId(0), NodeId(99))]).unwrap();
        assert_eq!(a1, a2, "{} answers must be deterministic", d.name);
    }
}

#[test]
fn stats_decompose_into_s_and_t_parts() {
    let g = grid_network(12, 12, 1.15, 3009);
    let deployments = deploy(&g, 3010);
    // A short query: Γ is a proper subset of the leaves, so ΓT carries
    // cover digests (a whole-graph Γ legitimately has none).
    let s = NodeId(65);
    let t = spnet_graph::Graph::neighbors(&g, s).next().unwrap().0;
    for d in &deployments {
        let a = d.provider.answer(&[(s, t)]).unwrap();
        let st = a.stats();
        assert_eq!(st.total_bytes(), st.s_bytes + st.t_bytes + st.path_bytes);
        assert!(st.s_items > 0, "{}", d.name);
        assert!(st.t_items > 0, "{}", d.name);
    }
}
