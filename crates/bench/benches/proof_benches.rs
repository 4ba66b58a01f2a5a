//! Criterion micro-benchmarks for the end-to-end protocol: proof
//! generation and client verification per method (the paper reports
//! these are proportional to proof size; Section VI confirms shapes).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spnet_core::methods::{LdmConfig, MethodConfig};
use spnet_core::owner::{DataOwner, SetupConfig};
use spnet_core::provider::ServiceProvider;
use spnet_core::Client;
use spnet_graph::gen::grid_network;
use spnet_graph::NodeId;
use std::hint::black_box;

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
        MethodConfig::Hyp { cells: 25 },
    ]
}

fn bench_prove_and_verify(c: &mut Criterion) {
    let g = grid_network(20, 20, 1.15, 9);
    let (s, t) = (NodeId(0), NodeId(399));
    for method in methods() {
        let mut rng = StdRng::seed_from_u64(10);
        let p = DataOwner::publish(&g, &method, &SetupConfig::default(), &mut rng);
        let client = Client::new(p.public_key.clone());
        let provider = ServiceProvider::new(p.package);
        let answer = provider.answer(&[(s, t)]).unwrap();
        client
            .verify(&[(s, t)], &answer)
            .expect("honest answer verifies");
        let mut grp = c.benchmark_group(format!("proto_{}", method.name()));
        grp.sample_size(20);
        grp.bench_function("prove", |b| {
            b.iter(|| provider.answer(&[(black_box(s), black_box(t))]).unwrap())
        });
        grp.bench_function("verify", |b| {
            b.iter(|| client.verify(&[(s, t)], black_box(&answer)).unwrap())
        });
        grp.finish();
    }
}

fn bench_owner_publish(c: &mut Criterion) {
    let g = grid_network(14, 14, 1.15, 11);
    let mut grp = c.benchmark_group("publish_196");
    grp.sample_size(10);
    for method in methods() {
        grp.bench_function(method.name(), |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(12);
                DataOwner::publish(&g, black_box(&method), &SetupConfig::default(), &mut rng)
            })
        });
    }
    grp.finish();
}

criterion_group!(benches, bench_prove_and_verify, bench_owner_publish);
criterion_main!(benches);
