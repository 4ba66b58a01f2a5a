//! Taxi dispatch scenario (the paper's motivating application).
//!
//! A transport authority (owner) publishes the city network with HYP
//! hints; a routing service (provider) answers pickup → destination
//! queries from taxi drivers (clients), each of whom verifies that the
//! quoted route really is shortest — a driver billing by a
//! pre-computed fare cannot afford a provider that favors sponsored
//! detours.
//!
//! ```sh
//! cargo run --release -p spnet-bench --example taxi_dispatch
//! ```

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use spnet_core::prelude::*;
use spnet_graph::gen::Dataset;
use spnet_graph::workload::make_workload;

fn main() {
    // A Germany-like network at 2% scale (≈ 580 junctions).
    let graph = Dataset::De.generate(0.02, 99);
    println!(
        "city network ({}-like): {} junctions, {} road segments",
        Dataset::De.name(),
        graph.num_nodes(),
        graph.num_edges()
    );

    let mut rng = StdRng::seed_from_u64(99);
    let published = DataOwner::publish(
        &graph,
        &MethodConfig::Hyp { cells: 49 },
        &SetupConfig::default(),
        &mut rng,
    );
    println!(
        "authority: HYP hints (p = 49 cells) built in {:.2}s",
        published.construction_seconds
    );
    let provider = ServiceProvider::new(published.package);
    let client_key = published.public_key;

    // A shift of 12 rides at ~2,500 units each.
    let rides = make_workload(&graph, 2500.0, 12, 101);
    let mut total_kb = 0.0;
    let mut total_distance = 0.0;
    let client = Client::new(client_key);
    for (i, ride) in rides.pairs.chunks(1).enumerate() {
        // Each driver asks for one route: a batch of one.
        let answer = provider.answer(ride).expect("reachable");
        let distance = client
            .verify(ride, &answer)
            .expect("authority-signed route verifies")[0];
        let kb = answer.stats().total_kbytes();
        total_kb += kb;
        total_distance += distance;
        let (pickup, dest) = ride[0];
        println!(
            "ride {:>2}: {} → {} | {:>2} segments | dist {:>7.1} | proof {:>6.2} KB",
            i + 1,
            pickup,
            dest,
            answer.queries[0].path.num_edges(),
            distance,
            kb
        );
    }
    println!(
        "shift total: {:.0} distance units driven, {:.1} KB of proofs ({:.2} KB/ride avg)",
        total_distance,
        total_kb,
        total_kb / rides.pairs.len() as f64
    );

    // A driver going off-book: pick a random ride and fabricate a 10%
    // shorter fare — verification must catch it.
    let ride = [rides.pairs[rng.random_range(0..rides.pairs.len())]];
    let mut fake = provider.answer(&ride).unwrap();
    fake.queries[0].path.distance *= 0.9;
    match client.verify(&ride, &fake) {
        Err(e) => println!("fare fraud attempt rejected: {e}"),
        Ok(_) => unreachable!("understated fare must not verify"),
    }
}
