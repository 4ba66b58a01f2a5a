//! Tamper-detection tour: every attack from the threat model, against
//! every verification method, with the client's rejection reason.
//!
//! ```sh
//! cargo run --release -p spnet-bench --example tamper_detection
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use spnet_core::prelude::*;
use spnet_core::provider::ServiceProvider;
use spnet_core::tamper::{apply, ALL_ATTACKS};
use spnet_graph::gen::grid_network;
use spnet_graph::NodeId;

fn main() {
    let graph = grid_network(12, 12, 1.25, 321);
    // One query: a batch of one, the shape every answer takes.
    let query = [(NodeId(0), NodeId(143))];
    let methods = vec![
        MethodConfig::Dij,
        MethodConfig::Full {
            use_floyd_warshall: false,
        },
        MethodConfig::Ldm(LdmConfig {
            landmarks: 16,
            ..LdmConfig::default()
        }),
        MethodConfig::Hyp { cells: 16 },
    ];

    for method in methods {
        let mut rng = StdRng::seed_from_u64(321);
        let published = DataOwner::publish(&graph, &method, &SetupConfig::default(), &mut rng);
        let provider = ServiceProvider::new(published.package);
        let client = Client::new(published.public_key);
        let honest = provider.answer(&query).unwrap();
        let distances = client.verify(&query, &honest).expect("honest verifies");
        println!(
            "\n=== {} ===  honest answer: distance {:.1}, proof {:.1} KB — accepted",
            method.name(),
            distances[0],
            honest.stats().total_kbytes()
        );
        for attack in ALL_ATTACKS {
            match apply(attack, &graph, &honest) {
                None => println!("  {attack:?}: not expressible for this answer"),
                Some(evil) => match client.verify(&query, &evil) {
                    Err(e) => println!("  {attack:?}: rejected — {e}"),
                    Ok(_) => println!("  {attack:?}: !!! ACCEPTED (protocol failure) !!!"),
                },
            }
        }
    }
}
