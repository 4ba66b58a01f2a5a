//! Offline round-trip: the full deployment pipeline through files and
//! bytes — the owner persists the network, the provider transmits an
//! encoded answer, the client decodes and verifies.
//!
//! ```sh
//! cargo run --release -p spnet-bench --example offline_roundtrip
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use spnet_core::prelude::*;
use spnet_core::wire::{decode_batch_answer, encode_batch_answer};
use spnet_graph::gen::Dataset;
use spnet_graph::io::{load_graph, save_graph};
use spnet_graph::NodeId;

fn main() {
    let dir = std::env::temp_dir().join("spnet_offline_demo");
    std::fs::create_dir_all(&dir).expect("temp dir");

    // 1. The owner generates and archives the network.
    let graph = Dataset::De.generate(0.02, 2026);
    let graph_file = dir.join("network.graph");
    save_graph(&graph, &graph_file).expect("save");
    println!(
        "owner: archived {} nodes / {} edges to {}",
        graph.num_nodes(),
        graph.num_edges(),
        graph_file.display()
    );

    // 2. Later (different process, same bits): reload and publish.
    let reloaded = load_graph(&graph_file).expect("load");
    assert_eq!(reloaded.num_nodes(), graph.num_nodes());
    let mut rng = StdRng::seed_from_u64(2026);
    let published = DataOwner::publish(
        &reloaded,
        &MethodConfig::Hyp { cells: 25 },
        &SetupConfig::default(),
        &mut rng,
    );
    println!(
        "owner: HYP structures signed in {:.2}s",
        published.construction_seconds
    );

    // 3. The provider answers (a single query is a batch of one); the
    //    answer travels as bytes.
    let provider = ServiceProvider::new(published.package);
    let query = [(NodeId(3), NodeId(reloaded.num_nodes() as u32 - 2))];
    let (vs, vt) = query[0];
    let answer = provider.answer(&query).expect("reachable");
    let bytes = encode_batch_answer(&answer);
    let answer_file = dir.join("answer.bin");
    std::fs::write(&answer_file, &bytes).expect("write answer");
    println!(
        "provider: {} → {} answered; {} bytes written to {}",
        vs,
        vt,
        bytes.len(),
        answer_file.display()
    );

    // 4. The client reads the bytes and verifies.
    let received = std::fs::read(&answer_file).expect("read answer");
    let decoded = decode_batch_answer(&received).expect("well-formed answer");
    let client = Client::new(published.public_key);
    let distances = client
        .verify(&query, &decoded)
        .expect("authentic & shortest");
    println!(
        "client: ✔ decoded {} bytes, verified shortest path of distance {:.1} ({} hops)",
        received.len(),
        distances[0],
        decoded.queries[0].path.num_edges()
    );

    // 5. A flipped byte anywhere must not verify.
    let mut corrupted = received.clone();
    corrupted[received.len() / 2] ^= 0x40;
    match decode_batch_answer(&corrupted) {
        Err(e) => println!("client: corrupted transmission rejected at decode — {e}"),
        Ok(bad) => match client.verify(&query, &bad) {
            Err(e) => println!("client: corrupted transmission rejected at verify — {e}"),
            Ok(_) => unreachable!("corruption must not verify"),
        },
    }
    std::fs::remove_dir_all(&dir).ok();
}
