//! Verified k-nearest-POI tour: an owner signs a POI directory, a
//! session answers "3 nearest charging stations" with a completeness
//! certificate, and every omission attack is rejected typed.
//!
//! ```sh
//! cargo run --release --example verified_knn
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use spnet_core::prelude::*;
use spnet_crypto::rsa::RsaKeyPair;
use spnet_graph::gen::grid_network;
use spnet_graph::NodeId;
use spnet_queries::wire::{decode_knn_answer, encode_knn_answer};
use spnet_queries::{PoiSet, SessionQueries};

fn main() {
    // The data owner publishes the road network and, with the same
    // keypair, a signed POI directory (payload: a station id).
    let graph = grid_network(12, 12, 1.25, 777);
    let mut rng = StdRng::seed_from_u64(777);
    let keypair = RsaKeyPair::generate(&mut rng, SetupConfig::default().rsa_bits);
    let published = DataOwner::publish_with_key(
        &graph,
        &MethodConfig::Hyp { cells: 16 },
        &SetupConfig::default(),
        &keypair,
    );
    let stations: Vec<(NodeId, f64)> = [9u32, 37, 70, 101, 126, 143]
        .iter()
        .enumerate()
        .map(|(i, &v)| (NodeId(v), i as f64))
        .collect();
    let pois = PoiSet::publish(&keypair, &stations).unwrap();
    println!(
        "owner signed {} POIs under root tag {:?}",
        pois.len(),
        pois.signed().meta.tag
    );

    // A client session asks for the 3 nearest, through the wire.
    let service = SpService::builder().package(published.package).build();
    let session = service
        .open_session(Client::new(published.public_key))
        .unwrap();
    let me = NodeId(66);
    let answer = session.answer_knn(&pois, me, 3).unwrap();
    let bytes = encode_knn_answer(&answer);
    println!(
        "\nprovider answered k=3 from {me}: certificate {} bytes on the wire",
        bytes.len()
    );
    let decoded = decode_knn_answer(&bytes).unwrap();
    let nearest = session.verify_knn(me, 3, &decoded).unwrap();
    for (rank, n) in nearest.iter().enumerate() {
        println!(
            "  #{} station {} (payload {}): proven distance {:.1}",
            rank + 1,
            n.node,
            n.payload,
            n.distance
        );
    }
    println!("completeness: no unlisted POI can be closer — certified");

    // Omission attacks, each rejected with a typed reason.
    println!("\ntamper tour:");
    let mut evil = answer.clone();
    evil.poi_proof.entries.pop();
    match session.verify_knn(me, 3, &evil) {
        Err(e) => println!("  dropped directory entry: rejected — {e}"),
        Ok(_) => panic!("omission accepted"),
    }
    let mut evil = answer.clone();
    evil.batch.queries.pop();
    match session.verify_knn(me, 3, &evil) {
        Err(e) => println!("  dropped distance proof: rejected — {e}"),
        Ok(_) => panic!("omission accepted"),
    }
    let other = RsaKeyPair::generate(&mut rng, SetupConfig::default().rsa_bits);
    let fake = PoiSet::publish(&other, &stations[..2]).unwrap();
    let mut evil = answer.clone();
    evil.poi_signed = fake.signed().clone();
    match session.verify_knn(me, 3, &evil) {
        Err(e) => println!("  substituted POI set: rejected — {e}"),
        Ok(_) => panic!("substitution accepted"),
    }
}
