//! Quickstart: the full three-party protocol through the `SpService`
//! session facade — single queries, a streamed batch, and an epoch
//! bump observed as explicit session invalidation.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use spnet_core::prelude::*;
use spnet_crypto::rsa::RsaKeyPair;
use spnet_graph::gen::grid_network;
use spnet_graph::NodeId;

fn main() {
    // 1. A road network: 400 junctions on a jittered grid, normalized
    //    to the paper's [0..10,000]² extent.
    let graph = grid_network(20, 20, 1.1, 7);
    println!(
        "network: {} nodes, {} edges",
        graph.num_nodes(),
        graph.num_edges()
    );

    // 2. The data owner builds and signs the authenticated structures.
    //    DIJ here, so the owner can also publish edge updates later;
    //    swap in FULL/LDM/HYP and nothing below changes — every method
    //    is served through its `AuthMethod` trait object.
    let mut rng = StdRng::seed_from_u64(7);
    let keypair = RsaKeyPair::generate(&mut rng, 256);
    let method = MethodConfig::Dij;
    let published = DataOwner::publish_with_key(&graph, &method, &SetupConfig::default(), &keypair);
    println!(
        "owner: published {} hints in {:.2}s",
        method.name(),
        published.construction_seconds
    );

    // 3. The (untrusted) service provider runs behind the facade; the
    //    client opens a session, authenticating the signed epoch root
    //    and method params exactly once.
    let service = SpService::builder().package(published.package).build();
    let session = service
        .open_session(Client::new(published.public_key))
        .expect("owner-signed epoch authenticates");
    println!(
        "client: session open — epoch {}, method {} (from signed params)",
        session.epoch(),
        session.method_name()
    );

    // 4. A verified single query: a batch of one.
    let (vs, vt) = (NodeId(0), NodeId(399));
    let answer = session
        .query_batch(&[(vs, vt)])
        .expect("connected network")
        .remove(0);
    println!(
        "client: ✔ verified shortest path, {} edges, distance {:.1}",
        answer.path.num_edges(),
        answer.distance
    );

    // 5. A streamed batch: the provider proves pooled chunks, the
    //    client verifies each chunk as it arrives (through the actual
    //    versioned wire frames).
    let queries: Vec<(NodeId, NodeId)> = (0..12).map(|i| (NodeId(i), NodeId(399 - i))).collect();
    let mut verified = 0usize;
    for chunk in session.query_stream_chunked(&queries, 4) {
        let answers = chunk.expect("honest stream chunk");
        verified += answers.len();
        println!(
            "client: ✔ stream chunk of {} answers verified ({verified}/{} total)",
            answers.len(),
            queries.len()
        );
    }

    // 6. The owner publishes an edge update through the service: the
    //    epoch bumps, but the open session keeps draining on the root
    //    it pinned (MVCC ring) while new sessions bind the new root.
    let (u, v, w) = graph.edges().next().expect("network has edges");
    let epoch = service
        .update_edge_weight(&keypair, u, v, w * 2.0)
        .expect("in-place incremental repair");
    println!("owner: edge ({u}, {v}) re-weighted; epoch now {epoch}");
    let pinned = session
        .query_batch(&[(vs, vt)])
        .expect("pinned session drains on its epoch")
        .remove(0);
    println!(
        "client: ✔ pinned session (epoch {}) still serves its root, distance {:.1}",
        session.epoch(),
        pinned.distance
    );
    let fresh = service
        .open_session(Client::new(keypair.public_key().clone()))
        .expect("new epoch authenticates");
    let again = fresh
        .query_batch(&[(vs, vt)])
        .expect("fresh session serves")
        .remove(0);
    println!(
        "client: ✔ new session at epoch {}, distance {:.1}",
        fresh.epoch(),
        again.distance
    );
}
