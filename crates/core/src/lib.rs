//! Authenticated shortest-path verification — the core library.
//!
//! This crate implements the contribution of *Efficient Verification of
//! Shortest Path Search via Authenticated Hints* (Yiu, Lin, Mouratidis,
//! ICDE 2010): a three-party protocol in which a **data owner** signs
//! authenticated data structures over a road network, a **service
//! provider** answers shortest-path queries with proofs, and a
//! **client** verifies that each reported path (i) exists untampered in
//! the owner's graph and (ii) is genuinely the shortest.
//!
//! # The four verification methods
//!
//! | method | hints | ΓS | trade-off |
//! |--------|-------|----|-----------|
//! | [`methods::dij`]  | none | Dijkstra-ball subgraph (Lemma 1) | zero construction, huge proofs |
//! | [`methods::full`] | all-pairs distances | Merkle B-tree lookup | tiny proofs, O(V³)/O(V²) construction |
//! | [`methods::ldm`]  | quantized+compressed landmark vectors | A\* cone subgraph (Lemma 2) | small proofs, moderate construction |
//! | [`methods::hyp`]  | HiTi hyper-graph border distances | coarse subgraph + distance proof | small proofs, moderate construction |
//!
//! # Quickstart
//!
//! The [`service::SpService`] facade is the front door: a session
//! authenticates the published epoch once, then serves verified
//! answers — batched (a single query is a batch of one) or streamed.
//!
//! ```
//! use spnet_core::prelude::*;
//! use spnet_graph::gen::grid_network;
//! use spnet_graph::NodeId;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // The data owner publishes an authenticated package.
//! let graph = grid_network(8, 8, 1.1, 7);
//! let mut rng = StdRng::seed_from_u64(7);
//! let cfg = SetupConfig::default();
//! let published = DataOwner::publish(&graph, &MethodConfig::Dij, &cfg, &mut rng);
//!
//! // The (untrusted) provider serves through the session facade.
//! let service = SpService::builder().package(published.package).build();
//! let session = service
//!     .open_session(Client::new(published.public_key))
//!     .expect("signed epoch authenticates");
//!
//! // A single verified query (a batch of one)…
//! let answer = session.query_batch(&[(NodeId(0), NodeId(63))]).unwrap().remove(0);
//! assert!(answer.distance > 0.0);
//!
//! // …and a streamed batch, verified chunk by chunk.
//! let queries = [(NodeId(0), NodeId(63)), (NodeId(1), NodeId(62))];
//! let verified: Vec<_> = session
//!     .query_stream(&queries)
//!     .collect::<Result<Vec<_>, _>>()
//!     .unwrap()
//!     .into_iter()
//!     .flatten()
//!     .collect();
//! assert_eq!(verified.len(), queries.len());
//! ```
//!
//! The lower-level role APIs ([`DataOwner`], [`ServiceProvider`],
//! [`Client`]) remain available: [`ServiceProvider::answer`] proves a
//! slice of queries as one [`BatchAnswer`] and [`Client::verify`]
//! checks it. All of them — and the facade — serve every method
//! through its [`methods::AuthMethod`] trait object, along one proof
//! path.

pub mod ads;
pub mod batch;
pub mod chain;
pub mod client;
pub mod enc;
pub mod error;
pub mod methods;
pub mod owner;
pub mod par;
pub mod proof;
pub mod provider;
pub mod queries;
pub mod service;
pub mod snapshot;
pub mod stream;
pub mod tamper;
pub mod tuple;
pub mod update;
pub mod wire;

/// True when this build includes the parallel batch-serving and
/// hint-construction paths (the default `parallel` feature).
pub const PARALLEL_ENABLED: bool = cfg!(feature = "parallel");

/// Convenient re-exports for typical use.
pub mod prelude {
    pub use crate::batch::BatchAnswer;
    pub use crate::client::Client;
    pub use crate::error::VerifyError;
    pub use crate::methods::{AuthMethod, LdmConfig, MethodConfig, PinnedAux, VerifyCtx};
    pub use crate::owner::{DataOwner, Published, SetupConfig};
    pub use crate::par::Scheduler;
    pub use crate::proof::ProofStats;
    pub use crate::provider::ServiceProvider;
    pub use crate::queries::RangeAnswer;
    pub use crate::service::{
        RoutingPolicy, Session, SessionAnswer, SessionError, SpService, SpServiceBuilder,
    };
    pub use crate::snapshot::{load_package, save_package, LoadedSnapshot, SnapshotError};
    pub use crate::stream::{StreamError, StreamVerifier, VerifiedItem};
    pub use spnet_store::StoreBackend;
}

pub use prelude::*;
