//! Verified query operators layered over [`spnet_core`] sessions.
//!
//! The core crate certifies *point* queries — one shortest path, or a
//! pooled batch of them. Real deployments ask set-shaped questions:
//! "which POIs are near me", "ship me the travel-time matrix for these
//! depots". A malicious provider attacks such answers by **omission**
//! (drop the best POI, under-fill the matrix), which a per-path proof
//! cannot catch. This crate closes that gap with three operators, each
//! carrying a completeness certificate and each working for all four
//! paper methods through the session's generic machinery:
//!
//! * **Range** (`Session::query_range`, in the core crate): all nodes
//!   within distance `d`, certified complete by an escape-checked
//!   Dijkstra over authenticated tuples.
//! * **k-nearest POI** ([`SessionQueries::query_knn`]): the `k`
//!   closest members of an owner-signed POI set. The certificate is a
//!   whole-keyspace [`KeyRangeProof`](spnet_crypto::mbtree::KeyRangeProof)
//!   over the signed POI tree — the
//!   client learns the *complete* directory, obtains proven distances
//!   for every POI in one pooled batch, and ranks locally, so "no
//!   closer POI exists" holds by construction.
//! * **Distance matrix** ([`SessionQueries::query_matrix`]): an
//!   `s × t` matrix of proven distances batched through **one** shared
//!   tuple pool, with a streamed row-by-row variant
//!   ([`SessionQueries::stream_matrix_rows`]) for matrices too large
//!   to hold.
//!
//! The owner-side half lives in [`PoiSet`]: build, sign and persist a
//! POI directory ([`spnet_core::snapshot`] gives it a paged on-disk
//! section, so a restarted provider re-serves POIs without re-signing).
//!
//! ```
//! use spnet_core::prelude::*;
//! use spnet_queries::{PoiSet, SessionQueries};
//! use spnet_graph::gen::grid_network;
//! use spnet_graph::NodeId;
//! use spnet_crypto::rsa::RsaKeyPair;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let graph = grid_network(8, 8, 1.1, 7);
//! let mut rng = StdRng::seed_from_u64(7);
//! let keypair = RsaKeyPair::generate(&mut rng, SetupConfig::default().rsa_bits);
//! let published =
//!     DataOwner::publish_with_key(&graph, &MethodConfig::Dij, &SetupConfig::default(), &keypair);
//! let pois = PoiSet::publish(&keypair, &[(NodeId(9), 1.0), (NodeId(54), 2.0)]).unwrap();
//!
//! let service = SpService::builder().package(published.package).build();
//! let session = service.open_session(Client::new(published.public_key)).unwrap();
//! let nearest = session.query_knn(&pois, NodeId(0), 1).unwrap();
//! assert_eq!(nearest.len(), 1);
//! ```

pub mod knn;
pub mod matrix;
pub mod poi;
pub mod wire;

pub use knn::{KnnAnswer, Neighbor};
pub use matrix::{DistanceMatrix, MatrixAnswer};
pub use poi::{PoiDirectory, PoiSet};

use spnet_core::error::VerifyError;
use spnet_core::service::{Session, SessionError};
use spnet_core::snapshot::SnapshotError;
use spnet_crypto::mbtree::MbTreeError;
use spnet_graph::NodeId;

/// Why a query-operator publish, answer or verification failed.
///
/// Tamper rejections surface as typed variants (directly or through
/// the wrapped [`VerifyError`] / [`MbTreeError`]) — a doctored answer
/// never verifies and never panics.
#[derive(Debug)]
pub enum QueryError {
    /// The underlying session refused (epoch invalidated, provider
    /// error, or a batch-level verification failure).
    Session(SessionError),
    /// A proof failed client-side verification.
    Verify(VerifyError),
    /// The POI completeness proof failed (bad run, bad brackets, or a
    /// root mismatch).
    Poi(MbTreeError),
    /// POI persistence failed.
    Snapshot(SnapshotError),
    /// The POI root's owner signature does not verify.
    BadPoiSignature,
    /// The signed root is not a POI root (downgrade attempt with a
    /// foreign signed structure).
    ForeignPoiTag,
    /// The completeness proof covers fewer leaves than the signed
    /// metadata promises — a truncated directory.
    PoiCountMismatch {
        /// Leaf count bound into the owner's signature.
        signed: u64,
        /// Leaf count the shipped proof actually covers.
        proven: u64,
    },
    /// A POI set must hold at least one POI.
    EmptyPoiSet,
    /// The same node appeared twice in a published POI set.
    DuplicatePoi(NodeId),
    /// The answer echoes a different `k` than the client asked for.
    KnnKMismatch {
        /// The client's `k`.
        requested: u32,
        /// The provider's echoed `k`.
        answered: u32,
    },
    /// A matrix needs at least one source and one target.
    EmptyMatrix,
    /// The answer echoes different sources/targets than the client
    /// asked for (row/column remapping attempt).
    MatrixShapeMismatch(&'static str),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Session(e) => write!(f, "session: {e}"),
            QueryError::Verify(e) => write!(f, "verify: {e}"),
            QueryError::Poi(e) => write!(f, "poi proof: {e}"),
            QueryError::Snapshot(e) => write!(f, "poi snapshot: {e}"),
            QueryError::BadPoiSignature => {
                write!(
                    f,
                    "POI root signature does not verify against the owner key"
                )
            }
            QueryError::ForeignPoiTag => {
                write!(f, "signed root is not a POI directory root")
            }
            QueryError::PoiCountMismatch { signed, proven } => write!(
                f,
                "POI completeness proof covers {proven} leaves but the owner signed {signed}"
            ),
            QueryError::EmptyPoiSet => write!(f, "a POI set must hold at least one POI"),
            QueryError::DuplicatePoi(v) => write!(f, "node {v} appears twice in the POI set"),
            QueryError::KnnKMismatch {
                requested,
                answered,
            } => write!(
                f,
                "answer echoes k = {answered}, client asked k = {requested}"
            ),
            QueryError::EmptyMatrix => {
                write!(
                    f,
                    "a distance matrix needs at least one source and one target"
                )
            }
            QueryError::MatrixShapeMismatch(which) => {
                write!(f, "matrix answer echoes a different query: {which}")
            }
        }
    }
}

impl std::error::Error for QueryError {}

impl From<SessionError> for QueryError {
    fn from(e: SessionError) -> Self {
        QueryError::Session(e)
    }
}

impl From<VerifyError> for QueryError {
    fn from(e: VerifyError) -> Self {
        QueryError::Verify(e)
    }
}

impl From<MbTreeError> for QueryError {
    fn from(e: MbTreeError) -> Self {
        QueryError::Poi(e)
    }
}

impl From<SnapshotError> for QueryError {
    fn from(e: SnapshotError) -> Self {
        QueryError::Snapshot(e)
    }
}

/// The query operators, as an extension trait over the core
/// [`Session`] — provider and client halves split so transports can
/// serialize the answer (see [`wire`]) between them.
pub trait SessionQueries {
    /// Provider half of k-nearest-POI: proven distances to **every**
    /// POI plus the directory completeness certificate.
    fn answer_knn(&self, pois: &PoiSet, source: NodeId, k: u32) -> Result<KnnAnswer, QueryError>;

    /// Client half of k-nearest-POI: verifies directory completeness
    /// and every distance, then ranks locally. Returns the proven `k`
    /// nearest (fewer only if the whole directory is smaller).
    fn verify_knn(
        &self,
        source: NodeId,
        k: u32,
        answer: &KnnAnswer,
    ) -> Result<Vec<Neighbor>, QueryError>;

    /// Answers and verifies a k-nearest-POI query in one call.
    fn query_knn(&self, pois: &PoiSet, source: NodeId, k: u32)
        -> Result<Vec<Neighbor>, QueryError>;

    /// Provider half of a distance matrix: all `sources × targets`
    /// pairs proven through one pooled batch.
    fn answer_matrix(
        &self,
        sources: &[NodeId],
        targets: &[NodeId],
    ) -> Result<MatrixAnswer, QueryError>;

    /// Client half of a distance matrix: verifies the pooled batch and
    /// shapes the proven distances row-major.
    fn verify_matrix(
        &self,
        sources: &[NodeId],
        targets: &[NodeId],
        answer: &MatrixAnswer,
    ) -> Result<DistanceMatrix, QueryError>;

    /// Answers and verifies a distance matrix in one call.
    fn query_matrix(
        &self,
        sources: &[NodeId],
        targets: &[NodeId],
    ) -> Result<DistanceMatrix, QueryError>;

    /// Streams a distance matrix row by row: each chunk of the
    /// session's verified stream is exactly one row, so an `s × t`
    /// matrix needs only `O(t)` client memory. `on_row` receives the
    /// row's source and its proven distances in target order.
    fn stream_matrix_rows(
        &self,
        sources: &[NodeId],
        targets: &[NodeId],
        on_row: &mut dyn FnMut(NodeId, &[f64]),
    ) -> Result<(), QueryError>;
}

impl SessionQueries for Session {
    fn answer_knn(&self, pois: &PoiSet, source: NodeId, k: u32) -> Result<KnnAnswer, QueryError> {
        knn::answer_knn(self, pois, source, k)
    }

    fn verify_knn(
        &self,
        source: NodeId,
        k: u32,
        answer: &KnnAnswer,
    ) -> Result<Vec<Neighbor>, QueryError> {
        knn::verify_knn(self, source, k, answer)
    }

    fn query_knn(
        &self,
        pois: &PoiSet,
        source: NodeId,
        k: u32,
    ) -> Result<Vec<Neighbor>, QueryError> {
        let answer = knn::answer_knn(self, pois, source, k)?;
        knn::verify_knn(self, source, k, &answer)
    }

    fn answer_matrix(
        &self,
        sources: &[NodeId],
        targets: &[NodeId],
    ) -> Result<MatrixAnswer, QueryError> {
        matrix::answer_matrix(self, sources, targets)
    }

    fn verify_matrix(
        &self,
        sources: &[NodeId],
        targets: &[NodeId],
        answer: &MatrixAnswer,
    ) -> Result<DistanceMatrix, QueryError> {
        matrix::verify_matrix(self, sources, targets, answer)
    }

    fn query_matrix(
        &self,
        sources: &[NodeId],
        targets: &[NodeId],
    ) -> Result<DistanceMatrix, QueryError> {
        let answer = matrix::answer_matrix(self, sources, targets)?;
        matrix::verify_matrix(self, sources, targets, &answer)
    }

    fn stream_matrix_rows(
        &self,
        sources: &[NodeId],
        targets: &[NodeId],
        on_row: &mut dyn FnMut(NodeId, &[f64]),
    ) -> Result<(), QueryError> {
        matrix::stream_matrix_rows(self, sources, targets, on_row)
    }
}
