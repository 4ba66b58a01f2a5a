//! The client: verifies answers against the owner's public key alone.
//!
//! Every answer is a [`BatchAnswer`] — a single query is a batch of
//! one. A reported path is accepted iff (Section III-A):
//!
//! 1. every pooled tuple is authentic — the reconstructed Merkle root
//!    matches the owner-signed network root (ΓT);
//! 2. the ΓS machinery (the query's pool slice plus the method's aux
//!    block) proves the true optimum `dist(vs, vt)`;
//! 3. the reported path uses only authenticated edges, starts at `vs`,
//!    ends at `vt`, and its summed weight equals its claimed distance
//!    and the proven optimum (up to the rounding of its own hop sum).
//!
//! [`Client::verify`] RSA-checks every signed root it meets. Sessions
//! ([`crate::service::Session`]) and the stream verifier instead check
//! roots against the ones they pinned — RSA-verified once — at open.

use crate::ads::SignedRoot;
use crate::batch::{BatchAnswer, BatchVerifyState};
use crate::error::VerifyError;
use crate::methods::{MethodParams, PinnedAux, VerifyCtx};
use crate::par::map_jobs_indexed;
use crate::proof::IntegrityProof;
use crate::tuple::ExtendedTuple;
use spnet_crypto::digest::Digest;
use spnet_crypto::rsa::RsaPublicKey;
use spnet_graph::path::close;
use spnet_graph::NodeId;
use std::collections::HashMap;
use std::sync::Arc;

/// The client role.
#[derive(Debug, Clone)]
pub struct Client {
    public_key: RsaPublicKey,
}

impl Client {
    /// A client trusting the given owner key.
    pub fn new(public_key: RsaPublicKey) -> Self {
        Client { public_key }
    }

    /// The owner key this client trusts.
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.public_key
    }

    /// Verifies a provider answer for `queries`, returning the proven
    /// optimum `dist(vs, vt)` per query. Every signed root in the
    /// answer pays its RSA check.
    pub fn verify(
        &self,
        queries: &[(NodeId, NodeId)],
        answer: &BatchAnswer,
    ) -> Result<Vec<f64>, VerifyError> {
        self.verify_batch_impl(queries, answer, None, None)
    }

    /// The verification engine behind [`Self::verify`] and the session
    /// and stream facades. With `pinned` the caller vouches it already
    /// RSA-verified that exact signed root (once, at session open):
    /// the answer's root must then be byte-identical — an answer signed
    /// for a *different* epoch is rejected — and the signature check is
    /// skipped. `pins` extends the same treatment to the method's
    /// auxiliary signed roots (FULL distance tree, HYP hyper-edge and
    /// cell-directory trees). All Merkle reconstructions still run.
    pub(crate) fn verify_batch_impl(
        &self,
        queries: &[(NodeId, NodeId)],
        batch: &BatchAnswer,
        pinned: Option<&SignedRoot>,
        pins: Option<&PinnedAux>,
    ) -> Result<Vec<f64>, VerifyError> {
        self.verify_batch_with_state(queries, batch, pinned, pins, &BatchVerifyState::default())
    }

    /// [`Self::verify_batch_impl`] with a caller-owned
    /// [`BatchVerifyState`], so tests can observe the per-batch caches
    /// and sweep counters after verification.
    pub(crate) fn verify_batch_with_state(
        &self,
        queries: &[(NodeId, NodeId)],
        batch: &BatchAnswer,
        pinned: Option<&SignedRoot>,
        pins: Option<&PinnedAux>,
        state: &BatchVerifyState,
    ) -> Result<Vec<f64>, VerifyError> {
        if queries.len() != batch.queries.len() {
            return Err(VerifyError::MalformedIntegrityProof(format!(
                "{} queries but {} proofs",
                queries.len(),
                batch.queries.len()
            )));
        }
        // ΓT: authenticate the pool once.
        let params = self.authenticate_pool(&batch.integrity, &batch.pool, pinned)?;
        // Method aux: authenticate the pooled hint proofs once.
        let method = params.method();
        let vctx = VerifyCtx {
            pk: self.public_key(),
            pins,
        };
        let ctx = method.verify_batch_aux(&vctx, &params, &batch.aux)?;
        method.prepare_batch_verify(&params, queries, batch, state);
        // Per query: build the member map and re-run the verification —
        // one independent job per query, fanned out over threads.
        let outcomes = map_jobs_indexed(queries, |qi, &(vs, vt)| -> Result<f64, VerifyError> {
            let q = &batch.queries[qi];
            let mut map: HashMap<NodeId, &ExtendedTuple> = HashMap::with_capacity(q.members.len());
            for &i in &q.members {
                let t = batch
                    .pool
                    .get(i as usize)
                    .ok_or(VerifyError::MalformedIntegrityProof(
                        "member index out of pool".into(),
                    ))?;
                map.insert(t.id, &**t);
            }
            let proven = method.verify_batch_query(&params, &ctx, state, &map, vs, vt)?;
            // Path checks against the authenticated pool.
            check_reported_path(&map, vs, vt, &q.path, proven)?;
            Ok(proven)
        });
        outcomes.into_iter().collect()
    }

    /// ΓT, shared by point and range answers: checks the signed network
    /// root (against `pinned` by byte equality, else by RSA), then
    /// reconstructs it from every pooled tuple and the cover digests.
    /// Returns the method parameters the root's metadata signs.
    pub(crate) fn authenticate_pool(
        &self,
        integrity: &IntegrityProof,
        pool: &[Arc<ExtendedTuple>],
        pinned: Option<&SignedRoot>,
    ) -> Result<MethodParams, VerifyError> {
        match pinned {
            Some(root) if integrity.signed_root != *root => {
                return Err(VerifyError::MetaMismatch(
                    "signed root differs from pinned session root",
                ));
            }
            Some(_) => {}
            None if !integrity.signed_root.verify(&self.public_key) => {
                return Err(VerifyError::BadSignature);
            }
            None => {}
        }
        let params = MethodParams::decode(&integrity.signed_root.meta.params)
            .map_err(|_| VerifyError::MetaMismatch("undecodable method params"))?;
        if pool.len() != integrity.positions.len() {
            return Err(VerifyError::MalformedIntegrityProof(
                "positions do not match pool".into(),
            ));
        }
        let leaves: Vec<(usize, Digest)> = pool
            .iter()
            .zip(&integrity.positions)
            .map(|(t, &p)| (p as usize, t.digest()))
            .collect();
        let root = integrity
            .merkle
            .reconstruct_root(&leaves)
            .map_err(|e| VerifyError::MalformedIntegrityProof(e.to_string()))?;
        if root != integrity.signed_root.root {
            return Err(VerifyError::RootMismatch);
        }
        Ok(params)
    }
}

/// Checks a reported path `P_rslt` against authenticated tuples and a
/// proven optimum: endpoints, edge existence, summed weight vs both
/// the claimed distance and the optimum.
///
/// The sum may differ from the optimum only by the rounding its own
/// `hops` additions can introduce (`hops · ε · proven`), so a detour
/// longer than the optimum by any representable margin beyond that is
/// rejected as [`VerifyError::NotShortest`].
pub(crate) fn check_reported_path(
    tuples: &HashMap<NodeId, &ExtendedTuple>,
    vs: NodeId,
    vt: NodeId,
    path: &spnet_graph::Path,
    proven: f64,
) -> Result<(), VerifyError> {
    let got = (path.source(), path.target());
    if got != (vs, vt) {
        return Err(VerifyError::WrongEndpoints {
            expected: (vs, vt),
            got,
        });
    }
    let mut sum = 0.0;
    for w in path.nodes.windows(2) {
        let t = tuples.get(&w[0]).ok_or(VerifyError::MissingTuple(w[0]))?;
        let weight = t.edge_to(w[1]).ok_or(VerifyError::FakeEdge {
            from: w[0],
            to: w[1],
        })?;
        sum += weight;
    }
    if !close(sum, path.distance) {
        return Err(VerifyError::InconsistentPathDistance {
            claimed: path.distance,
            recomputed: sum,
        });
    }
    let hops = path.nodes.len().saturating_sub(1) as f64;
    if (sum - proven).abs() > hops * f64::EPSILON * proven {
        return Err(VerifyError::NotShortest {
            reported: sum,
            proven,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::{LdmConfig, MethodConfig};
    use crate::owner::{DataOwner, SetupConfig};
    use crate::provider::ServiceProvider;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spnet_graph::gen::grid_network;

    fn end_to_end(method: MethodConfig, queries: &[(u32, u32)]) {
        let g = grid_network(9, 9, 1.15, 900);
        let mut rng = StdRng::seed_from_u64(901);
        let p = DataOwner::publish(&g, &method, &SetupConfig::default(), &mut rng);
        let provider = ServiceProvider::new(p.package);
        let client = Client::new(p.public_key);
        for &(s, t) in queries {
            let q = [(NodeId(s), NodeId(t))];
            let answer = provider.answer(&q).unwrap();
            let d = client
                .verify(&q, &answer)
                .unwrap_or_else(|e| panic!("{}: ({s},{t}) rejected: {e}", method.name()))[0];
            assert!(
                close(d, answer.queries[0].path.distance),
                "{}: distance mismatch",
                method.name()
            );
        }
    }

    const QUERIES: [(u32, u32); 5] = [(0, 80), (4, 76), (40, 41), (80, 0), (9, 71)];

    #[test]
    fn dij_end_to_end() {
        end_to_end(MethodConfig::Dij, &QUERIES);
    }

    #[test]
    fn full_end_to_end() {
        end_to_end(
            MethodConfig::Full {
                use_floyd_warshall: false,
            },
            &QUERIES,
        );
    }

    #[test]
    fn ldm_end_to_end() {
        end_to_end(
            MethodConfig::Ldm(LdmConfig {
                landmarks: 8,
                ..LdmConfig::default()
            }),
            &QUERIES,
        );
    }

    #[test]
    fn hyp_end_to_end() {
        end_to_end(MethodConfig::Hyp { cells: 9 }, &QUERIES);
    }

    #[test]
    fn wrong_owner_key_rejected() {
        let g = grid_network(6, 6, 1.15, 902);
        let mut rng = StdRng::seed_from_u64(903);
        let p = DataOwner::publish(&g, &MethodConfig::Dij, &SetupConfig::default(), &mut rng);
        let provider = ServiceProvider::new(p.package);
        let q = [(NodeId(0), NodeId(35))];
        let answer = provider.answer(&q).unwrap();
        // A client trusting a different owner.
        let mut rng2 = StdRng::seed_from_u64(904);
        let other = spnet_crypto::rsa::RsaKeyPair::generate(&mut rng2, 256);
        let client = Client::new(other.public_key().clone());
        assert_eq!(client.verify(&q, &answer), Err(VerifyError::BadSignature));
    }

    #[test]
    fn wrong_query_pair_rejected() {
        let g = grid_network(6, 6, 1.15, 905);
        let mut rng = StdRng::seed_from_u64(906);
        let p = DataOwner::publish(&g, &MethodConfig::Dij, &SetupConfig::default(), &mut rng);
        let provider = ServiceProvider::new(p.package);
        let client = Client::new(p.public_key);
        let answer = provider.answer(&[(NodeId(0), NodeId(35))]).unwrap();
        // Replaying the answer for a different query.
        let err = client.verify(&[(NodeId(0), NodeId(34))], &answer);
        assert!(err.is_err());
    }
}
