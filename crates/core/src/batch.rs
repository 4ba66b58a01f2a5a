//! The answer format: pooled integrity and hint proofs for *k* queries
//! — for **all four methods**. A single query is a batch of one; there
//! is no other proof path.
//!
//! The paper notes (Section V-B) that combining proofs "reduces the
//! size of the integrity proof"; this module generalizes that idea:
//! a client (e.g. the logistics auditor of `examples/logistics_audit`)
//! submits *k* queries at once, and the provider
//! ([`ServiceProvider::answer`](crate::ServiceProvider::answer)) ships
//!
//! * one **tuple pool** — the deduplicated union of every extended
//!   tuple any query needs (subgraph Γ for DIJ/LDM, path tuples for
//!   FULL, cell + path tuples for HYP),
//! * one **shared ΓT** — a single Merkle cover for the whole pool
//!   (overlapping queries share both tuples and cover digests),
//! * per query, the reported path plus the ascending pool indices of
//!   its Γ (a batch of one covers its whole pool), and
//! * one **method aux block** ([`BatchAux`]) holding whatever the
//!   method's ΓS machinery needs beyond the pool, also pooled:
//!   - DIJ/LDM: nothing — the pool *is* the proof,
//!   - FULL: per-source row proofs with deduplicated Merkle paths
//!     under **one** signed distance root ([`FullBatchProof`]; queries
//!     sharing a source share a single multi-target row cover),
//!   - HYP: **one** hyper-edge proof and **one** cell-directory proof
//!     over the union of touched cells, so each cell's authenticated
//!     border-distance matrix ships and is verified once per batch
//!     instead of once per query.
//!
//! The client ([`Client::verify`](crate::Client::verify)) authenticates
//! the pool and the aux block once (one signature check per signed
//! root per *batch*, not per query), then re-runs each query's
//! verification against its slice of the pool.
//! Per-query proving and verification fan out over threads via the
//! crate's `par` fan-out point when the default `parallel` feature is
//! on.

use crate::ads::SignedRoot;
use crate::enc::Encoder;
use crate::methods::full::FullBatchProof;
use crate::methods::hyp::HypBatchState;
use crate::proof::{IntegrityProof, ProofStats};
use crate::tuple::ExtendedTuple;
use spnet_crypto::mbtree::KeyedProof;
use spnet_graph::Path;
use std::collections::HashMap;
use std::sync::Arc;

/// One query's slice of a batch answer.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchQueryProof {
    /// The reported shortest path.
    pub path: Path,
    /// Ascending indices into the batch pool forming this query's Γ.
    pub members: Vec<u32>,
}

/// The method-specific part of a batch answer, shipped once per batch.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchAux {
    /// DIJ / LDM: the pooled subgraph tuples are the whole ΓS.
    Subgraph,
    /// FULL: pooled keyed row proofs under one signed distance root.
    Full {
        /// Per-source row proofs sharing one top-tree cover.
        proof: FullBatchProof,
        /// The owner-signed distance-tree root (once per batch).
        signed_root: SignedRoot,
    },
    /// HYP: shared hyper-edge and cell-directory proofs covering the
    /// union of every query's touched cells.
    Hyp {
        /// Membership proof for all needed border-pair hyper-edges.
        hyper: KeyedProof,
        /// The owner-signed hyper-edge tree root (once per batch).
        hyper_signed_root: SignedRoot,
        /// Membership proof for all touched cells' population counts.
        cell_dir: KeyedProof,
        /// The owner-signed cell-directory root (once per batch).
        cell_dir_signed_root: SignedRoot,
    },
}

impl BatchAux {
    /// Number of ΓS entries and digests in the aux block.
    pub fn num_items(&self) -> usize {
        match self {
            BatchAux::Subgraph => 0,
            BatchAux::Full { proof, .. } => proof.num_items(),
            BatchAux::Hyp {
                hyper, cell_dir, ..
            } => {
                hyper.entries.len()
                    + hyper.num_items()
                    + cell_dir.entries.len()
                    + cell_dir.num_items()
            }
        }
    }

    /// Serialized size in bytes of the aux block.
    pub fn size_bytes(&self) -> usize {
        match self {
            BatchAux::Subgraph => 0,
            BatchAux::Full { proof, signed_root } => proof.size_bytes() + signed_root.size_bytes(),
            BatchAux::Hyp {
                hyper,
                hyper_signed_root,
                cell_dir,
                cell_dir_signed_root,
            } => {
                hyper.size_bytes()
                    + hyper_signed_root.size_bytes()
                    + cell_dir.size_bytes()
                    + cell_dir_signed_root.size_bytes()
            }
        }
    }
}

/// A batched answer for `k` queries.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchAnswer {
    /// Deduplicated union of every query's tuples (shared handles into
    /// the provider's ADS tuple table — no deep copies), ascending by
    /// node id.
    pub pool: Vec<Arc<ExtendedTuple>>,
    /// Per-query paths and pool slices.
    pub queries: Vec<BatchQueryProof>,
    /// Shared integrity proof covering the pool (positions parallel to
    /// `pool`).
    pub integrity: IntegrityProof,
    /// Method-specific pooled hint proofs.
    pub aux: BatchAux,
}

impl BatchAnswer {
    /// Proof-size statistics, the metrics of Figures 8–13: ΓS is the
    /// pool, the member lists and the aux block; ΓT the shared cover.
    pub fn stats(&self) -> ProofStats {
        let mut e = Encoder::new();
        for t in &self.pool {
            t.encode(&mut e);
        }
        let member_bytes: usize = if self.implied_members() {
            4
        } else {
            self.queries.iter().map(|q| 4 + q.members.len() * 4).sum()
        };
        ProofStats {
            s_items: self.pool.len() + self.aux.num_items(),
            t_items: self.integrity.num_items(),
            s_bytes: e.len() + member_bytes + self.aux.size_bytes(),
            t_bytes: self.integrity.size_bytes(),
            path_bytes: self
                .queries
                .iter()
                .map(|q| q.path.nodes.len() * 4 + 8)
                .sum(),
        }
    }

    /// Total size in bytes (pool tuples + per-query members/paths +
    /// shared ΓT + method aux).
    pub fn size_bytes(&self) -> usize {
        self.stats().total_bytes()
    }

    /// True for a batch of one whose Γ is its whole pool — every honest
    /// single-query answer. The wire format then ships one marker
    /// instead of the member indices.
    pub fn implied_members(&self) -> bool {
        match self.queries.as_slice() {
            [q] => {
                q.members.len() == self.pool.len()
                    && q.members.iter().zip(0u32..).all(|(&m, i)| m == i)
            }
            _ => false,
        }
    }
}

/// Per-batch verified hint context, built once by
/// [`AuthMethod::verify_batch_aux`](crate::methods::AuthMethod::verify_batch_aux)
/// and then consulted by every per-query job.
#[derive(Debug)]
pub enum AuxContext<'a> {
    /// DIJ / LDM: the pooled subgraph tuples are the whole ΓS.
    Subgraph,
    /// FULL: authenticated distances keyed by `composite_key(vs, vt)`.
    Full(HashMap<u64, f64>),
    /// HYP: the (already root/signature-checked) shared proofs.
    Hyp {
        /// The verified hyper-edge membership proof.
        hyper: &'a KeyedProof,
        /// The verified cell-directory membership proof.
        cell_dir: &'a KeyedProof,
    },
}

/// Per-batch verifier scratch state, created once per
/// `verify_batch`/stream-chunk call and shared (behind internal locks)
/// by every per-query verification job of that batch.
#[derive(Debug, Default)]
pub struct BatchVerifyState {
    /// HYP: cell-graph cache plus the multi-source sweep plan — cells
    /// touched by the batch each get **one** calibrated in-cell sweep
    /// seeded with every query endpoint of that cell, and endpoints of
    /// different queries that share a cell reuse one authenticated
    /// cell subgraph instead of rebuilding it per endpoint.
    pub(crate) hyp: HypBatchState,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{ProviderError, VerifyError};
    use crate::methods::{LdmConfig, MethodConfig};
    use crate::owner::{DataOwner, SetupConfig};
    use crate::provider::ServiceProvider;
    use crate::Client;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spnet_graph::algo::dijkstra_path;
    use spnet_graph::gen::grid_network;
    use spnet_graph::Graph;
    use spnet_graph::NodeId;

    fn deploy(method: MethodConfig, seed: u64) -> (Graph, ServiceProvider, Client) {
        let g = grid_network(10, 10, 1.15, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 1);
        let p = DataOwner::publish(&g, &method, &SetupConfig::default(), &mut rng);
        (
            g,
            ServiceProvider::new(p.package),
            Client::new(p.public_key),
        )
    }

    fn all_methods() -> Vec<MethodConfig> {
        vec![
            MethodConfig::Dij,
            MethodConfig::Full {
                use_floyd_warshall: false,
            },
            MethodConfig::Ldm(LdmConfig {
                landmarks: 8,
                ..LdmConfig::default()
            }),
            MethodConfig::Hyp { cells: 9 },
        ]
    }

    const QUERIES: [(u32, u32); 4] = [(0, 99), (1, 98), (0, 55), (10, 89)];

    fn as_nodes(qs: &[(u32, u32)]) -> Vec<(NodeId, NodeId)> {
        qs.iter().map(|&(s, t)| (NodeId(s), NodeId(t))).collect()
    }

    #[test]
    fn batch_verifies_for_every_method() {
        for method in all_methods() {
            let (g, provider, client) = deploy(method.clone(), 1700);
            let queries = as_nodes(&QUERIES);
            let batch = provider.answer(&queries).unwrap();
            let distances = client.verify(&queries, &batch).unwrap();
            for (&(s, t), d) in queries.iter().zip(&distances) {
                let truth = dijkstra_path(&g, s, t).unwrap().distance;
                assert!(
                    (d - truth).abs() <= 1e-6 * truth.max(1.0),
                    "{}: ({s},{t})",
                    method.name()
                );
            }
        }
    }

    #[test]
    fn batch_smaller_than_individual_answers() {
        // Overlapping queries: the pool dedups tuples, shares covers,
        // and ships each signed root once — for every method.
        for method in all_methods() {
            let (_, provider, _) = deploy(method.clone(), 1701);
            let queries = as_nodes(&QUERIES);
            let batch = provider.answer(&queries).unwrap();
            let individual: usize = queries
                .iter()
                .map(|&q| provider.answer(&[q]).unwrap().size_bytes())
                .sum();
            assert!(
                batch.size_bytes() < individual,
                "{}: batch {} ≥ individual sum {}",
                method.name(),
                batch.size_bytes(),
                individual
            );
        }
    }

    #[test]
    fn hyp_batch_one_sweep_per_touched_cell() {
        let (_, provider, client) = deploy(MethodConfig::Hyp { cells: 9 }, 1720);
        let queries = as_nodes(&QUERIES);
        let batch = provider.answer(&queries).unwrap();
        // The cells the batch touches, per the authenticated pool.
        let mut cells = std::collections::HashSet::new();
        for &(s, t) in &queries {
            for v in [s, t] {
                let tuple = batch
                    .pool
                    .iter()
                    .find(|tu| tu.id == v)
                    .expect("endpoint pooled");
                cells.insert(tuple.cell.expect("HYP tuples carry cell info").cell);
            }
        }
        assert!(cells.len() >= 2, "queries must span several cells");
        let state = BatchVerifyState::default();
        let swept = client
            .verify_batch_with_state(&queries, &batch, None, None, &state)
            .unwrap();
        assert_eq!(
            state.hyp.sweep_count(),
            cells.len() as u64,
            "exactly one multi-source in-cell sweep per touched cell"
        );
        assert_eq!(
            state.hyp.solo_count(),
            0,
            "no per-endpoint fallback searches on the planned path"
        );
        // Bit-identity with the reference route: a stateless
        // verification whose in-cell distances come from solo Dijkstras.
        let BatchAux::Hyp {
            hyper, cell_dir, ..
        } = &batch.aux
        else {
            panic!("HYP batch must carry a Hyp aux");
        };
        for (q, (&(s, t), d)) in batch.queries.iter().zip(queries.iter().zip(&swept)) {
            let map: HashMap<_, _> = q
                .members
                .iter()
                .map(|&i| (batch.pool[i as usize].id, &*batch.pool[i as usize]))
                .collect();
            let solo =
                crate::methods::hyp::verify_hyp_impl(&map, hyper, cell_dir, s, t, None).unwrap();
            assert_eq!(
                d.to_bits(),
                solo.to_bits(),
                "({s},{t}): swept verify must be bit-identical"
            );
        }
    }

    #[test]
    fn empty_batch_rejected() {
        let (_, provider, _) = deploy(MethodConfig::Dij, 1702);
        assert!(matches!(
            provider.answer(&[]),
            Err(ProviderError::ProofAssembly(_))
        ));
    }

    #[test]
    fn tampered_pool_tuple_rejected_for_every_method() {
        for method in all_methods() {
            let (_, provider, client) = deploy(method.clone(), 1703);
            let queries = as_nodes(&QUERIES);
            let mut batch = provider.answer(&queries).unwrap();
            Arc::make_mut(&mut batch.pool[0]).adj[0].1 *= 0.5;
            assert!(
                client.verify(&queries, &batch).is_err(),
                "{}",
                method.name()
            );
        }
    }

    #[test]
    fn every_pool_entry_is_referenced_and_tamper_breaks_the_batch() {
        // The shared pool is covered by ONE Merkle reconstruction, so a
        // flipped pooled entry invalidates the whole batch — in
        // particular every query whose Γ references it. Also asserts
        // the pool carries no dead entries (each index is referenced by
        // at least one query's member list).
        for method in all_methods() {
            let (_, provider, client) = deploy(method.clone(), 1708);
            let queries = as_nodes(&QUERIES);
            let honest = provider.answer(&queries).unwrap();
            let referenced: std::collections::HashSet<u32> = honest
                .queries
                .iter()
                .flat_map(|q| q.members.iter().copied())
                .collect();
            assert_eq!(
                referenced.len(),
                honest.pool.len(),
                "{}: pool has unreferenced entries",
                method.name()
            );
            for i in 0..honest.pool.len() {
                let mut evil = honest.clone();
                let t = Arc::make_mut(&mut evil.pool[i]);
                if t.adj.is_empty() {
                    continue;
                }
                t.adj[0].1 *= 0.5;
                assert_eq!(
                    client.verify(&queries, &evil),
                    Err(VerifyError::RootMismatch),
                    "{}: pool[{i}]",
                    method.name()
                );
            }
        }
    }

    #[test]
    fn tampered_full_row_entry_rejected() {
        let (_, provider, client) = deploy(
            MethodConfig::Full {
                use_floyd_warshall: false,
            },
            1709,
        );
        let queries = as_nodes(&QUERIES);
        let mut batch = provider.answer(&queries).unwrap();
        let BatchAux::Full { proof, .. } = &mut batch.aux else {
            panic!("FULL batch must carry a Full aux");
        };
        proof.rows[0].entries[0].value *= 0.5;
        assert_eq!(
            client.verify(&queries, &batch),
            Err(VerifyError::RootMismatch)
        );
    }

    #[test]
    fn tampered_hyp_hyper_entry_rejected() {
        let (_, provider, client) = deploy(MethodConfig::Hyp { cells: 9 }, 1710);
        let queries = as_nodes(&QUERIES);
        let mut batch = provider.answer(&queries).unwrap();
        let BatchAux::Hyp { hyper, .. } = &mut batch.aux else {
            panic!("HYP batch must carry a Hyp aux");
        };
        assert!(!hyper.entries.is_empty());
        hyper.entries[0].value *= 0.5;
        assert_eq!(
            client.verify(&queries, &batch),
            Err(VerifyError::RootMismatch)
        );
    }

    #[test]
    fn aux_method_mismatch_rejected() {
        // A FULL-signed deployment shipping a Subgraph aux (method
        // downgrade) must be rejected before any per-query work.
        let (_, provider, client) = deploy(
            MethodConfig::Full {
                use_floyd_warshall: false,
            },
            1711,
        );
        let queries = as_nodes(&QUERIES);
        let mut batch = provider.answer(&queries).unwrap();
        batch.aux = BatchAux::Subgraph;
        assert_eq!(
            client.verify(&queries, &batch),
            Err(VerifyError::MetaMismatch(
                "batch proof shape does not match signed method"
            ))
        );
    }

    #[test]
    fn missing_full_distance_key_rejected() {
        let (_, provider, client) = deploy(
            MethodConfig::Full {
                use_floyd_warshall: false,
            },
            1712,
        );
        let queries = as_nodes(&QUERIES);
        let mut batch = provider.answer(&queries).unwrap();
        let BatchAux::Full { proof, .. } = &mut batch.aux else {
            panic!("FULL batch must carry a Full aux");
        };
        // Drop one row entirely: its queries must fail with a missing
        // key (or a malformed cover), never silently pass.
        proof.rows.remove(0);
        assert!(client.verify(&queries, &batch).is_err());
    }

    #[test]
    fn dropped_member_rejected() {
        for method in all_methods() {
            let (_, provider, client) = deploy(method.clone(), 1704);
            let queries = as_nodes(&QUERIES);
            let mut batch = provider.answer(&queries).unwrap();
            // Hide part of query 0's Γ: its verification must hit a
            // missing tuple (subgraph search, path check, or HYP cell
            // completeness).
            let keep = batch.queries[0].members.len() / 2;
            batch.queries[0].members.truncate(keep);
            assert!(
                client.verify(&queries, &batch).is_err(),
                "{}",
                method.name()
            );
        }
    }

    #[test]
    fn suboptimal_path_in_batch_rejected() {
        let (g, provider, client) = deploy(MethodConfig::Dij, 1705);
        let queries = as_nodes(&QUERIES);
        let honest = provider.answer(&queries).unwrap();
        // Replace query 1's path with a detour (keep honest proofs).
        let single = provider.answer(&queries[1..2]).unwrap();
        if let Some(evil_single) =
            crate::tamper::apply(crate::tamper::Attack::SuboptimalPath, &g, &single)
        {
            let mut evil = honest.clone();
            evil.queries[1].path = evil_single.queries[0].path.clone();
            assert!(client.verify(&queries, &evil).is_err());
        }
    }

    #[test]
    fn query_count_mismatch_rejected() {
        let (_, provider, client) = deploy(MethodConfig::Dij, 1706);
        let queries = as_nodes(&QUERIES);
        let batch = provider.answer(&queries).unwrap();
        assert!(client.verify(&queries[..2], &batch).is_err());
    }

    #[test]
    fn member_index_out_of_pool_rejected() {
        let (_, provider, client) = deploy(MethodConfig::Dij, 1707);
        let queries = as_nodes(&QUERIES);
        let mut batch = provider.answer(&queries).unwrap();
        batch.queries[0].members.push(batch.pool.len() as u32 + 7);
        assert!(client.verify(&queries, &batch).is_err());
    }
}
