//! The service provider: answers queries with proofs (Algorithm 1).

use crate::batch::{BatchAnswer, BatchQueryProof};
use crate::error::ProviderError;
use crate::owner::ProviderPackage;
use crate::par::map_jobs;
use crate::proof::IntegrityProof;
use spnet_graph::algo::dijkstra_path;
use spnet_graph::{NodeId, Path};

/// The service provider role: holds the owner's package and answers
/// shortest-path queries with verification proofs.
///
/// `Clone` deep-copies the package — the service facade's MVCC epoch
/// ring clones the serving state so an owner update repairs a private
/// copy while pinned epochs keep draining the original.
#[derive(Clone)]
pub struct ServiceProvider {
    pub(crate) package: ProviderPackage,
}

impl ServiceProvider {
    /// Wraps an owner package.
    pub fn new(package: ProviderPackage) -> Self {
        ServiceProvider { package }
    }

    /// Read access to the package (used by the tamper simulator).
    pub fn package(&self) -> &ProviderPackage {
        &self.package
    }

    /// The wire code of the method this provider serves (the routing
    /// key of a multi-shard [`crate::service::SpService`]).
    pub fn method_code(&self) -> u8 {
        self.package.hints.method().params_code()
    }

    /// Algorithm 1 for `queries`: computes each shortest path and
    /// assembles one pooled `(P_rslt, ΓS, ΓT)` answer. A single query
    /// is a batch of one.
    ///
    /// Per-query search and Γ assembly fan out over threads (each
    /// reusing its thread's search workspace) when the `parallel`
    /// feature is on; the pooled result is identical either way.
    /// [`crate::service::Session::answer_batch`] adds the epoch guard.
    pub fn answer(&self, queries: &[(NodeId, NodeId)]) -> Result<BatchAnswer, ProviderError> {
        if queries.is_empty() {
            return Err(ProviderError::ProofAssembly("empty batch".into()));
        }
        let g = &self.package.graph;
        let method = self.package.hints.method();
        // Line 1 (shortest path) and the node set of each query's Γ.
        let solved = map_jobs(
            queries,
            |&(vs, vt)| -> Result<(Path, Vec<NodeId>), ProviderError> {
                for v in [vs, vt] {
                    if g.check_node(v).is_err() {
                        return Err(ProviderError::UnknownNode(v));
                    }
                }
                let path = dijkstra_path(g, vs, vt).map_err(|_| ProviderError::Unreachable {
                    source: vs,
                    target: vt,
                })?;
                let mut nodes = method.batch_members(&self.package, vs, vt, &path);
                nodes.sort_unstable();
                nodes.dedup();
                Ok((path, nodes))
            },
        );
        let mut gammas: Vec<(Path, Vec<NodeId>)> = Vec::with_capacity(queries.len());
        for r in solved {
            gammas.push(r?);
        }
        // Lines 2–3: the pool is the sorted union of every Γ, covered
        // by one ΓT; each query names its Γ as ascending pool indices
        // (a batch of one covers the whole pool).
        let mut pool_nodes = Vec::with_capacity(gammas.iter().map(|(_, n)| n.len()).sum());
        for (_, nodes) in &gammas {
            pool_nodes.extend_from_slice(nodes);
        }
        pool_nodes.sort_unstable();
        pool_nodes.dedup();
        let integrity = self.build_integrity(&pool_nodes)?;
        let aux = method.prove_batch(&self.package, queries)?;
        let queries = gammas
            .into_iter()
            .map(|(path, nodes)| {
                // Γ ⊆ pool, both sorted and distinct: equal lengths
                // mean equal sets.
                let members = if nodes.len() == pool_nodes.len() {
                    (0..nodes.len() as u32).collect()
                } else {
                    nodes
                        .iter()
                        .map(|v| pool_nodes.binary_search(v).expect("pooled") as u32)
                        .collect()
                };
                BatchQueryProof { path, members }
            })
            .collect();
        let ads = &self.package.ads;
        Ok(BatchAnswer {
            pool: pool_nodes.iter().map(|&v| ads.tuple_shared(v)).collect(),
            queries,
            integrity,
            aux,
        })
    }

    /// Builds ΓT over the given node list (order defines the positions
    /// vector). Shared with the range operator ([`crate::queries`]).
    pub(crate) fn build_integrity(
        &self,
        nodes: &[NodeId],
    ) -> Result<IntegrityProof, ProviderError> {
        let ads = &self.package.ads;
        let merkle = ads
            .prove_nodes(nodes.iter().copied())
            .map_err(|e| ProviderError::ProofAssembly(e.to_string()))?;
        Ok(IntegrityProof {
            positions: nodes.iter().map(|&v| ads.position(v)).collect(),
            merkle,
            signed_root: self.package.network_root.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::{LdmConfig, MethodConfig};
    use crate::owner::{DataOwner, SetupConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spnet_graph::gen::grid_network;

    fn provider(method: MethodConfig) -> ServiceProvider {
        let g = grid_network(9, 9, 1.15, 800);
        let mut rng = StdRng::seed_from_u64(801);
        let p = DataOwner::publish(&g, &method, &SetupConfig::default(), &mut rng);
        ServiceProvider::new(p.package)
    }

    #[test]
    fn answers_have_consistent_shapes() {
        for method in [
            MethodConfig::Dij,
            MethodConfig::Full {
                use_floyd_warshall: false,
            },
            MethodConfig::Ldm(LdmConfig {
                landmarks: 6,
                ..LdmConfig::default()
            }),
            MethodConfig::Hyp { cells: 9 },
        ] {
            let sp = provider(method.clone());
            let a = sp.answer(&[(NodeId(0), NodeId(80))]).unwrap();
            let path = &a.queries[0].path;
            assert_eq!(path.source(), NodeId(0));
            assert_eq!(path.target(), NodeId(80));
            assert_eq!(
                a.integrity.positions.len(),
                a.pool.len(),
                "{}: positions parallel the pool",
                method.name()
            );
            let whole_pool: Vec<u32> = (0..a.pool.len() as u32).collect();
            assert_eq!(
                a.queries[0].members,
                whole_pool,
                "{}: a batch of one covers its whole pool",
                method.name()
            );
            let stats = a.stats();
            assert!(stats.s_bytes > 0 && stats.t_bytes > 0);
        }
    }

    #[test]
    fn bidirectional_algosp_produces_verifiable_answers() {
        // Algorithm 1 is agnostic to the provider's `algosp`: a path
        // found by bidirectional Dijkstra verifies against the same
        // proof as long as it is a shortest path.
        let g = grid_network(9, 9, 1.15, 802);
        let mut rng = StdRng::seed_from_u64(803);
        let p = DataOwner::publish(&g, &MethodConfig::Dij, &SetupConfig::default(), &mut rng);
        let client = crate::Client::new(p.public_key);
        let sp = ServiceProvider::new(p.package);
        let q = [(NodeId(0), NodeId(80))];
        let mut a = sp.answer(&q).unwrap();
        let bidi = spnet_graph::algo::bidirectional_path(&g, q[0].0, q[0].1).unwrap();
        a.queries[0].path = bidi.clone();
        let d = client.verify(&q, &a).unwrap()[0];
        assert!((d - bidi.distance).abs() <= 1e-6 * d.max(1.0));
    }

    #[test]
    fn unknown_node_rejected() {
        let sp = provider(MethodConfig::Dij);
        assert!(matches!(
            sp.answer(&[(NodeId(0), NodeId(999))]),
            Err(ProviderError::UnknownNode(_))
        ));
    }

    #[test]
    fn dij_proof_larger_than_full_proof() {
        // The headline comparison of Figure 8a, at unit scale.
        let dij = provider(MethodConfig::Dij);
        let full = provider(MethodConfig::Full {
            use_floyd_warshall: false,
        });
        let q = [(NodeId(0), NodeId(80))];
        let a1 = dij.answer(&q).unwrap();
        let a2 = full.answer(&q).unwrap();
        assert!(
            a1.stats().total_bytes() > a2.stats().total_bytes(),
            "DIJ {} ≤ FULL {}",
            a1.stats().total_bytes(),
            a2.stats().total_bytes()
        );
    }
}
