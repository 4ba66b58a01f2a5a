//! DIJ — Dijkstra subgraph verification (Section IV-A).
//!
//! No pre-computed hints. The provider ships the extended tuples of
//! every node within distance `dist(vs, vt)` of the source (Lemma 1);
//! the client re-runs Dijkstra on that subgraph and checks the optimum
//! matches the reported path's length.

use crate::batch::{AuxContext, BatchAux, BatchVerifyState};
use crate::error::{ProviderError, VerifyError};
use crate::methods::{AuthMethod, MethodConfig, MethodParams, TupleMap, VerifyCtx};
use crate::owner::{MethodHints, ProviderPackage, SetupConfig};
use crate::tuple::ExtendedTuple;
use spnet_crypto::rsa::RsaKeyPair;
use spnet_graph::ofloat::OrderedF64;
use spnet_graph::search::with_thread_workspace;
use spnet_graph::{Graph, NodeId, Path};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// DIJ's [`AuthMethod`] implementation: no pre-computed hints, the
/// Lemma 1 ball as ΓS, client-side subgraph Dijkstra as verification.
/// The only method supporting in-place edge-weight updates (its sole
/// authenticated state is the network Merkle tree).
#[derive(Debug, Clone, Copy, Default)]
pub struct DijMethod;

impl AuthMethod for DijMethod {
    fn name(&self) -> &'static str {
        "DIJ"
    }

    fn params_code(&self) -> u8 {
        1
    }

    fn build_hints(
        &self,
        _g: &Graph,
        _config: &MethodConfig,
        _setup: &SetupConfig,
        _keypair: &RsaKeyPair,
    ) -> (MethodHints, MethodParams) {
        (MethodHints::Dij, MethodParams::Dij)
    }

    fn make_tuple(&self, g: &Graph, v: NodeId, _hints: &MethodHints) -> ExtendedTuple {
        ExtendedTuple::base(g, v)
    }

    // DIJ inherits the default `repair_hints`: there are no hints to
    // repair, so an edge update only touches the endpoint tuples and
    // the one network re-sign the update driver performs.

    // DIJ persists nothing beyond the network ADS: the default
    // `snapshot_hints` writes no sections, and loading restores the
    // empty hint state.
    fn load_hints(
        &self,
        _g: &Graph,
        _store: &spnet_store::NodeStore,
    ) -> Result<MethodHints, crate::snapshot::SnapshotError> {
        Ok(MethodHints::Dij)
    }

    fn batch_members(
        &self,
        pkg: &ProviderPackage,
        vs: NodeId,
        _vt: NodeId,
        path: &Path,
    ) -> Vec<NodeId> {
        gamma_nodes(&pkg.graph, vs, path.distance)
    }

    fn prove_batch(
        &self,
        _pkg: &ProviderPackage,
        _queries: &[(NodeId, NodeId)],
    ) -> Result<BatchAux, ProviderError> {
        // The pooled subgraph tuples are the whole ΓS.
        Ok(BatchAux::Subgraph)
    }

    fn verify_batch_aux<'a>(
        &self,
        _ctx: &VerifyCtx<'_>,
        _params: &MethodParams,
        aux: &'a BatchAux,
    ) -> Result<AuxContext<'a>, VerifyError> {
        match aux {
            BatchAux::Subgraph => Ok(AuxContext::Subgraph),
            _ => Err(VerifyError::MetaMismatch(
                "batch proof shape does not match signed method",
            )),
        }
    }

    fn verify_batch_query(
        &self,
        _params: &MethodParams,
        _ctx: &AuxContext<'_>,
        _state: &BatchVerifyState,
        tuples: &TupleMap<'_>,
        vs: NodeId,
        vt: NodeId,
    ) -> Result<f64, VerifyError> {
        verify_subgraph_dijkstra(tuples, vs, vt)
    }
}

/// Relative slack applied to the Lemma 1 ball radius so that clients
/// summing weights in a different order never pop a missing tuple in
/// the honest case.
pub(crate) const RADIUS_SLACK: f64 = 1e-9;

/// Provider side: the node set of Lemma 1 —
/// `{v | dist(vs, v) ≤ dist(vs, vt)}` (with float slack).
///
/// Runs on the thread's reused search workspace: the only allocation
/// is the returned node list (in ascending id order, which fixes the
/// proof's tuple/position order).
pub fn gamma_nodes(g: &Graph, source: NodeId, sp_dist: f64) -> Vec<NodeId> {
    let radius = sp_dist * (1.0 + RADIUS_SLACK);
    with_thread_workspace(|ws| ws.ball(g, source, radius).settled_nodes().collect())
}

/// Client side: runs Dijkstra over the proof subgraph.
///
/// Returns the verified optimum `dist(vs, vt)`. The proof is *invalid*
/// (Section IV-A's validity check) if any node popped before the target
/// has no tuple in ΓS.
pub fn verify_subgraph_dijkstra(
    tuples: &HashMap<NodeId, &ExtendedTuple>,
    source: NodeId,
    target: NodeId,
) -> Result<f64, VerifyError> {
    if source == target {
        return Ok(0.0);
    }
    let mut dist: HashMap<NodeId, f64> = HashMap::new();
    let mut heap: BinaryHeap<Reverse<(OrderedF64, u32)>> = BinaryHeap::new();
    dist.insert(source, 0.0);
    heap.push(Reverse((OrderedF64::new(0.0), source.0)));
    while let Some(Reverse((OrderedF64(d), v))) = heap.pop() {
        let v = NodeId(v);
        if d > *dist.get(&v).unwrap_or(&f64::INFINITY) {
            continue; // stale
        }
        if v == target {
            return Ok(d);
        }
        // Validity: a node required by Dijkstra must be present in ΓS.
        let Some(t) = tuples.get(&v) else {
            return Err(VerifyError::MissingTuple(v));
        };
        for &(u, w) in &t.adj {
            let nd = d + w;
            if nd < *dist.get(&u).unwrap_or(&f64::INFINITY) {
                dist.insert(u, nd);
                heap.push(Reverse((OrderedF64::new(nd), u.0)));
            }
        }
    }
    Err(VerifyError::TargetUnreachable)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spnet_graph::algo::dijkstra_path;
    use spnet_graph::gen::grid_network;

    fn tuple_map(g: &Graph, nodes: &[NodeId]) -> Vec<ExtendedTuple> {
        nodes.iter().map(|&v| ExtendedTuple::base(g, v)).collect()
    }

    fn as_map(tuples: &[ExtendedTuple]) -> HashMap<NodeId, &ExtendedTuple> {
        tuples.iter().map(|t| (t.id, t)).collect()
    }

    #[test]
    fn gamma_contains_lemma1_ball() {
        let g = grid_network(10, 10, 1.15, 300);
        let (s, t) = (NodeId(0), NodeId(99));
        let d = dijkstra_path(&g, s, t).unwrap().distance;
        let gamma = gamma_nodes(&g, s, d);
        // Source, target, and every path node must be inside.
        let p = dijkstra_path(&g, s, t).unwrap();
        for v in &p.nodes {
            assert!(gamma.contains(v));
        }
    }

    #[test]
    fn client_recovers_exact_distance() {
        let g = grid_network(10, 10, 1.15, 301);
        for (s, t) in [(0u32, 99u32), (5, 50), (98, 1)] {
            let (s, t) = (NodeId(s), NodeId(t));
            let d = dijkstra_path(&g, s, t).unwrap().distance;
            let gamma = gamma_nodes(&g, s, d);
            let tuples = tuple_map(&g, &gamma);
            let got = verify_subgraph_dijkstra(&as_map(&tuples), s, t).unwrap();
            assert!((got - d).abs() <= 1e-9 * d.max(1.0));
        }
    }

    #[test]
    fn missing_tuple_detected() {
        let g = grid_network(8, 8, 1.15, 302);
        let (s, t) = (NodeId(0), NodeId(63));
        let d = dijkstra_path(&g, s, t).unwrap().distance;
        let mut gamma = gamma_nodes(&g, s, d);
        // Remove a node that Dijkstra must pop: any path node except
        // the endpoints.
        let p = dijkstra_path(&g, s, t).unwrap();
        let victim = p.nodes[p.nodes.len() / 2];
        gamma.retain(|&v| v != victim);
        let tuples = tuple_map(&g, &gamma);
        let err = verify_subgraph_dijkstra(&as_map(&tuples), s, t);
        // Either the victim is popped (MissingTuple) or (if an equal-
        // length detour exists) the verified distance is still exact —
        // on this seed it must be an error.
        assert!(matches!(err, Err(VerifyError::MissingTuple(_))), "{err:?}");
    }

    #[test]
    fn source_tuple_missing_detected() {
        let g = grid_network(6, 6, 1.1, 303);
        let (s, t) = (NodeId(0), NodeId(35));
        let tuples = tuple_map(&g, &[t]);
        let err = verify_subgraph_dijkstra(&as_map(&tuples), s, t);
        assert_eq!(err, Err(VerifyError::MissingTuple(s)));
    }

    #[test]
    fn trivial_query_zero() {
        let g = grid_network(4, 4, 1.1, 304);
        let tuples = tuple_map(&g, &[]);
        assert_eq!(
            verify_subgraph_dijkstra(&as_map(&tuples), NodeId(3), NodeId(3)).unwrap(),
            0.0
        );
    }

    #[test]
    fn unreachable_when_gamma_disconnected() {
        let g = grid_network(6, 6, 1.1, 305);
        // Γ containing only the source: target never reached, but the
        // search errors on the first pop (source present, neighbors
        // en-heaped, then their tuples missing).
        let tuples = tuple_map(&g, &[NodeId(0)]);
        let err = verify_subgraph_dijkstra(&as_map(&tuples), NodeId(0), NodeId(35));
        assert!(matches!(err, Err(VerifyError::MissingTuple(_))));
    }

    #[test]
    fn superset_gamma_still_exact() {
        // Extra authentic tuples cannot shrink the verified optimum.
        let g = grid_network(9, 9, 1.15, 306);
        let (s, t) = (NodeId(0), NodeId(80));
        let d = dijkstra_path(&g, s, t).unwrap().distance;
        let all: Vec<NodeId> = g.nodes().collect();
        let tuples = tuple_map(&g, &all);
        let got = verify_subgraph_dijkstra(&as_map(&tuples), s, t).unwrap();
        assert!((got - d).abs() <= 1e-9 * d.max(1.0));
    }
}
