//! Attack simulation: the malicious-provider behaviours the protocol
//! must detect (Section I's threat model).
//!
//! Each [`Attack`] takes an honest answer and mutates its first query
//! the way a compromised or profit-driven provider would; the
//! test-suite and the `tamper_detection` example assert that clients
//! reject every variant.

use crate::batch::BatchAnswer;
use spnet_graph::{Graph, NodeId};

/// A malicious-provider behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attack {
    /// Report a longer (e.g. sponsor-friendly) path, with its honest
    /// length, without touching the proofs.
    SuboptimalPath,
    /// Understate the reported path's distance (pretend the detour is
    /// as short as the optimum).
    UnderstatedDistance,
    /// Halve one edge weight inside a shipped tuple (fake a shortcut).
    TamperedWeight,
    /// Drop one non-endpoint tuple from the query's Γ.
    DroppedTuple,
    /// Splice a non-existent edge into the reported path.
    FakeEdge,
    /// Swap the reported path for a path between different endpoints.
    WrongEndpoints,
}

/// All attacks, for exhaustive test loops.
pub const ALL_ATTACKS: [Attack; 6] = [
    Attack::SuboptimalPath,
    Attack::UnderstatedDistance,
    Attack::TamperedWeight,
    Attack::DroppedTuple,
    Attack::FakeEdge,
    Attack::WrongEndpoints,
];

/// Applies `attack` to the first query of an honest `answer`.
///
/// Returns `None` when the attack is not expressible for this answer
/// (e.g. no alternative path exists for [`Attack::SuboptimalPath`], or
/// the proof carries no droppable tuple).
pub fn apply(attack: Attack, g: &Graph, answer: &BatchAnswer) -> Option<BatchAnswer> {
    let mut evil = answer.clone();
    let honest = &answer.queries.first()?.path;
    let query = &mut evil.queries[0];
    match attack {
        Attack::SuboptimalPath => {
            // Longest-detour heuristic: take the shortest path avoiding
            // the second node of the honest path.
            if honest.nodes.len() < 3 {
                return None;
            }
            let avoid = honest.nodes[1];
            let detour = shortest_avoiding(g, honest.source(), honest.target(), avoid)?;
            if detour.distance <= honest.distance * (1.0 + 1e-9) {
                return None; // equally short — not an attack
            }
            query.path = detour;
        }
        Attack::UnderstatedDistance => {
            query.path.distance *= 0.9;
        }
        Attack::TamperedWeight => {
            let t = evil.pool.iter_mut().find(|t| !t.adj.is_empty())?;
            // Pooled tuples are shared handles into the ADS table;
            // copy-on-write so the attack never corrupts the provider.
            std::sync::Arc::make_mut(t).adj[0].1 *= 0.5;
        }
        Attack::DroppedTuple => {
            let (src, tgt) = (honest.source(), honest.target());
            let pool = &evil.pool;
            let idx = query.members.iter().position(|&i| {
                let id = pool[i as usize].id;
                id != src && id != tgt
            })?;
            query.members.remove(idx);
        }
        Attack::FakeEdge => {
            // Shortcut the path: remove an interior node, pretending the
            // two nodes around it are adjacent.
            if query.path.nodes.len() < 3 {
                return None;
            }
            let mid = query.path.nodes.len() / 2;
            query.path.nodes.remove(mid);
        }
        Attack::WrongEndpoints => {
            let last = *query.path.nodes.last()?;
            let other = g
                .neighbors(last)
                .map(|(u, _)| u)
                .find(|u| !query.path.nodes.contains(u))?;
            query.path.nodes.push(other);
        }
    }
    Some(evil)
}

/// Shortest path from `s` to `t` in `g` that avoids node `avoid`.
fn shortest_avoiding(g: &Graph, s: NodeId, t: NodeId, avoid: NodeId) -> Option<spnet_graph::Path> {
    use spnet_graph::ofloat::OrderedF64;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let n = g.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[s.index()] = 0.0;
    heap.push(Reverse((OrderedF64::new(0.0), s.0)));
    while let Some(Reverse((OrderedF64(d), v))) = heap.pop() {
        let v = NodeId(v);
        if d > dist[v.index()] {
            continue;
        }
        if v == t {
            break;
        }
        for (u, w) in g.neighbors(v) {
            if u == avoid {
                continue;
            }
            let nd = d + w;
            if nd < dist[u.index()] {
                dist[u.index()] = nd;
                parent[u.index()] = Some(v);
                heap.push(Reverse((OrderedF64::new(nd), u.0)));
            }
        }
    }
    if dist[t.index()].is_infinite() {
        return None;
    }
    let mut nodes = vec![t];
    let mut cur = t;
    while let Some(p) = parent[cur.index()] {
        nodes.push(p);
        cur = p;
    }
    nodes.reverse();
    Some(spnet_graph::Path {
        nodes,
        distance: dist[t.index()],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::methods::{LdmConfig, MethodConfig};
    use crate::owner::{DataOwner, SetupConfig};
    use crate::provider::ServiceProvider;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spnet_graph::gen::grid_network;

    fn check_all_attacks_rejected(method: MethodConfig) {
        let g = grid_network(9, 9, 1.2, 1000);
        let mut rng = StdRng::seed_from_u64(1001);
        let p = DataOwner::publish(&g, &method, &SetupConfig::default(), &mut rng);
        let provider = ServiceProvider::new(p.package);
        let client = Client::new(p.public_key);
        let q = [(NodeId(0), NodeId(80))];
        let honest = provider.answer(&q).unwrap();
        client.verify(&q, &honest).expect("honest answer accepted");
        let mut applied = 0;
        for attack in ALL_ATTACKS {
            let Some(evil) = apply(attack, &g, &honest) else {
                continue;
            };
            applied += 1;
            let res = client.verify(&q, &evil);
            assert!(
                res.is_err(),
                "{}: attack {attack:?} was NOT detected",
                method.name()
            );
        }
        assert!(
            applied >= 4,
            "{}: too few attacks expressible",
            method.name()
        );
    }

    #[test]
    fn dij_detects_all_attacks() {
        check_all_attacks_rejected(MethodConfig::Dij);
    }

    #[test]
    fn full_detects_all_attacks() {
        check_all_attacks_rejected(MethodConfig::Full {
            use_floyd_warshall: false,
        });
    }

    #[test]
    fn ldm_detects_all_attacks() {
        check_all_attacks_rejected(MethodConfig::Ldm(LdmConfig {
            landmarks: 8,
            ..LdmConfig::default()
        }));
    }

    #[test]
    fn hyp_detects_all_attacks() {
        check_all_attacks_rejected(MethodConfig::Hyp { cells: 9 });
    }

    #[test]
    fn suboptimal_path_specifically_caught_as_not_shortest() {
        let g = grid_network(9, 9, 1.25, 1002);
        let mut rng = StdRng::seed_from_u64(1003);
        let p = DataOwner::publish(&g, &MethodConfig::Dij, &SetupConfig::default(), &mut rng);
        let provider = ServiceProvider::new(p.package);
        let client = Client::new(p.public_key);
        let q = [(NodeId(0), NodeId(80))];
        let honest = provider.answer(&q).unwrap();
        if let Some(evil) = apply(Attack::SuboptimalPath, &g, &honest) {
            let err = client.verify(&q, &evil).unwrap_err();
            assert!(
                matches!(
                    err,
                    crate::error::VerifyError::NotShortest { .. }
                        | crate::error::VerifyError::MissingTuple(_)
                ),
                "unexpected error {err:?}"
            );
        }
    }
}
