//! Bidirectional Dijkstra \[24\]: simultaneous forward and backward
//! expansion, meeting in the middle.
//!
//! An alternative `algosp` (Algorithm 1, Line 1) — the verification
//! framework is agnostic to how the provider computes the path, so the
//! client accepts any shortest path it finds.
//!
//! Runs on this thread's reused pair of
//! [`SearchWorkspace`](crate::search::SearchWorkspace)s (one per
//! frontier): repeated queries perform zero per-query `O(|V|)`
//! allocations once the workspaces have grown to the graph size — the
//! seed implementation allocated six `O(|V|)` vectors plus two binary
//! heaps per call.

use crate::error::GraphError;
use crate::graph::Graph;
use crate::ids::NodeId;
use crate::path::Path;
use crate::search::with_thread_bi_workspace;

/// Point-to-point bidirectional Dijkstra on the undirected graph.
pub fn bidirectional_path(g: &Graph, source: NodeId, target: NodeId) -> Result<Path, GraphError> {
    g.check_node(source)?;
    g.check_node(target)?;
    if source == target {
        return Ok(Path::trivial(source));
    }
    with_thread_bi_workspace(|fwd, bwd| {
        fwd.begin_manual(g, source);
        bwd.begin_manual(g, target);

        let mut best = f64::INFINITY;
        let mut meet: Option<NodeId> = None;

        loop {
            // Pick the side with the smaller tentative key.
            let fwd_key = fwd.peek_key();
            let bwd_key = bwd.peek_key();
            let side = match (fwd_key, bwd_key) {
                (None, None) => break,
                (Some(_), None) => 0,
                (None, Some(_)) => 1,
                (Some(a), Some(b)) => usize::from(a > b),
            };
            let (this, other) = if side == 0 {
                (&mut *fwd, &mut *bwd)
            } else {
                (&mut *bwd, &mut *fwd)
            };
            let Some((v, d)) = this.pop_settle() else {
                break;
            };
            // Termination: when the two frontiers' minimum keys sum past
            // the best meeting distance, no better path can appear.
            let other_min = other.peek_key().unwrap_or(f64::INFINITY);
            if d + other_min >= best && meet.is_some() {
                break;
            }
            for (u, w) in g.neighbors(NodeId(v)) {
                let ui = u.index();
                this.relax(u.0, v, d + w);
                // Candidate meeting point (tentative distances count).
                let total = this.current_dist(ui) + other.current_dist(ui);
                if total < best {
                    best = total;
                    meet = Some(u);
                }
            }
            let vi = v as usize;
            let total_v = this.current_dist(vi) + other.current_dist(vi);
            if total_v < best {
                best = total_v;
                meet = Some(NodeId(v));
            }
        }

        let Some(m) = meet else {
            return Err(GraphError::Unreachable { source, target });
        };
        // Stitch the two half-paths at the meeting node.
        let mut nodes = vec![m];
        let mut cur = m.index();
        while let Some(p) = fwd.current_parent(cur) {
            nodes.push(NodeId(p));
            cur = p as usize;
        }
        nodes.reverse();
        let mut cur = m.index();
        while let Some(p) = bwd.current_parent(cur) {
            nodes.push(NodeId(p));
            cur = p as usize;
        }
        Ok(Path {
            nodes,
            distance: best,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::dijkstra::dijkstra_path;
    use crate::gen::{grid_network, random_geometric};

    #[test]
    fn matches_dijkstra_on_grid() {
        let g = grid_network(12, 12, 1.2, 10);
        for (s, t) in [(0u32, 143u32), (7, 100), (60, 61), (143, 0), (12, 131)] {
            let d = dijkstra_path(&g, NodeId(s), NodeId(t)).unwrap();
            let b = bidirectional_path(&g, NodeId(s), NodeId(t)).unwrap();
            assert!(
                (d.distance - b.distance).abs() < 1e-9,
                "({s},{t}): {} vs {}",
                d.distance,
                b.distance
            );
            assert!(b.distance_consistent(&g));
            assert_eq!(b.source(), NodeId(s));
            assert_eq!(b.target(), NodeId(t));
        }
    }

    #[test]
    fn matches_dijkstra_on_geometric() {
        let g = random_geometric(150, 4, 11);
        let mut checked = 0;
        for (s, t) in [(0u32, 149u32), (10, 90), (50, 51), (120, 3)] {
            let d = dijkstra_path(&g, NodeId(s), NodeId(t));
            let b = bidirectional_path(&g, NodeId(s), NodeId(t));
            match (d, b) {
                (Ok(d), Ok(b)) => {
                    assert!((d.distance - b.distance).abs() < 1e-9);
                    checked += 1;
                }
                (Err(_), Err(_)) => {}
                (x, y) => panic!("disagreement on reachability: {x:?} vs {y:?}"),
            }
        }
        assert!(checked > 0, "geometric graph too disconnected for test");
    }

    #[test]
    fn reuse_across_queries_and_graphs() {
        // The workspace pair is thread-local state: interleaved queries
        // on different graphs must not leak search state.
        let g1 = grid_network(10, 10, 1.2, 13);
        let g2 = random_geometric(60, 3, 14);
        for _ in 0..3 {
            for (s, t) in [(0u32, 99u32), (99, 0), (5, 50)] {
                let want = dijkstra_path(&g1, NodeId(s), NodeId(t)).unwrap();
                let got = bidirectional_path(&g1, NodeId(s), NodeId(t)).unwrap();
                assert!((want.distance - got.distance).abs() < 1e-9);
                assert!(got.distance_consistent(&g1));
            }
            match (
                dijkstra_path(&g2, NodeId(0), NodeId(59)),
                bidirectional_path(&g2, NodeId(0), NodeId(59)),
            ) {
                (Ok(d), Ok(b)) => assert!((d.distance - b.distance).abs() < 1e-9),
                (Err(_), Err(_)) => {}
                (x, y) => panic!("disagreement on reachability: {x:?} vs {y:?}"),
            }
        }
    }

    #[test]
    fn trivial_query() {
        let g = grid_network(4, 4, 1.0, 12);
        let p = bidirectional_path(&g, NodeId(5), NodeId(5)).unwrap();
        assert_eq!(p.distance, 0.0);
    }

    #[test]
    fn unreachable_detected() {
        let mut b = crate::builder::GraphBuilder::new();
        let u = b.add_node(0.0, 0.0);
        let v = b.add_node(1.0, 1.0);
        let g = b.build();
        assert!(bidirectional_path(&g, u, v).is_err());
    }
}
