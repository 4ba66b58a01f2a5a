//! Shortest-path algorithms.
//!
//! Everything the paper's framework requires:
//!
//! * [`dijkstra`] — single-source search in its full, point-to-point and
//!   bounded-ball variants (Section II-C "no pre-computation"; the
//!   bounded ball realizes Lemma 1's subgraph).
//! * [`astar`] — A\* with a pluggable lower-bound heuristic (used with
//!   landmark bounds by the LDM method, Lemma 2).
//! * [`bidirectional`] — bidirectional Dijkstra (Section II-C), an
//!   alternative `algosp`: the client accepts any shortest path.
//! * [`floyd_warshall`](mod@floyd_warshall) — the O(|V|³) all-pairs algorithm the paper's
//!   FULL method prescribes (Section IV-B).
//! * [`apsp`] — all-pairs via repeated Dijkstra (same output, far
//!   cheaper on sparse road networks; both are benchmarked).

pub mod apsp;
pub mod astar;
pub mod bidirectional;
pub mod dijkstra;
pub mod floyd_warshall;

pub use apsp::{apsp_dijkstra, apsp_dijkstra_parallel};
pub use astar::{astar_path, astar_search_space};
pub use bidirectional::bidirectional_path;
pub use dijkstra::{dijkstra_ball, dijkstra_path, dijkstra_sssp, SsspResult};
pub use floyd_warshall::floyd_warshall;
