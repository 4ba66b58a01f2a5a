//! Query proofs: the integrity proof ΓT and proof-size accounting.
//!
//! Algorithm 1 of the paper returns, for every query, the result path
//! `P_rslt` plus the pair `(ΓS, ΓT)`. Answers ship as
//! [`BatchAnswer`](crate::batch::BatchAnswer)s — a single query is a
//! batch of one — whose tuple pool and method aux block form ΓS. This
//! module defines ΓT and the size/item accounting the experiments
//! report (Figures 8a/8b).

use crate::ads::SignedRoot;
use spnet_crypto::merkle::MerkleProof;

/// The integrity proof ΓT: Merkle cover digests plus the leaf position
/// of every tuple shipped in ΓS (positions are bound by reconstruction
/// — lying about one changes the root).
#[derive(Debug, Clone, PartialEq)]
pub struct IntegrityProof {
    /// Leaf positions, parallel to the answer's tuple pool.
    pub positions: Vec<u32>,
    /// Merkle cover digests per Merkle's rule.
    pub merkle: MerkleProof,
    /// The owner-signed network root this proof verifies against.
    pub signed_root: SignedRoot,
}

impl IntegrityProof {
    /// Number of digest items — the paper's "T-prf" item count.
    pub fn num_items(&self) -> usize {
        self.merkle.num_items()
    }

    /// Serialized size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.positions.len() * 4 + self.merkle.size_bytes() + self.signed_root.size_bytes()
    }
}

/// Communication-overhead accounting for one answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProofStats {
    /// Items in ΓS (tuples + materialized entries + digests).
    pub s_items: usize,
    /// Digest items in ΓT.
    pub t_items: usize,
    /// ΓS bytes.
    pub s_bytes: usize,
    /// ΓT bytes.
    pub t_bytes: usize,
    /// Bytes of the reported path itself.
    pub path_bytes: usize,
}

impl ProofStats {
    /// Total communication overhead in bytes (ΓS + ΓT + path).
    pub fn total_bytes(&self) -> usize {
        self.s_bytes + self.t_bytes + self.path_bytes
    }

    /// Total in KBytes, as the figures plot.
    pub fn total_kbytes(&self) -> f64 {
        self.total_bytes() as f64 / 1024.0
    }

    /// Element-wise accumulation (for workload averaging).
    pub fn add(&mut self, other: &ProofStats) {
        self.s_items += other.s_items;
        self.t_items += other.t_items;
        self.s_bytes += other.s_bytes;
        self.t_bytes += other.t_bytes;
        self.path_bytes += other.path_bytes;
    }

    /// Divides all counters by `n` (workload averaging).
    pub fn scale_down(&self, n: usize) -> ProofStats {
        assert!(n > 0);
        ProofStats {
            s_items: self.s_items / n,
            t_items: self.t_items / n,
            s_bytes: self.s_bytes / n,
            t_bytes: self.t_bytes / n,
            path_bytes: self.path_bytes / n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_arithmetic() {
        let mut a = ProofStats {
            s_items: 10,
            t_items: 20,
            s_bytes: 1000,
            t_bytes: 2000,
            path_bytes: 48,
        };
        let b = a;
        a.add(&b);
        assert_eq!(a.s_items, 20);
        assert_eq!(a.total_bytes(), 2 * 3048);
        let avg = a.scale_down(2);
        assert_eq!(avg.s_bytes, 1000);
        assert!((b.total_kbytes() - 3048.0 / 1024.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn scale_down_zero_panics() {
        let s = ProofStats::default();
        let _ = s.scale_down(0);
    }
}
