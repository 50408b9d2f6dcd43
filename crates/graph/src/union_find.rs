//! Disjoint-set forest (union-find) with path compression and union by rank.
//!
//! The `P(i,j)` properties of the paper are statements about the number of
//! connected components of the undirected underlying graph of `(G)_{i,j}`;
//! all component computations in this workspace are built on this structure.

use std::ops::Range;

/// A disjoint-set forest over the elements `0 .. len`.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    components: usize,
}

impl UnionFind {
    /// Creates `len` singleton sets.
    pub fn new(len: usize) -> Self {
        assert!(len <= u32::MAX as usize, "too many elements for u32 ids");
        UnionFind {
            parent: (0..len as u32).collect(),
            rank: vec![0; len],
            components: len,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// `true` when the structure has no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets currently present.
    pub fn component_count(&self) -> usize {
        self.components
    }

    /// Finds the representative of `x`'s set (with path halving).
    #[inline]
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grandparent = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grandparent;
            x = grandparent;
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns `true` if they were distinct.
    #[inline]
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo as usize] = hi;
        if self.rank[hi as usize] == self.rank[lo as usize] {
            self.rank[hi as usize] += 1;
        }
        self.components -= 1;
        true
    }

    /// Returns, for every element, a compact component id in
    /// `0 .. component_count()`, numbered in order of first appearance.
    pub fn component_ids(&mut self) -> Vec<u32> {
        let mut root_ids = vec![u32::MAX; self.len()];
        self.compact_ids(0..self.len() as u32, &mut root_ids)
    }

    /// Compact ids for the elements of `range`, numbered by first appearance
    /// of their set. `root_ids` is a dense table indexed by root, `len()`
    /// entries of `u32::MAX`; only the entries touched are written, and they
    /// are reset before returning.
    pub(crate) fn compact_ids(&mut self, range: Range<u32>, root_ids: &mut [u32]) -> Vec<u32> {
        let mut roots = Vec::new();
        let ids = range
            .map(|x| {
                let root = self.find(x) as usize;
                if root_ids[root] == u32::MAX {
                    root_ids[root] = roots.len() as u32;
                    roots.push(root);
                }
                root_ids[root]
            })
            .collect();
        for root in roots {
            root_ids[root] = u32::MAX;
        }
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_start_disconnected() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.component_count(), 5);
        assert_ne!(uf.find(0), uf.find(1));
        assert_eq!(uf.len(), 5);
        assert!(!uf.is_empty());
    }

    #[test]
    fn union_merges_and_counts() {
        let mut uf = UnionFind::new(6);
        assert!(uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert!(!uf.union(1, 0), "already merged");
        assert_eq!(uf.component_count(), 4);
        assert!(uf.union(1, 2));
        assert_eq!(uf.component_count(), 3);
        assert_eq!(uf.find(0), uf.find(3));
        assert_ne!(uf.find(0), uf.find(4));
    }

    #[test]
    fn component_ids_are_compact_and_consistent() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 2);
        uf.union(3, 5);
        let ids = uf.component_ids();
        assert_eq!(ids.len(), 6);
        assert_eq!(ids[0], ids[2]);
        assert_eq!(ids[3], ids[5]);
        assert_ne!(ids[0], ids[3]);
        assert_eq!(
            *ids.iter().max().unwrap() as usize + 1,
            uf.component_count()
        );
        // ids are numbered in first-appearance order, so element 0 gets id 0.
        assert_eq!(ids[0], 0);
        assert_eq!(ids[1], 1);
    }

    #[test]
    fn long_chain_fully_connects() {
        let n = 1000;
        let mut uf = UnionFind::new(n);
        for i in 0..(n as u32 - 1) {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.component_count(), 1);
        assert_eq!(uf.find(0), uf.find(n as u32 - 1));
    }

    #[test]
    fn empty_structure_is_fine() {
        let mut uf = UnionFind::new(0);
        assert_eq!(uf.component_count(), 0);
        assert!(uf.is_empty());
        assert!(uf.component_ids().is_empty());
    }
}
