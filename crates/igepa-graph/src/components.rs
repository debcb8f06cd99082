//! Sparse disjoint-set union over an arbitrary node universe.
//!
//! Node ids are often drawn from huge dense spaces (users and events)
//! of which a caller only touches a handful — so the union-find here is
//! **sparse**: state is allocated per *touched* node, found by binary
//! search over a sorted node table, keeping the whole structure
//! O(touched) rather than O(universe).
//!
//! Determinism: components are reported sorted by their smallest member,
//! with members sorted ascending — the grouping is a pure function of
//! the inserted nodes and union edges, independent of insertion order.

/// Sparse union-find: tracks connectivity among an explicitly inserted
/// set of `u64` node keys.
///
/// Callers encode their own id spaces into the key (e.g. users as `2k`,
/// events as `2k + 1`). All operations after [`DisjointSets::build`] are
/// O(α) amortised plus an O(log n) key lookup.
#[derive(Debug, Clone)]
pub struct DisjointSets {
    /// Sorted, deduplicated node keys; index in this table is the dense
    /// internal id.
    keys: Vec<u64>,
    parent: Vec<usize>,
    rank: Vec<u8>,
}

impl DisjointSets {
    /// Builds the structure over the given node keys (duplicates are
    /// collapsed; order does not matter).
    pub fn build(mut nodes: Vec<u64>) -> Self {
        nodes.sort_unstable();
        nodes.dedup();
        let n = nodes.len();
        DisjointSets {
            keys: nodes,
            parent: (0..n).collect(),
            rank: vec![0; n],
        }
    }

    /// Number of tracked nodes.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no nodes are tracked.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Dense internal id of `key`, if it was inserted.
    pub fn index_of(&self, key: u64) -> Option<usize> {
        self.keys.binary_search(&key).ok()
    }

    fn find(&mut self, mut i: usize) -> usize {
        while self.parent[i] != i {
            // Path halving.
            self.parent[i] = self.parent[self.parent[i]];
            i = self.parent[i];
        }
        i
    }

    /// Unions the sets containing `a` and `b`. Both keys must have been
    /// inserted at build time; unknown keys are ignored (the edge is
    /// irrelevant to the tracked universe).
    pub fn union(&mut self, a: u64, b: u64) {
        let (Some(a), Some(b)) = (self.index_of(a), self.index_of(b)) else {
            return;
        };
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
    }

    /// Whether `a` and `b` are currently in the same set (false if
    /// either key is unknown).
    pub fn connected(&mut self, a: u64, b: u64) -> bool {
        match (self.index_of(a), self.index_of(b)) {
            (Some(a), Some(b)) => self.find(a) == self.find(b),
            _ => false,
        }
    }

    /// Extracts the connected components as sorted member lists, ordered
    /// by smallest member — deterministic regardless of build or union
    /// order.
    pub fn components(mut self) -> Vec<Vec<u64>> {
        let n = self.keys.len();
        let mut by_root: std::collections::BTreeMap<usize, Vec<u64>> = Default::default();
        for i in 0..n {
            let root = self.find(i);
            by_root.entry(root).or_default().push(self.keys[i]);
        }
        // Keys were visited in ascending order, so each member list is
        // already sorted; sort the components by smallest member.
        let mut out: Vec<Vec<u64>> = by_root.into_values().collect();
        out.sort_by_key(|c| c[0]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_components_without_unions() {
        let sets = DisjointSets::build(vec![10, 3, 7, 3]);
        assert_eq!(sets.len(), 3);
        assert_eq!(sets.components(), vec![vec![3], vec![7], vec![10]]);
    }

    #[test]
    fn unions_merge_components_deterministically() {
        let mut a = DisjointSets::build(vec![1, 2, 3, 4, 5]);
        a.union(1, 3);
        a.union(5, 4);
        a.union(3, 2);
        let mut b = DisjointSets::build(vec![5, 4, 3, 2, 1]);
        b.union(3, 2);
        b.union(1, 3);
        b.union(4, 5);
        let components = a.components();
        assert_eq!(components, vec![vec![1, 2, 3], vec![4, 5]]);
        assert_eq!(components, b.components());
    }

    #[test]
    fn unknown_keys_are_ignored() {
        let mut sets = DisjointSets::build(vec![1, 2]);
        sets.union(1, 99);
        sets.union(98, 2);
        assert!(!sets.connected(1, 2));
        assert!(!sets.connected(1, 99));
        sets.union(1, 2);
        assert!(sets.connected(1, 2));
    }

    #[test]
    fn sparse_keys_far_apart_work() {
        let mut sets = DisjointSets::build(vec![0, u64::MAX, 1 << 40]);
        sets.union(0, u64::MAX);
        assert!(sets.connected(u64::MAX, 0));
        let components = sets.components();
        assert_eq!(components, vec![vec![0, u64::MAX], vec![1 << 40]]);
    }
}
