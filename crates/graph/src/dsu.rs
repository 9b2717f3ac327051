//! Union–find (disjoint set union) with path halving and union by size.

/// A disjoint-set forest over `0..n`.
#[derive(Debug, Clone)]
pub struct DisjointSets {
    parent: Vec<u32>,
    size: Vec<u32>,
    sets: usize,
}

impl DisjointSets {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "DisjointSets supports up to u32::MAX elements");
        Self { parent: (0..n as u32).collect(), size: vec![1; n], sets: n }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when there are no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets currently present.
    pub fn set_count(&self) -> usize {
        self.sets
    }

    /// Representative of the set containing `x`, with path halving.
    pub fn find(&mut self, mut x: usize) -> usize {
        loop {
            let p = self.parent[x] as usize;
            if p == x {
                return x;
            }
            let gp = self.parent[p];
            self.parent[x] = gp;
            x = gp as usize;
        }
    }

    /// Merges the sets containing `a` and `b`. Returns `true` when they were
    /// previously distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra as u32;
        self.size[ra] += self.size[rb];
        self.sets -= 1;
        true
    }

    /// True when `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Size of the set containing `x`.
    #[cfg(test)]
    pub(crate) fn size_of(&mut self, x: usize) -> usize {
        let r = self.find(x);
        self.size[r] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_initially() {
        let mut d = DisjointSets::new(5);
        assert_eq!(d.set_count(), 5);
        assert!(!d.connected(0, 1));
        assert_eq!(d.size_of(3), 1);
    }

    #[test]
    fn union_merges_and_counts() {
        let mut d = DisjointSets::new(4);
        assert!(d.union(0, 1));
        assert!(d.union(2, 3));
        assert_eq!(d.set_count(), 2);
        assert!(d.union(1, 2));
        assert_eq!(d.set_count(), 1);
        assert!(!d.union(0, 3), "already connected");
        assert!(d.connected(0, 3));
        assert_eq!(d.size_of(0), 4);
    }

    #[test]
    fn find_idempotent() {
        let mut d = DisjointSets::new(8);
        for i in 1..8 {
            d.union(0, i);
        }
        let r = d.find(7);
        assert_eq!(d.find(7), r);
        assert_eq!(d.find(0), r);
    }

    #[test]
    fn transitive_chains() {
        let mut d = DisjointSets::new(100);
        for i in 0..99 {
            d.union(i, i + 1);
        }
        assert_eq!(d.set_count(), 1);
        assert!(d.connected(0, 99));
        assert_eq!(d.size_of(50), 100);
    }

    #[test]
    fn empty_is_fine() {
        let d = DisjointSets::new(0);
        assert!(d.is_empty());
        assert_eq!(d.set_count(), 0);
    }
}
