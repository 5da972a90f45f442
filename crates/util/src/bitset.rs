//! A dense, growable bit set.
//!
//! [`BitSet`] stores a set of small `usize` values in packed 64-bit blocks.
//! It is the workhorse of the FCA implementation (concept extents and
//! intents) and of the automaton reachability analyses, so the subset and
//! intersection operations are the hot paths and operate block-wise.
//!
//! The representation invariant is that trailing all-zero blocks may exist
//! (capacity is allowed to exceed the largest element) but all operations
//! behave as if the set were infinite and zero-padded; equality and hashing
//! are normalised so that capacity differences are unobservable.

use std::fmt;
use std::hash::{Hash, Hasher};

const BITS: usize = 64;

/// A dense set of `usize` values backed by `u64` blocks.
///
/// # Examples
///
/// ```
/// use cable_util::BitSet;
///
/// let mut s = BitSet::new();
/// s.insert(2);
/// s.insert(900);
/// assert!(s.contains(2));
/// assert!(!s.contains(3));
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![2, 900]);
/// ```
#[derive(Default)]
pub struct BitSet {
    blocks: Vec<u64>,
}

impl Clone for BitSet {
    fn clone(&self) -> Self {
        BitSet {
            blocks: self.blocks.clone(),
        }
    }

    /// Copies `source` into `self`'s allocation, so a scratch set reused
    /// across loop iterations allocates once.
    fn clone_from(&mut self, source: &Self) {
        self.blocks.clone_from(&source.blocks);
    }
}

impl BitSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        BitSet { blocks: Vec::new() }
    }

    /// Creates an empty set with capacity for values `< n` without
    /// reallocation.
    pub fn with_capacity(n: usize) -> Self {
        BitSet {
            blocks: vec![0; n.div_ceil(BITS)],
        }
    }

    /// Creates a set containing every value in `0..n`.
    ///
    /// # Examples
    ///
    /// ```
    /// let s = cable_util::BitSet::full(70);
    /// assert_eq!(s.len(), 70);
    /// assert!(s.contains(69));
    /// assert!(!s.contains(70));
    /// ```
    pub fn full(n: usize) -> Self {
        let mut s = BitSet::with_capacity(n);
        for blk in 0..n / BITS {
            s.blocks[blk] = !0;
        }
        let rem = n % BITS;
        if rem > 0 {
            s.blocks[n / BITS] = (1u64 << rem) - 1;
        }
        s
    }

    /// Creates the set whose packed blocks are `blocks`: value
    /// `64 · i + b` is in the set iff bit `b` of `blocks[i]` is set.
    ///
    /// # Examples
    ///
    /// ```
    /// let s = cable_util::BitSet::from_blocks(vec![0b101, 1]);
    /// assert_eq!(s.to_vec(), vec![0, 2, 64]);
    /// ```
    pub fn from_blocks(blocks: Vec<u64>) -> Self {
        BitSet { blocks }
    }

    /// Creates a set containing a single value.
    pub fn singleton(v: usize) -> Self {
        let mut s = BitSet::new();
        s.insert(v);
        s
    }

    fn grow_for(&mut self, value: usize) {
        let need = value / BITS + 1;
        if self.blocks.len() < need {
            self.blocks.resize(need, 0);
        }
    }

    /// Inserts `value`, returning `true` if it was not already present.
    pub fn insert(&mut self, value: usize) -> bool {
        self.grow_for(value);
        let (blk, bit) = (value / BITS, value % BITS);
        let had = self.blocks[blk] & (1 << bit) != 0;
        self.blocks[blk] |= 1 << bit;
        !had
    }

    /// Removes `value`, returning `true` if it was present.
    pub fn remove(&mut self, value: usize) -> bool {
        let (blk, bit) = (value / BITS, value % BITS);
        if blk >= self.blocks.len() {
            return false;
        }
        let had = self.blocks[blk] & (1 << bit) != 0;
        self.blocks[blk] &= !(1 << bit);
        had
    }

    /// Tests whether `value` is in the set.
    pub fn contains(&self, value: usize) -> bool {
        let (blk, bit) = (value / BITS, value % BITS);
        blk < self.blocks.len() && self.blocks[blk] & (1 << bit) != 0
    }

    /// Number of elements in the set.
    pub fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Tests whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// Removes all elements, keeping the allocation.
    pub fn clear(&mut self) {
        for b in &mut self.blocks {
            *b = 0;
        }
    }

    /// The smallest element, if any.
    pub fn first(&self) -> Option<usize> {
        for (i, &b) in self.blocks.iter().enumerate() {
            if b != 0 {
                return Some(i * BITS + b.trailing_zeros() as usize);
            }
        }
        None
    }

    /// The largest element, if any.
    pub fn last(&self) -> Option<usize> {
        for (i, &b) in self.blocks.iter().enumerate().rev() {
            if b != 0 {
                return Some(i * BITS + (BITS - 1 - b.leading_zeros() as usize));
            }
        }
        None
    }

    /// Tests whether `self ⊆ other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        for (i, &b) in self.blocks.iter().enumerate() {
            let o = other.blocks.get(i).copied().unwrap_or(0);
            if b & !o != 0 {
                return false;
            }
        }
        true
    }

    /// Tests whether `self ⊇ other`.
    pub fn is_superset(&self, other: &BitSet) -> bool {
        other.is_subset(self)
    }

    /// Tests whether the sets share no element.
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        self.blocks
            .iter()
            .zip(other.blocks.iter())
            .all(|(&a, &b)| a & b == 0)
    }

    /// Tests whether `self ⊂ other` (proper subset).
    pub fn is_proper_subset(&self, other: &BitSet) -> bool {
        self.is_subset(other) && !other.is_subset(self)
    }

    /// `self ∩ other` as a new set.
    pub fn intersection(&self, other: &BitSet) -> BitSet {
        let n = self.blocks.len().min(other.blocks.len());
        let blocks = (0..n).map(|i| self.blocks[i] & other.blocks[i]).collect();
        BitSet { blocks }
    }

    /// `self ∪ other` as a new set.
    pub fn union(&self, other: &BitSet) -> BitSet {
        let n = self.blocks.len().max(other.blocks.len());
        let blocks = (0..n)
            .map(|i| {
                self.blocks.get(i).copied().unwrap_or(0) | other.blocks.get(i).copied().unwrap_or(0)
            })
            .collect();
        BitSet { blocks }
    }

    /// `self \ other` as a new set.
    pub fn difference(&self, other: &BitSet) -> BitSet {
        let blocks = self
            .blocks
            .iter()
            .enumerate()
            .map(|(i, &b)| b & !other.blocks.get(i).copied().unwrap_or(0))
            .collect();
        BitSet { blocks }
    }

    /// Symmetric difference `self Δ other` as a new set.
    pub fn symmetric_difference(&self, other: &BitSet) -> BitSet {
        let n = self.blocks.len().max(other.blocks.len());
        let blocks = (0..n)
            .map(|i| {
                self.blocks.get(i).copied().unwrap_or(0) ^ other.blocks.get(i).copied().unwrap_or(0)
            })
            .collect();
        BitSet { blocks }
    }

    /// In-place `self ∩= other`.
    pub fn intersect_with(&mut self, other: &BitSet) {
        for (i, b) in self.blocks.iter_mut().enumerate() {
            *b &= other.blocks.get(i).copied().unwrap_or(0);
        }
    }

    /// In-place `self ∪= other`.
    pub fn union_with(&mut self, other: &BitSet) {
        if other.blocks.len() > self.blocks.len() {
            self.blocks.resize(other.blocks.len(), 0);
        }
        for (i, &b) in other.blocks.iter().enumerate() {
            self.blocks[i] |= b;
        }
    }

    /// In-place `self \= other`.
    pub fn difference_with(&mut self, other: &BitSet) {
        for (i, b) in self.blocks.iter_mut().enumerate() {
            *b &= !other.blocks.get(i).copied().unwrap_or(0);
        }
    }

    /// Size of the intersection, without allocating.
    pub fn intersection_len(&self, other: &BitSet) -> usize {
        self.blocks
            .iter()
            .zip(other.blocks.iter())
            .map(|(&a, &b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Iterates over the elements in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            block: 0,
            bits: self.blocks.first().copied().unwrap_or(0),
        }
    }

    /// Collects the elements into a `Vec` in increasing order.
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }

    /// A canonical key usable for hashing/interning: the blocks with
    /// trailing zero blocks stripped.
    pub fn canonical_blocks(&self) -> &[u64] {
        let mut n = self.blocks.len();
        while n > 0 && self.blocks[n - 1] == 0 {
            n -= 1;
        }
        &self.blocks[..n]
    }
}

impl PartialEq for BitSet {
    fn eq(&self, other: &Self) -> bool {
        self.canonical_blocks() == other.canonical_blocks()
    }
}

impl Eq for BitSet {}

impl Hash for BitSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.canonical_blocks().hash(state);
    }
}

impl PartialOrd for BitSet {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BitSet {
    /// Lexicographic order on the canonical block representation. This is
    /// an arbitrary but total order used for deterministic sorting; it is
    /// *not* the subset order.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.canonical_blocks().cmp(other.canonical_blocks())
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl fmt::Display for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<usize> for BitSet {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let mut s = BitSet::new();
        for v in iter {
            s.insert(v);
        }
        s
    }
}

impl Extend<usize> for BitSet {
    fn extend<T: IntoIterator<Item = usize>>(&mut self, iter: T) {
        for v in iter {
            self.insert(v);
        }
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = usize;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Iterator over the elements of a [`BitSet`] in increasing order.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    set: &'a BitSet,
    block: usize,
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.bits != 0 {
                let bit = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some(self.block * BITS + bit);
            }
            self.block += 1;
            if self.block >= self.set.blocks.len() {
                return None;
            }
            self.bits = self.set.blocks[self.block];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new();
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.contains(5));
        assert!(!s.contains(4));
        assert!(s.remove(5));
        assert!(!s.remove(5));
        assert!(s.is_empty());
    }

    #[test]
    fn grows_across_blocks() {
        let mut s = BitSet::new();
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(500);
        assert_eq!(s.len(), 4);
        assert_eq!(s.to_vec(), vec![0, 63, 64, 500]);
    }

    #[test]
    fn full_and_bounds() {
        let s = BitSet::full(130);
        assert_eq!(s.len(), 130);
        assert!(s.contains(129));
        assert!(!s.contains(130));
        assert_eq!(s.first(), Some(0));
        assert_eq!(s.last(), Some(129));
        assert_eq!(BitSet::full(0).len(), 0);
        assert_eq!(BitSet::full(64).len(), 64);
    }

    #[test]
    fn empty_first_last() {
        let s = BitSet::new();
        assert_eq!(s.first(), None);
        assert_eq!(s.last(), None);
    }

    #[test]
    fn subset_superset() {
        let a: BitSet = [1usize, 2, 65].into_iter().collect();
        let b: BitSet = [1usize, 2, 65, 100].into_iter().collect();
        assert!(a.is_subset(&b));
        assert!(b.is_superset(&a));
        assert!(!b.is_subset(&a));
        assert!(a.is_proper_subset(&b));
        assert!(!a.is_proper_subset(&a));
        // Differently-sized internal representations still compare correctly.
        let mut c = BitSet::with_capacity(1000);
        c.insert(1);
        c.insert(2);
        c.insert(65);
        assert!(c.is_subset(&a));
        assert!(a.is_subset(&c));
        assert_eq!(a, c);
    }

    #[test]
    fn set_algebra() {
        let a: BitSet = [1usize, 2, 3, 64].into_iter().collect();
        let b: BitSet = [2usize, 3, 4, 128].into_iter().collect();
        assert_eq!(a.intersection(&b).to_vec(), vec![2, 3]);
        assert_eq!(a.union(&b).to_vec(), vec![1, 2, 3, 4, 64, 128]);
        assert_eq!(a.difference(&b).to_vec(), vec![1, 64]);
        assert_eq!(a.symmetric_difference(&b).to_vec(), vec![1, 4, 64, 128]);
        assert_eq!(a.intersection_len(&b), 2);
        assert!(!a.is_disjoint(&b));
        let c = BitSet::singleton(999);
        assert!(a.is_disjoint(&c));
    }

    #[test]
    fn in_place_ops_match_owned() {
        let a: BitSet = [1usize, 2, 3, 64].into_iter().collect();
        let b: BitSet = [2usize, 3, 4, 128].into_iter().collect();
        let mut x = a.clone();
        x.intersect_with(&b);
        assert_eq!(x, a.intersection(&b));
        let mut y = a.clone();
        y.union_with(&b);
        assert_eq!(y, a.union(&b));
        let mut z = a.clone();
        z.difference_with(&b);
        assert_eq!(z, a.difference(&b));
    }

    #[test]
    fn equality_ignores_capacity() {
        let mut a = BitSet::with_capacity(1024);
        let mut b = BitSet::new();
        a.insert(3);
        b.insert(3);
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut ha = DefaultHasher::new();
        let mut hb = DefaultHasher::new();
        a.hash(&mut ha);
        b.hash(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
    }

    #[test]
    fn display_formats() {
        let s: BitSet = [1usize, 5].into_iter().collect();
        assert_eq!(format!("{s}"), "{1, 5}");
        assert_eq!(format!("{s:?}"), "{1, 5}");
        assert_eq!(format!("{}", BitSet::new()), "{}");
    }

    #[test]
    fn clone_from_and_from_blocks_round_trip() {
        let a: BitSet = [1usize, 2, 65].into_iter().collect();
        let mut scratch = BitSet::full(300);
        scratch.clone_from(&a);
        assert_eq!(scratch, a);
        assert_eq!(BitSet::from_blocks(a.canonical_blocks().to_vec()), a);
    }

    #[test]
    fn clear_keeps_working() {
        let mut s: BitSet = [1usize, 100].into_iter().collect();
        s.clear();
        assert!(s.is_empty());
        s.insert(7);
        assert_eq!(s.to_vec(), vec![7]);
    }
}
