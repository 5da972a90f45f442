//! Formal contexts: objects, attributes, and the incidence relation.

use cable_util::BitSet;

/// A formal context `(O, A, R)` with `|O|` objects, `|A|` attributes, and
/// an incidence relation `R ⊆ O × A`.
///
/// Both the rows (attributes per object) and columns (objects per
/// attribute) are materialised as bit sets, making the derivation
/// operators `σ` and `τ` fast intersections.
///
/// # Examples
///
/// ```
/// use cable_fca::Context;
/// use cable_util::BitSet;
///
/// let mut ctx = Context::new(2, 3);
/// ctx.add(0, 0);
/// ctx.add(0, 1);
/// ctx.add(1, 1);
/// ctx.add(1, 2);
/// let both = ctx.sigma(&BitSet::full(2));
/// assert_eq!(both.to_vec(), vec![1]); // attribute 1 shared by all
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Context {
    n_objects: usize,
    n_attributes: usize,
    rows: Vec<BitSet>,
    cols: Vec<BitSet>,
}

impl Context {
    /// Creates an empty context with the given dimensions.
    pub fn new(n_objects: usize, n_attributes: usize) -> Self {
        Context {
            n_objects,
            n_attributes,
            rows: vec![BitSet::with_capacity(n_attributes); n_objects],
            cols: vec![BitSet::with_capacity(n_objects); n_attributes],
        }
    }

    /// Creates a context from per-object attribute rows.
    ///
    /// # Panics
    ///
    /// Panics if any row mentions an attribute `≥ n_attributes`.
    pub fn from_rows(rows: Vec<BitSet>, n_attributes: usize) -> Self {
        let mut ctx = Context::new(rows.len(), n_attributes);
        for (o, row) in rows.into_iter().enumerate() {
            for a in row.iter() {
                ctx.add(o, a);
            }
        }
        ctx
    }

    /// Appends a new object with the given attribute row, returning its
    /// index. Companion to [`crate::ConceptLattice::insert_objects`] for
    /// incremental updates.
    ///
    /// # Panics
    ///
    /// Panics if the row mentions an attribute `≥ attribute_count`.
    pub fn push_object(&mut self, row: &BitSet) -> usize {
        let object = self.n_objects;
        self.n_objects += 1;
        self.rows.push(BitSet::with_capacity(self.n_attributes));
        for a in row.iter() {
            self.add(object, a);
        }
        object
    }

    /// Records `(object, attribute) ∈ R`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn add(&mut self, object: usize, attribute: usize) {
        assert!(object < self.n_objects, "object out of range");
        assert!(attribute < self.n_attributes, "attribute out of range");
        self.rows[object].insert(attribute);
        self.cols[attribute].insert(object);
    }

    /// Tests whether `(object, attribute) ∈ R`.
    pub fn has(&self, object: usize, attribute: usize) -> bool {
        self.rows.get(object).is_some_and(|r| r.contains(attribute))
    }

    /// Number of objects.
    pub fn object_count(&self) -> usize {
        self.n_objects
    }

    /// Number of attributes.
    pub fn attribute_count(&self) -> usize {
        self.n_attributes
    }

    /// Number of incidence pairs.
    pub fn pair_count(&self) -> usize {
        self.rows.iter().map(BitSet::len).sum()
    }

    /// The attributes of one object.
    pub fn row(&self, object: usize) -> &BitSet {
        &self.rows[object]
    }

    /// The objects of one attribute.
    pub fn col(&self, attribute: usize) -> &BitSet {
        &self.cols[attribute]
    }

    /// `σ(X)`: attributes shared by every object in `X`. By convention
    /// `σ(∅)` is the full attribute set.
    pub fn sigma(&self, objects: &BitSet) -> BitSet {
        let mut result = BitSet::full(self.n_attributes);
        for o in objects.iter() {
            result.intersect_with(&self.rows[o]);
        }
        result
    }

    /// `τ(Y)`: objects that enjoy every attribute in `Y`. By convention
    /// `τ(∅)` is the full object set.
    pub fn tau(&self, attributes: &BitSet) -> BitSet {
        let mut result = BitSet::full(self.n_objects);
        for a in attributes.iter() {
            result.intersect_with(&self.cols[a]);
        }
        result
    }

    /// The attribute closure `σ(τ(Y))`.
    pub fn intent_closure(&self, attributes: &BitSet) -> BitSet {
        self.sigma(&self.tau(attributes))
    }

    /// The object closure `τ(σ(X))`.
    pub fn extent_closure(&self, objects: &BitSet) -> BitSet {
        self.tau(&self.sigma(objects))
    }

    /// The paper's similarity measure: `sim(X) = |σ(X)|`.
    pub fn similarity(&self, objects: &BitSet) -> usize {
        self.sigma(objects).len()
    }

    /// The largest row size — the `k` in the `O(2^{2k} |O|)` bound the
    /// paper quotes for Godin's algorithm (§3.1.1).
    pub fn max_row_size(&self) -> usize {
        self.rows.iter().map(BitSet::len).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn animals() -> Context {
        // Figure 9 of the paper (via Siff's thesis).
        let mut ctx = Context::new(5, 5);
        for (o, attrs) in [
            (0usize, vec![0usize, 1]), // cats
            (1, vec![1, 2, 4]),        // gibbons
            (2, vec![2, 3]),           // dolphins
            (3, vec![2, 4]),           // humans
            (4, vec![2, 3]),           // whales
        ] {
            for a in attrs {
                ctx.add(o, a);
            }
        }
        ctx
    }

    #[test]
    fn sigma_tau_basics() {
        let ctx = animals();
        assert_eq!(ctx.object_count(), 5);
        assert_eq!(ctx.attribute_count(), 5);
        assert_eq!(ctx.pair_count(), 11);
        // σ of all objects: nothing shared.
        assert!(ctx.sigma(&BitSet::full(5)).is_empty());
        // σ({gibbons, humans}) = {intelligent, thumbed}.
        let gh: BitSet = [1usize, 3].into_iter().collect();
        assert_eq!(ctx.sigma(&gh).to_vec(), vec![2, 4]);
        // τ({intelligent}) = everything but cats.
        assert_eq!(ctx.tau(&BitSet::singleton(2)).to_vec(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn empty_set_conventions() {
        let ctx = animals();
        assert_eq!(ctx.sigma(&BitSet::new()), BitSet::full(5));
        assert_eq!(ctx.tau(&BitSet::new()), BitSet::full(5));
    }

    #[test]
    fn closures_are_closures() {
        let ctx = animals();
        // closure is extensive, monotone, idempotent — spot-check.
        let y = BitSet::singleton(3); // marine
        let c = ctx.intent_closure(&y);
        assert!(y.is_subset(&c));
        assert_eq!(ctx.intent_closure(&c), c);
        // marine implies intelligent here.
        assert_eq!(c.to_vec(), vec![2, 3]);
    }

    #[test]
    fn similarity_is_antitone() {
        let ctx = animals();
        let small: BitSet = [1usize].into_iter().collect();
        let large: BitSet = [1usize, 3].into_iter().collect();
        assert!(ctx.similarity(&small) >= ctx.similarity(&large));
    }

    #[test]
    fn from_rows_round_trip() {
        let ctx = animals();
        let rows: Vec<BitSet> = (0..5).map(|o| ctx.row(o).clone()).collect();
        let ctx2 = Context::from_rows(rows, 5);
        assert_eq!(ctx, ctx2);
    }

    #[test]
    fn max_row_size() {
        assert_eq!(animals().max_row_size(), 3);
        assert_eq!(Context::new(0, 4).max_row_size(), 0);
    }

    #[test]
    #[should_panic(expected = "attribute out of range")]
    fn add_checks_bounds() {
        let mut ctx = Context::new(1, 1);
        ctx.add(0, 1);
    }
}
