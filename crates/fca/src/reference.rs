//! The all-pairs Hasse assembly, kept as the oracle the neighbour rule of
//! [`ConceptLattice::try_from_concepts`] is tested against.
//!
//! For each concept `d` it collects every concept whose extent strictly
//! contains `d`'s, then keeps the minimal ones: `n²` subset tests plus a
//! minimality test over every pair of supersets. It sorts and indexes the
//! concept set as the lattice does and records no counters or spans;
//! only tests call it.

use crate::context::Context;
use crate::lattice::{sort_and_index, Concept, ConceptId, ConceptLattice, LatticeError};

/// Assembles the lattice of `concepts`, finding each concept's parents
/// by all-pairs subset tests.
///
/// # Errors
///
/// [`LatticeError::EmptyConceptSet`] or [`LatticeError::DuplicateExtent`].
pub fn try_from_concepts(concepts: Vec<Concept>) -> Result<ConceptLattice, LatticeError> {
    let (concepts, extent_index) = sort_and_index(concepts)?;
    let n = concepts.len();
    let mut children: Vec<Vec<ConceptId>> = vec![Vec::new(); n];
    let mut parents: Vec<Vec<ConceptId>> = vec![Vec::new(); n];
    for d in 0..n {
        // Strict supersets appear strictly earlier in sorted order.
        let supersets: Vec<usize> = (0..d)
            .filter(|&c| concepts[d].extent.is_proper_subset(&concepts[c].extent))
            .collect();
        for &c in &supersets {
            let minimal = supersets
                .iter()
                .all(|&e| e == c || !concepts[e].extent.is_proper_subset(&concepts[c].extent));
            if minimal {
                children[c].push(ConceptId(d as u32));
                parents[d].push(ConceptId(c as u32));
            }
        }
    }
    Ok(ConceptLattice::assemble(
        concepts,
        children,
        parents,
        extent_index,
    ))
}

/// Checks `lattice`, a lattice of `ctx`, against the all-pairs assembly
/// of its own concepts: the same concepts in the same order, and every
/// `children` and `parents` list equal, list for list.
///
/// # Errors
///
/// A message naming the first concept whose lists differ, followed by
/// the context's rows (each object's attributes), so a failing case can
/// be rebuilt without its seed.
pub fn check_covers(lattice: &ConceptLattice, ctx: &Context) -> Result<(), String> {
    let oracle = try_from_concepts(lattice.iter().map(|(_, c)| c.clone()).collect())
        .map_err(|e| e.to_string());
    let difference = oracle.and_then(|oracle| {
        lattice.ids().try_for_each(|id| {
            let (got, want) = (
                (
                    lattice.concept(id),
                    lattice.children(id),
                    lattice.parents(id),
                ),
                (oracle.concept(id), oracle.children(id), oracle.parents(id)),
            );
            if got == want {
                Ok(())
            } else {
                Err(format!(
                    "{id}: (concept, children, parents) {got:?}, all-pairs assembly {want:?}"
                ))
            }
        })
    });
    difference.map_err(|e| {
        let rows: Vec<Vec<usize>> = (0..ctx.object_count())
            .map(|o| ctx.row(o).to_vec())
            .collect();
        format!(
            "{e}\ncontext of {} attributes, rows {rows:?}",
            ctx.attribute_count()
        )
    })
}
