//! Contexts shaped like a Cable session's, for the tests that size the
//! lattice code.

use cable_fca::Context;
use cable_util::rng::{self, Rng};
use cable_util::BitSet;

/// A seeded context whose objects each get 2–8 distinct attributes,
/// drawn with a cubic bias towards low attribute indices, so that
/// objects share attributes the way traces through a small FA share
/// transitions.
pub fn session_shaped(seed: u64, objects: usize, attributes: usize) -> Context {
    let mut rng = rng::stream(seed, (objects * 1_000 + attributes) as u64);
    let rows: Vec<BitSet> = (0..objects)
        .map(|_| {
            let k = rng.gen_range(2usize..=8);
            let mut row = BitSet::with_capacity(attributes);
            while row.len() < k {
                let u: f64 = rng.gen();
                row.insert((u.powi(3) * attributes as f64) as usize);
            }
            row
        })
        .collect();
    Context::from_rows(rows, attributes)
}
