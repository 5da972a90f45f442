//! A small hasher for maps keyed by bit-set words.
//!
//! The concept-lattice code keeps hash maps keyed by [`crate::BitSet`]s
//! and by raw `u64` word rows: the extent index every lattice keeps, and
//! the set of intents Godin's insertion loop looks each candidate up in.
//! Their keys are a few words long and std's SipHash costs more than the
//! lookups around it. [`WordHasher`] folds each 64-bit word into its
//! state with one 64 × 64 → 128-bit multiply.
//!
//! [`WordState`] seeds every hasher from one key drawn per process (from
//! std's [`RandomState`], so from the operating system's randomness).
//! Those maps hold sets read from untrusted input — snapshots, ingested
//! traces — and a seed an input cannot know keeps a crafted input from
//! piling every key into one bucket. A map keyed this way iterates in an
//! order that follows the seed, so no output may depend on iterating one.
//!
//! # Examples
//!
//! ```
//! use cable_util::hash::WordState;
//! use cable_util::BitSet;
//! use std::collections::HashMap;
//!
//! let mut index: HashMap<BitSet, u32, WordState> = HashMap::default();
//! index.insert([1usize, 70].into_iter().collect(), 7);
//! assert_eq!(index.get(&[1usize, 70].into_iter().collect::<BitSet>()), Some(&7));
//! ```

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// The odd multiplier of the fold (the 64-bit golden ratio).
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// The two halves of the 128-bit product `a · b`, xored together.
#[inline]
fn fold(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

/// The process's hash key, drawn once.
fn process_key() -> u64 {
    static KEY: OnceLock<u64> = OnceLock::new();
    *KEY.get_or_init(|| RandomState::new().hash_one(MULTIPLIER))
}

/// Builds [`WordHasher`]s seeded with the process's key.
#[derive(Debug, Clone, Copy)]
pub struct WordState {
    key: u64,
}

impl WordState {
    /// A builder seeded with the process's key.
    pub fn new() -> WordState {
        WordState { key: process_key() }
    }
}

impl Default for WordState {
    fn default() -> WordState {
        WordState::new()
    }
}

impl BuildHasher for WordState {
    type Hasher = WordHasher;

    #[inline]
    fn build_hasher(&self) -> WordHasher {
        WordHasher { state: self.key }
    }
}

/// A hasher that folds each 64-bit word into its state with one wide
/// multiply. Byte input is read as native-endian words, so a `[u64]`
/// slice (which `Hash` writes as one byte slice) costs one fold a word.
#[derive(Debug, Clone)]
pub struct WordHasher {
    state: u64,
}

impl Hasher for WordHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(word);
            self.write_u64(u64::from_ne_bytes(buf));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut buf = [0u8; 8];
            buf[..tail.len()].copy_from_slice(tail);
            // The length keeps `[1]` and `[1, 0]` apart.
            self.write_u64(u64::from_ne_bytes(buf) ^ ((tail.len() as u64) << 59));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.state = fold(self.state ^ word, MULTIPLIER);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitSet;
    use std::collections::HashSet;

    #[test]
    fn equal_sets_hash_equally_whatever_their_capacity() {
        let state = WordState::new();
        let mut wide = BitSet::with_capacity(1024);
        wide.insert(3);
        wide.insert(70);
        let narrow: BitSet = [3usize, 70].into_iter().collect();
        assert_eq!(state.hash_one(&wide), state.hash_one(&narrow));
    }

    #[test]
    fn the_key_is_drawn_once_per_process() {
        assert_eq!(WordState::new().key, WordState::default().key);
    }

    #[test]
    fn distinct_word_rows_do_not_collide() {
        // Every subset of 12 attributes, as one-word and as two-word rows.
        let state = WordState::new();
        let mut hashes = HashSet::new();
        for bits in 0u64..1 << 12 {
            hashes.insert(state.hash_one([bits].as_slice()));
            hashes.insert(state.hash_one([bits, 1].as_slice()));
        }
        assert_eq!(hashes.len(), 2 << 12);
    }

    #[test]
    fn byte_tails_are_hashed_with_their_length() {
        let state = WordState::new();
        let tail = |bytes: &[u8]| {
            let mut h = state.build_hasher();
            h.write(bytes);
            h.finish()
        };
        assert_ne!(tail(&[1]), tail(&[1, 0]));
        assert_ne!(tail(&[1; 8]), tail(&[1; 9]));
    }
}
