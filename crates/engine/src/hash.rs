//! The one hasher behind the engine's hash tables.
//!
//! Two tables hash: the lock table, keyed by `(table, row)`, and the WAL's
//! set of pages that already logged a full-page image since the last
//! checkpoint, keyed by [`PageId`](crate::bufferpool::PageId)
//! (`table << 40 | page`). The buffer pool and the OS cache hash nothing:
//! they find a page through a page table indexed by table id and page
//! number. Every key hashed is an integer the simulator made itself. None
//! comes from outside the process, so there is nobody to craft collisions
//! and SipHash — `std`'s default, a keyed hash built to resist exactly
//! that — buys nothing for the dozens of cycles it costs per lookup. No
//! result depends on a table's iteration order either (the only traversal
//! is the lock table's `retain`, with a pure predicate), so swapping the
//! hasher cannot move a [`RunResult`](crate::RunResult).
//!
//! What the hash must still do is spread *these* keys. hashbrown picks a
//! bucket by the low bits of the hash and tags it by the top seven, and
//! pages of different tables differ only above bit 40. A plain multiply
//! leaves the low bits of the product blind to the high bits of the key;
//! so the product is taken at 128 bits and its high half folded down onto
//! the low one, which makes every bit of the result depend on every bit of
//! the key.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` over the engine's own integer keys.
pub(crate) type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;
/// A `HashSet` over the engine's own integer keys.
pub(crate) type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

/// Folded-multiply hasher for integer keys; see the module doc.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IntHasher(u64);

/// 2^64 / φ, odd: consecutive keys land far apart.
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for IntHasher {
    fn write_u64(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * u128::from(MULTIPLIER);
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    /// Not taken by any key the engine hashes (integers and tuples of
    /// them go through the methods above); correct for any other.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bufferpool::page_id;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<K: Hash>(key: K) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(key)
    }

    /// Distinct bucket indexes (low bits) and distinct tags (top seven
    /// bits) `keys` take in a table of twice as many buckets. Uniform
    /// hashing fills 1 − e^(−1/2) ≈ 0.79 of a key count in buckets.
    fn spread<K: Hash>(keys: &[K]) -> (f64, usize) {
        let mask = (keys.len() * 2).next_power_of_two() as u64 - 1;
        let buckets: HashSet<u64> = keys.iter().map(|k| hash_of(k) & mask).collect();
        let tags: HashSet<u64> = keys.iter().map(|k| hash_of(k) >> 57).collect();
        (buckets.len() as f64 / keys.len() as f64, tags.len())
    }

    #[test]
    fn page_ids_spread_over_buckets_and_tags() {
        // Heap pages of ten tables, as the WAL's full-page-write set holds
        // them: the keys differ only above bit 40 from table to table.
        let keys: Vec<u64> =
            (0..10u32).flat_map(|t| (0..4_000u64).map(move |page| page_id(t, page))).collect();
        let (filled, tags) = spread(&keys);
        assert!(filled > 0.7, "bucket fill {filled}");
        assert_eq!(tags, 128);
    }

    #[test]
    fn lock_keys_spread_over_buckets_and_tags() {
        // Scattered hot rows of a few tables, as `sample_key` makes them.
        let keys: Vec<(u32, u64)> = (0..8u32)
            .flat_map(|t| (0..3_000u64).map(move |i| (t, i.wrapping_mul(0x2545_F491) % 1_250_000)))
            .collect();
        let (filled, tags) = spread(&keys);
        assert!(filled > 0.7, "bucket fill {filled}");
        assert_eq!(tags, 128);
    }

    #[test]
    fn a_plain_multiply_would_not_do() {
        // The shape the fold is there for: same page number, another
        // table. Without the high half the low 40 bits would collide.
        let (a, b) = (page_id(1, 7), page_id(2, 7));
        let low = (1u64 << 40) - 1;
        assert_eq!(a.wrapping_mul(MULTIPLIER) & low, b.wrapping_mul(MULTIPLIER) & low);
        assert_ne!(hash_of(a) & 0xFFFF, hash_of(b) & 0xFFFF);
    }

    #[test]
    fn byte_slices_hash_by_words() {
        let mut by_bytes = IntHasher::default();
        by_bytes.write(&0xDEAD_BEEF_u64.to_le_bytes());
        let mut by_word = IntHasher::default();
        by_word.write_u64(0xDEAD_BEEF);
        assert_eq!(by_bytes.finish(), by_word.finish());
    }
}
