//! A fixed, deterministic hasher for maps and sets keyed by [`RackId`].
//!
//! std's default `RandomState` runs SipHash-1-3 under a random per-process
//! key. That resists chosen-key flooding, but a control tick looks rack ids
//! up several times per rack, and SipHash's rounds cost far more than the key
//! needs. [`RackHasher`] is one 64 × 64 → 128-bit multiply by an odd constant,
//! folded to 64 bits by XOR-ing the product's high half into its low half.
//!
//! The fold is what makes it safe to use with `std`'s hash table, which picks
//! a bucket from the *low* bits of the hash. A plain multiply by an odd
//! constant keeps the low `k` bits of a multiple of `2^k` at zero, so strided
//! ids (`k << 16`, say) would all share one bucket. The fold carries the
//! key's high bits down into the bucket bits.
//!
//! Being unkeyed, the hasher is deterministic across runs and processes, so
//! iteration order over a [`RackMap`] is too. Rack ids can arrive off the
//! wire, where a peer could pick colliding ids; the number of entries is
//! bounded by the racks one gather returns, which the frame cap bounds.
//!
//! # Examples
//!
//! ```
//! use recharge_units::{RackId, RackMap, RackSet};
//!
//! let mut owner: RackMap<usize> = RackMap::default();
//! owner.insert(RackId::new(7), 0);
//! assert_eq!(owner.get(&RackId::new(7)), Some(&0));
//!
//! let present: RackSet = [RackId::new(1), RackId::new(2)].into_iter().collect();
//! assert!(present.contains(&RackId::new(2)));
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use crate::RackId;

/// The multiplier: `2^64 / φ`, rounded to odd.
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// A folded-multiply hasher for small integer keys such as [`RackId`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RackHasher(u64);

impl RackHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * u128::from(MULTIPLIER);
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for RackHasher {
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    /// Byte keys mix in eight at a time (zero-padded); rack ids never take
    /// this path.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A hash map keyed by rack id, hashed with [`RackHasher`].
pub type RackMap<V> = HashMap<RackId, V, BuildHasherDefault<RackHasher>>;

/// A hash set of rack ids, hashed with [`RackHasher`].
pub type RackSet = HashSet<RackId, BuildHasherDefault<RackHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    /// How many distinct 12-bit bucket values (the low bits a 4096-bucket
    /// table indexes by) the ids `k << shift`, `k` in `0..4096`, hash to.
    fn low_bit_spread<H: Hasher + Default>(shift: u32) -> usize {
        let build = BuildHasherDefault::<H>::default();
        let buckets: HashSet<u64> = (0..4096u32)
            .map(|k| build.hash_one(RackId::new(k << shift)) & 0xFFF)
            .collect();
        buckets.len()
    }

    /// Half the buckets: a uniform hash of 4096 keys fills ≈ 63 %.
    const SPREAD_FLOOR: usize = 2048;

    /// The same multiply without the fold.
    #[derive(Default)]
    struct PlainMultiply(u64);

    impl Hasher for PlainMultiply {
        fn write_u32(&mut self, n: u32) {
            self.0 = (self.0 ^ u64::from(n)).wrapping_mul(MULTIPLIER);
        }

        fn write(&mut self, _: &[u8]) {
            unreachable!("rack ids hash as u32")
        }

        fn finish(&self) -> u64 {
            self.0
        }
    }

    #[test]
    fn strided_ids_spread_over_low_bit_buckets() {
        for shift in [16, 20] {
            let spread = low_bit_spread::<RackHasher>(shift);
            assert!(
                spread >= SPREAD_FLOOR,
                "k << {shift}: {spread} distinct buckets"
            );
        }
    }

    #[test]
    fn the_spread_test_rejects_a_plain_multiply() {
        for shift in [16, 20] {
            let spread = low_bit_spread::<PlainMultiply>(shift);
            assert!(spread < SPREAD_FLOOR, "k << {shift}: {spread}");
        }
    }

    #[test]
    fn hashing_is_deterministic_and_separates_neighbours() {
        let build = BuildHasherDefault::<RackHasher>::default();
        let hash = |id: u32| build.hash_one(RackId::new(id));
        assert_eq!(hash(316), hash(316));
        let distinct: HashSet<u64> = (0..1024).map(hash).collect();
        assert_eq!(distinct.len(), 1024);
    }
}
