//! A multiplicative hasher for maps keyed by this program's own
//! identifiers.
//!
//! **Precondition:** the keys are [`crate::Oid`]s, [`crate::TxnId`]s,
//! class/field/method ids, or tuples and enums of them — small integers
//! *drawn by this program* (an allocator counter, a schema index), never
//! bytes a client chose. SipHash exists to keep an adversary from
//! crafting colliding keys; nobody outside picks these, so its collision
//! resistance buys nothing and costs more than the lookup it guards.
//! Anything keyed by outside input — method and class *names* — keeps
//! the standard hasher.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A multiplicative (Fibonacci) hasher; see the module docs for what it
/// may key.
#[derive(Clone, Copy, Default)]
pub struct MulHasher(u64);

impl MulHasher {
    /// 2⁶⁴ ÷ φ, odd.
    const K: u64 = 0x9E37_79B9_7F4A_7C15;

    #[inline]
    fn add(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(Self::K);
    }
}

impl Hasher for MulHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }
    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.add(u64::from(x));
    }
    #[inline]
    fn write_u16(&mut self, x: u16) {
        self.add(u64::from(x));
    }
    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.add(u64::from(x));
    }
    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.add(x);
    }
    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.add(x as u64);
    }
    /// A product's high bits are its well-mixed ones; the map indexes
    /// buckets by the low bits, so fold the former onto the latter.
    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// The `BuildHasher` of [`MulHasher`].
pub type BuildMulHasher = BuildHasherDefault<MulHasher>;

/// A `HashMap` over [`MulHasher`].
pub type MulMap<K, V> = HashMap<K, V, BuildMulHasher>;

/// A `HashSet` over [`MulHasher`].
pub type MulSet<K> = HashSet<K, BuildMulHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FieldId, Oid};
    use std::hash::BuildHasher;

    #[test]
    fn sequential_ids_spread_over_low_and_high_bits() {
        // hashbrown indexes buckets by the low bits and tags control
        // bytes by the top seven: sequential OIDs (and OIDs that share
        // their low six bits, as one store shard's do) must vary both.
        for stride in [1u64, 64] {
            let mut low = MulSet::default();
            let mut high = MulSet::default();
            for i in 0..4096u64 {
                let h = BuildMulHasher::default().hash_one(Oid(i * stride));
                low.insert(h & 0xfff);
                high.insert(h >> 57);
            }
            // A random function would leave about 2,590 distinct.
            assert!(
                low.len() > 1500,
                "stride {stride}: {} low values",
                low.len()
            );
            assert_eq!(high.len(), 128, "stride {stride}");
        }
    }

    #[test]
    fn tuple_keys_hash_both_halves() {
        let h = |k: (Oid, FieldId)| BuildMulHasher::default().hash_one(k);
        assert_ne!(h((Oid(1), FieldId(2))), h((Oid(2), FieldId(1))));
        assert_ne!(h((Oid(1), FieldId(2))), h((Oid(1), FieldId(3))));
        let mut m: MulMap<(Oid, FieldId), u32> = MulMap::default();
        m.insert((Oid(7), FieldId(1)), 9);
        assert_eq!(m.get(&(Oid(7), FieldId(1))), Some(&9));
    }
}
