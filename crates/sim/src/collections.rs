//! Deterministic hash collections.
//!
//! `std`'s default `RandomState` seeds itself differently on every process
//! start, so `HashMap` iteration order — and therefore any simulation
//! decision derived from it — varies run to run. That breaks the
//! bit-for-bit reproducibility the benchmark harness depends on (`ch-lint`
//! rule R1 rejects default-hasher maps in determinism-critical crates).
//!
//! [`DetHashMap`] / [`DetHashSet`] swap in the Fx hash function
//! (Firefox's multiply-xor hash, as popularized by `rustc-hash`): fixed
//! seed, no per-process state, and faster than SipHash on the small keys
//! (MACs, SSIDs, u64 ids) the simulation uses. Iteration order is then a
//! pure function of the insertion history, which a seeded simulation
//! replays identically.
//!
//! # Why `finish` folds
//!
//! hashbrown picks a bucket from the hash's *low* bits and stores its
//! top 7 bits as the probe tag. Fx's state is a product, and the low `k`
//! bits of a product depend only on the low `k` bits of its factors. A
//! MAC is hashed as one little-endian word whose low 24 bits are the OUI,
//! so the raw state's low 24 bits are the same for every address of one
//! vendor: every phone of a run (`ac:37:43`) and every phone of a city
//! district (`d1:5c:<id>`) shared one bucket, and 1,000 of them landed in
//! 1 of 4,096 buckets, turning each lookup into a walk of one long probe
//! chain. Real probe traffic clusters by vendor OUI the same way.
//!
//! [`FxHasher::finish`] therefore folds the state once: xor-shift, one
//! multiply, xor-shift. Then both the bucket bits and the tag depend on
//! every key byte, and the three key shapes the tests pin (1,000 salted
//! and 4,096 sequential ids under one OUI, 256 MACs differing only in the
//! last octet) reach as many distinct buckets and tags as uniformly
//! random hashes do: 882 buckets and 128 tags for the 1,000 salted ids,
//! where random hashes reach 887 and 128 in expectation. A bare rotate,
//! the fix `rustc-hash` 2 chose, spreads the buckets but leaves the
//! salted ids on 4 distinct tags.

// This module is the sanctioned place that re-binds std's maps with an
// explicit deterministic hasher.
use std::collections::{HashMap, HashSet}; // ch-lint: allow(default-hasher)
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` with the deterministic Fx hasher.
pub type DetHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` with the deterministic Fx hasher.
pub type DetHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// An empty [`DetHashMap`] (the alias cannot use `HashMap::new`, which is
/// only defined for the default hasher).
pub fn det_hash_map<K, V>() -> DetHashMap<K, V> {
    DetHashMap::default()
}

/// An empty [`DetHashMap`] with room for `capacity` entries.
pub fn det_hash_map_with_capacity<K, V>(capacity: usize) -> DetHashMap<K, V> {
    DetHashMap::with_capacity_and_hasher(capacity, BuildHasherDefault::default())
}

/// An empty [`DetHashSet`].
pub fn det_hash_set<T>() -> DetHashSet<T> {
    DetHashSet::default()
}

/// An empty [`DetHashSet`] with room for `capacity` entries.
pub fn det_hash_set_with_capacity<T>(capacity: usize) -> DetHashSet<T> {
    DetHashSet::with_capacity_and_hasher(capacity, BuildHasherDefault::default())
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
/// The multiplier of [`FxHasher::finish`]'s fold: 2^64 divided by the
/// golden ratio, Fibonacci hashing's constant.
const FOLD_MUL: u64 = 0x9e_37_79_b9_7f_4a_7c_15;

/// The Fx multiply-xor hash. Deterministic across processes and platforms
/// with 64-bit `usize`; not DoS-resistant, which is fine for simulation
/// state keyed by generated identifiers.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            // Fold in the length so "ab" ++ "" and "a" ++ "b" differ.
            self.add_to_hash(u64::from_le_bytes(word) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    /// The state, folded so that hashbrown's bucket bits (the low bits)
    /// and its tag (the top 7 bits) both depend on every key byte (see
    /// the module docs).
    #[inline]
    fn finish(&self) -> u64 {
        let folded = (self.hash ^ (self.hash >> 32)).wrapping_mul(FOLD_MUL);
        folded ^ (folded >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashing_is_process_independent() {
        // A fixed key must hash identically on every call and every run —
        // the property RandomState deliberately breaks.
        let mut a = FxHasher::default();
        a.write(b"PCCW1x");
        let mut b = FxHasher::default();
        b.write(b"PCCW1x");
        assert_eq!(a.finish(), b.finish());
        assert_eq!(
            {
                let mut h = FxHasher::default();
                h.write_u64(0xdead_beef);
                h.finish()
            },
            {
                let mut h = FxHasher::default();
                h.write_u64(0xdead_beef);
                h.finish()
            }
        );
    }

    /// Pins `finish` for a few fixed keys. Changing the hasher reorders
    /// every `DetHashMap` iteration, so a change must be deliberate: this
    /// test fails until its digests are updated along with the hasher.
    #[test]
    fn digests_are_pinned() {
        let digest = |feed: &dyn Fn(&mut FxHasher)| {
            let mut h = FxHasher::default();
            feed(&mut h);
            h.finish()
        };
        let digests = [
            digest(&|h| h.write_u64(1)),
            digest(&|h| h.write_u64(0xdead_beef)),
            digest(&|h| h.write_u32(7)),
            digest(&|h| h.write(b"PCCW1x")),
            // A MAC as `[u8; 6]` hashes it: length prefix, then the bytes.
            digest(&|h| {
                h.write_usize(6);
                h.write(&[0xac, 0x37, 0x43, 0x00, 0x00, 0x2a]);
            }),
        ];
        assert_eq!(
            digests,
            [
                0x18a3_dd21_2d5c_fceb,
                0xe344_2ebf_f1e4_7823,
                0xe9c5_4596_c128_fef3,
                0xa76b_0b1a_35c5_834a,
                0xefdf_b497_9114_6cc1,
            ]
        );
    }

    #[test]
    fn tail_bytes_and_length_distinguish_keys() {
        let digest = |bytes: &[u8]| {
            let mut h = FxHasher::default();
            h.write(bytes);
            h.finish()
        };
        assert_ne!(digest(b"ab"), digest(b"ba"));
        assert_ne!(digest(b"a"), digest(b"a\0"));
        assert_ne!(digest(b"1234567890"), digest(b"123456789"));
    }

    #[test]
    fn map_iteration_order_is_reproducible() {
        let build = || {
            let mut map = det_hash_map_with_capacity(64);
            for i in 0..64u64 {
                map.insert(i.wrapping_mul(0x9e37_79b9), i);
            }
            map.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn set_constructors_work() {
        let mut set = det_hash_set();
        assert!(set.insert("a"));
        assert!(!set.insert("a"));
        let set2: DetHashSet<u8> = det_hash_set_with_capacity(16);
        assert!(set2.capacity() >= 16);
    }
}
