//! A deterministic, fast, non-cryptographic hasher, and the engine's one
//! per-key grouping.
//!
//! The engine must be reproducible run-to-run: partition assignment feeds
//! directly into which bytes are counted as remote vs local. The standard
//! library's `RandomState` is seeded per-process, so we use a fixed-key
//! FxHash-style hasher (the multiply-rotate scheme used by rustc) instead.
//! No output order comes from hash-map iteration: every keyed operator and
//! every per-key report table groups through [`fold`], which emits its
//! groups in the order their keys first arrived.

use std::collections::hash_map::Entry;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// FxHash-style deterministic hasher. Fast for the small integer keys that
/// dominate tensor workloads (mode indices).
#[derive(Default, Clone)]
pub struct FxHasher {
    state: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut last = [0u8; 8];
            last[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` with deterministic hashing (and therefore deterministic
/// iteration order for a fixed insertion sequence).
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` with deterministic hashing.
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

/// The engine's one per-key grouping: the first record of a key seeds its
/// slot, later records merge into it in arrival order, and slots come out
/// in the order their keys first arrived — deterministic, since every
/// input arrives in a fixed order. Returns the key → slot index beside the
/// slots, so a caller can look a key's slot up afterwards; the map holds
/// only indices, so no slot is ever moved out of a map.
pub(crate) fn fold<K: Eq + Hash + Clone, X, S>(
    records: impl IntoIterator<Item = (K, X)>,
    seed: impl Fn(X) -> S,
    merge: impl Fn(&mut S, X),
) -> (FxHashMap<K, usize>, Vec<(K, S)>) {
    let mut index: FxHashMap<K, usize> = FxHashMap::default();
    let mut slots: Vec<(K, S)> = Vec::new();
    for (k, x) in records {
        match index.entry(k) {
            Entry::Occupied(slot) => merge(&mut slots[*slot.get()].1, x),
            Entry::Vacant(slot) => {
                slots.push((slot.key().clone(), seed(x)));
                slot.insert(slots.len() - 1);
            }
        }
    }
    (index, slots)
}

/// Hashes one value with the deterministic hasher.
pub(crate) fn fx_hash<T: Hash + ?Sized>(v: &T) -> u64 {
    let mut h = FxHasher::default();
    v.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_calls() {
        assert_eq!(fx_hash(&42u32), fx_hash(&42u32));
        assert_eq!(fx_hash(&"hello"), fx_hash(&"hello"));
        assert_eq!(fx_hash(&(1u32, 2u64)), fx_hash(&(1u32, 2u64)));
    }

    #[test]
    fn distinct_inputs_differ() {
        assert_ne!(fx_hash(&1u32), fx_hash(&2u32));
        assert_ne!(fx_hash(&"a"), fx_hash(&"b"));
    }

    #[test]
    fn spreads_small_integers() {
        // Consecutive u32 keys must not collide mod small partition counts
        // catastrophically: check a basic spread over 8 buckets.
        let mut buckets = [0usize; 8];
        for k in 0u32..1000 {
            buckets[(fx_hash(&k) % 8) as usize] += 1;
        }
        for &b in &buckets {
            assert!(b > 60, "bucket underfilled: {buckets:?}");
        }
    }

    #[test]
    fn write_handles_all_lengths() {
        // Exercise the chunked byte path: strings of every small length.
        let hashes: Vec<u64> = (0..20)
            .map(|n| fx_hash(&"abcdefghijklmnopqrst"[..n]))
            .collect();
        let mut uniq = hashes.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), hashes.len());
    }

    #[test]
    fn map_iteration_is_reproducible() {
        let build = || {
            let mut m: FxHashMap<u32, u32> = FxHashMap::default();
            for k in 0..100 {
                m.insert(k * 7 % 101, k);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}
