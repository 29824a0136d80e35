//! The workspace's object-id hasher.
//!
//! Object ids are hashed on every request: by the synthesizer's recency
//! index, by [`footprint_bytes`](crate::footprint_bytes), and by the cache
//! simulator (engine object table, the baselines' own indexes, the
//! eviction-history tracker). The std SipHash is a measurable fraction of
//! those hot paths and its DoS resistance buys nothing against trace files,
//! so ids go through one splitmix64 finalizer instead — the same mixer
//! [`object_size`](crate::synth::object_size) draws sizes from.
//! Deterministic across runs and platforms, so simulations stay
//! reproducible.

use std::collections::{HashMap, HashSet};

/// splitmix64's finalizer: a bijective, well-mixed map of `u64`s.
#[inline]
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// splitmix64-finalizing hasher for `u64` object ids. Only used with
/// integer keys — the byte-stream fallback (FNV-1a) exists for trait
/// completeness.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

// `#[inline]` throughout, as std's own hashers do: the maps that hash per
// request are instantiated in other crates (the cache engine's object
// table).
impl std::hash::Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = splitmix64(v);
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// `BuildHasher` for [`IdHasher`].
pub type IdBuildHasher = std::hash::BuildHasherDefault<IdHasher>;

/// A `HashMap` keyed by object ids with the fast deterministic hasher.
pub type IdMap<K, V> = HashMap<K, V, IdBuildHasher>;

/// A `HashSet` of object ids with the fast deterministic hasher.
pub type IdSet<K> = HashSet<K, IdBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hasher};

    #[test]
    fn ids_hash_through_splitmix() {
        let build = IdBuildHasher::default();
        for id in [0u64, 1, 42, u64::MAX] {
            assert_eq!(build.hash_one(id), splitmix64(id));
            let mut h = IdHasher::default();
            h.write_u32(id as u32);
            assert_eq!(h.finish(), splitmix64(id as u32 as u64));
        }
    }
}
