use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A multiply-based [`Hasher`] for `u64` keys: one 64×64→128-bit
/// multiply by an odd constant, with the two halves folded together.
///
/// Emulated page numbers and register values are small, clustered
/// integers, so neither std's SipHash (built to resist adversarial
/// keys, and several times slower per lookup) nor a plain multiply
/// (whose low bits — the ones a table indexes by — stay zero for keys
/// that are multiples of a power of two) suits them. Folding the high
/// product half into the low one spreads every key bit over the whole
/// hash. Keys are never attacker-chosen: they come from the
/// simulator's own workloads.
#[derive(Debug, Clone, Copy, Default)]
pub struct U64Hasher(u64);

/// The odd multiplier: 2^64 divided by the golden ratio.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for U64Hasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, key: u64) {
        let p = u128::from(self.0 ^ key) * u128::from(K);
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
}

/// A `HashMap` keyed by `u64` through [`U64Hasher`].
pub type U64Map<V> = HashMap<u64, V, BuildHasherDefault<U64Hasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash(key: u64) -> u64 {
        BuildHasherDefault::<U64Hasher>::default().hash_one(key)
    }

    #[test]
    fn page_aligned_keys_spread_over_the_low_bits() {
        // Multiples of 4096 and of 2^32 must not share their low bits,
        // or a power-of-two table would put them all in one bucket.
        for stride in [1u64 << 12, 1 << 32] {
            let mut low: Vec<u64> = (1..=64).map(|i| hash(i * stride) & 0xff).collect();
            low.sort_unstable();
            low.dedup();
            assert!(low.len() > 32, "stride {stride:#x}: {} distinct low bytes", low.len());
        }
    }

    #[test]
    fn map_round_trips() {
        let mut m: U64Map<u64> = U64Map::default();
        for k in [0, 1, u64::MAX, 0x4000_0000, 0x4000_0000 >> 12] {
            m.insert(k, !k);
        }
        for k in [0, 1, u64::MAX, 0x4000_0000, 0x4000_0000 >> 12] {
            assert_eq!(m.get(&k), Some(&!k));
        }
    }
}
