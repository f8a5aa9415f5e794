//! Hashing for the explorer: the word-mixing hasher behind every machine's
//! fingerprint, and the pass-through hasher of the visited-state set.
//!
//! A fingerprint stands in for a whole state in the visited set, so two
//! distinct states that collide are silently merged. With `n` distinct
//! states and a well-mixed 64-bit hash the chance of any collision is about
//! `n² / 2^65`: for the default MSP geometry's 46,624 states that is about
//! 6×10⁻¹¹. The per-state cost is what matters here instead: a fingerprint
//! is a few hundred small integer fields, and one folded 128-bit multiply
//! per field is several times cheaper than SipHash's buffering.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd 64-bit multiplier (the fractional digits of π).
const MULTIPLIER: u64 = 0x243f_6a88_85a3_08d3;

/// Initial state, so an empty input does not hash to zero (the fractional
/// digits of e).
const SEED: u64 = 0xb7e1_5162_8aed_2a6b;

/// The low and high halves of the full 128-bit product, XORed together:
/// every input bit reaches every output bit.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let full = u128::from(a) * u128::from(b);
    (full as u64) ^ ((full >> 64) as u64)
}

/// The fingerprint hasher: every integer written is one 64-bit word, mixed
/// into the state with one folded multiply. Byte slices are read as
/// little-endian words; a short final word carries its byte count in its
/// top byte, so zero padding cannot alias a longer slice.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WordHasher(u64);

impl Default for WordHasher {
    fn default() -> Self {
        WordHasher(SEED)
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(word);
            self.write_u64(u64::from_le_bytes(buf));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            buf[7] = rest.len() as u8;
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = folded_multiply(self.0 ^ v, MULTIPLIER);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A hasher for keys that already are well-mixed 64-bit hashes: it passes
/// the key through unchanged.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct PassThrough(u64);

impl Hasher for PassThrough {
    fn write(&mut self, bytes: &[u8]) {
        let mut mixed = WordHasher(self.0);
        mixed.write(bytes);
        self.0 = mixed.finish();
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The explorer's visited set of state fingerprints.
pub(crate) type VisitedSet = HashSet<u64, BuildHasherDefault<PassThrough>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of(value: impl Hash) -> u64 {
        let mut h = WordHasher::default();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn word_order_and_padding_are_distinguished() {
        assert_ne!(hash_of((1u64, 2u64)), hash_of((2u64, 1u64)));
        assert_ne!(hash_of(0u64), hash_of(()));
        let mut short = WordHasher::default();
        short.write(&[1]);
        let mut padded = WordHasher::default();
        padded.write(&[1, 0]);
        assert_ne!(short.finish(), padded.finish());
    }

    #[test]
    fn small_integer_tuples_do_not_collide() {
        // Fingerprints are built from small structured integers; a dense
        // grid of them must hash to distinct values.
        let mut seen = HashSet::new();
        for a in 0u64..64 {
            for b in 0u64..64 {
                for c in 0u64..16 {
                    assert!(seen.insert(hash_of((a, b, c))), "collision at {a},{b},{c}");
                }
            }
        }
    }

    #[test]
    fn visited_set_keys_pass_through() {
        let mut h = PassThrough::default();
        0xdead_beef_u64.hash(&mut h);
        assert_eq!(h.finish(), 0xdead_beef);
    }
}
