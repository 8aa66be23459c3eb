//! Order-sensitive, boundary-independent checksums.
//!
//! The d/stream commit seal must checksum bytes that different ranks hold
//! in different pieces: the writer hashes per-rank blocks, the reader
//! hashes whatever spans its decomposition assigns it, and the two
//! partitions rarely line up. A [`ChunkSum`] is therefore a *combinable*
//! digest: hashing `A ++ B` equals hashing `A` and `B` separately and
//! folding the pair, no matter where the boundary falls.
//!
//! Concretely it is the polynomial hash `H(s) = Σ (s[i] + 1) · r^i mod
//! 2^64` for a fixed odd multiplier `r`, carried together with `r^len`
//! so two chunks combine in O(1):
//!
//! `H(A ++ B) = H(A) + r^|A| · H(B)`,  `r^|A ++ B| = r^|A| · r^|B|`.
//!
//! The `+ 1` on each byte makes the digest length-sensitive (a trailing
//! run of zero bytes changes the hash), which is what torn-write
//! detection needs. This is an error-*detection* code against torn and
//! corrupted records, not a cryptographic MAC.
//!
//! [`ChunkSum::of`] evaluates the same sum eight bytes per step: a word
//! at position `8k` contributes `r^(8k) · Σ_j T[j][b_j]` with the
//! compile-time table `T[j][b] = (b + 1) · r^j`, so each step costs eight
//! table loads and two multiplies instead of a chain of eight dependent
//! multiplies. Only a tail shorter than eight bytes goes byte by byte.

/// The fixed polynomial multiplier (odd, so powers never collapse to 0).
const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// `r^8`: how far the running power advances per 8-byte word.
const MULTIPLIER_POW8: u64 = pow(MULTIPLIER, 8);

/// `WORD_TABLE[j][b] = (b + 1) · r^j`: byte `b` at lane `j` of a word.
static WORD_TABLE: [[u64; 256]; 8] = word_table();

const fn pow(base: u64, exp: u32) -> u64 {
    let mut acc = 1u64;
    let mut i = 0;
    while i < exp {
        acc = acc.wrapping_mul(base);
        i += 1;
    }
    acc
}

const fn word_table() -> [[u64; 256]; 8] {
    let mut table = [[0u64; 256]; 8];
    let mut j = 0;
    while j < 8 {
        let rj = pow(MULTIPLIER, j as u32);
        let mut b = 0;
        while b < 256 {
            table[j][b] = (b as u64 + 1).wrapping_mul(rj);
            b += 1;
        }
        j += 1;
    }
    table
}

/// A combinable digest over a byte chunk: the polynomial hash plus the
/// multiplier raised to the chunk length (both mod 2^64).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkSum {
    hash: u64,
    rpow: u64,
}

impl Default for ChunkSum {
    fn default() -> Self {
        ChunkSum::EMPTY
    }
}

impl ChunkSum {
    /// The digest of the empty chunk — the identity of [`ChunkSum::then`].
    pub const EMPTY: ChunkSum = ChunkSum { hash: 0, rpow: 1 };

    /// Digest a contiguous chunk of bytes.
    pub fn of(bytes: &[u8]) -> ChunkSum {
        let mut hash = 0u64;
        let mut rpow = 1u64;
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let mut lanes = 0u64;
            for (row, &b) in WORD_TABLE.iter().zip(word) {
                lanes = lanes.wrapping_add(row[b as usize]);
            }
            hash = hash.wrapping_add(lanes.wrapping_mul(rpow));
            rpow = rpow.wrapping_mul(MULTIPLIER_POW8);
        }
        for &b in words.remainder() {
            hash = hash.wrapping_add((b as u64 + 1).wrapping_mul(rpow));
            rpow = rpow.wrapping_mul(MULTIPLIER);
        }
        ChunkSum { hash, rpow }
    }

    /// The digest of this chunk followed immediately by `next`.
    #[must_use]
    pub fn then(self, next: ChunkSum) -> ChunkSum {
        ChunkSum {
            hash: self.hash.wrapping_add(self.rpow.wrapping_mul(next.hash)),
            rpow: self.rpow.wrapping_mul(next.rpow),
        }
    }

    /// The 64-bit hash value (what a seal stores).
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The multiplier power `r^len` (what travels beside the hash when
    /// chunks are exchanged for folding).
    pub fn rpow(&self) -> u64 {
        self.rpow
    }

    /// Reassemble a digest from its two wire words.
    pub fn from_parts(hash: u64, rpow: u64) -> ChunkSum {
        ChunkSum { hash, rpow }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concatenation_is_boundary_independent() {
        let data: Vec<u8> = (0u16..300).map(|i| (i * 7 % 251) as u8).collect();
        let whole = ChunkSum::of(&data);
        for cut in [0, 1, 13, 150, 299, 300] {
            let split = ChunkSum::of(&data[..cut]).then(ChunkSum::of(&data[cut..]));
            assert_eq!(split, whole, "cut at {cut}");
        }
        // Three-way split, folded left-to-right.
        let three = ChunkSum::of(&data[..50])
            .then(ChunkSum::of(&data[50..200]))
            .then(ChunkSum::of(&data[200..]));
        assert_eq!(three, whole);
    }

    #[test]
    fn digest_is_order_and_length_sensitive() {
        assert_ne!(ChunkSum::of(b"ab").hash(), ChunkSum::of(b"ba").hash());
        // Trailing zeros change the digest — torn tails of a zero-filled
        // region are still detected.
        assert_ne!(ChunkSum::of(b"x").hash(), ChunkSum::of(b"x\0").hash());
        assert_ne!(ChunkSum::of(b"").hash(), ChunkSum::of(b"\0").hash());
    }

    #[test]
    fn empty_is_the_identity() {
        let c = ChunkSum::of(b"payload");
        assert_eq!(ChunkSum::EMPTY.then(c), c);
        assert_eq!(c.then(ChunkSum::EMPTY), c);
        assert_eq!(ChunkSum::of(b""), ChunkSum::EMPTY);
        assert_eq!(ChunkSum::default(), ChunkSum::EMPTY);
    }

    #[test]
    fn parts_roundtrip() {
        let c = ChunkSum::of(b"roundtrip");
        assert_eq!(ChunkSum::from_parts(c.hash(), c.rpow()), c);
    }
}
