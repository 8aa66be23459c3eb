//! Oracle properties of the word-at-a-time `ChunkSum::of` kernel: it must
//! produce exactly the digest of the plain bytewise polynomial loop (the
//! value every sealed file stores), for every length and any contents, and
//! stay combinable across cut points that split an 8-byte word.

use dstreams_pfs::ChunkSum;
use proptest::prelude::*;

/// The seal multiplier. Pinned here: changing it would invalidate every
/// sealed file on disk.
const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// Reference digest: `Σ (s[i] + 1) · r^i mod 2^64`, one byte per step.
fn bytewise(bytes: &[u8]) -> ChunkSum {
    let mut hash = 0u64;
    let mut rpow = 1u64;
    for &b in bytes {
        hash = hash.wrapping_add((b as u64 + 1).wrapping_mul(rpow));
        rpow = rpow.wrapping_mul(MULTIPLIER);
    }
    ChunkSum::from_parts(hash, rpow)
}

#[test]
fn kernel_matches_the_bytewise_loop_on_fixed_inputs() {
    assert_eq!(ChunkSum::of(&[]), ChunkSum::EMPTY);
    assert_eq!(ChunkSum::of(&[0]).rpow(), MULTIPLIER);
    // Extremes of every lane: all-zero and all-0xff words.
    for len in 0..=64 {
        for fill in [0x00u8, 0xff] {
            let data = vec![fill; len];
            assert_eq!(
                ChunkSum::of(&data),
                bytewise(&data),
                "len {len} fill {fill:#x}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn kernel_matches_the_bytewise_loop_for_every_length(
        data in proptest::collection::vec(any::<u8>(), 301),
    ) {
        for len in 0..=300 {
            prop_assert_eq!(ChunkSum::of(&data[..len]), bytewise(&data[..len]));
        }
        // Unaligned starts: the word grid follows the slice, not memory.
        for start in 1..8 {
            prop_assert_eq!(ChunkSum::of(&data[start..]), bytewise(&data[start..]));
        }
    }

    #[test]
    fn kernel_digests_fold_across_cuts_inside_a_word(
        data in proptest::collection::vec(any::<u8>(), 0..=300),
    ) {
        let whole = ChunkSum::of(&data);
        for cut in (0..=data.len()).filter(|c| c % 8 != 0) {
            let (a, b) = data.split_at(cut);
            prop_assert_eq!(ChunkSum::of(a).then(ChunkSum::of(b)), whole);
        }
    }
}

/// One digest pinned outright: every sealed file stores values of this
/// function, so a change to the multiplier, the `+ 1` or the byte order
/// must fail here even if the kernel and the loop above change together.
/// The constants were checked against a bytewise evaluation of the sum
/// written apart from this crate.
#[test]
fn kernel_digest_of_a_fixed_input_is_pinned() {
    let data: Vec<u8> = (0u16..300).map(|i| (i * 7 % 251) as u8).collect();
    let sum = ChunkSum::of(&data);
    assert_eq!(sum.hash(), 0x0742_207f_79dd_cc7c);
    assert_eq!(sum.rpow(), 0x9323_6d7d_b5f0_8f91);
}
