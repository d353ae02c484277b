//! FNV-1a, the one 64-bit fingerprint every checksum in the workspace
//! uses: a byte step for byte streams and a word step for streams of
//! 64-bit words (one multiply per word instead of eight). The two
//! differ — hashing a word's eight bytes is not one word step — so each
//! fingerprint names the step it was recorded with.

/// The FNV-1a 64-bit offset basis: the state every fingerprint starts
/// from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a over `bytes`, one step per byte, continuing from `state`.
/// Seed with [`FNV_OFFSET`]; chain calls to hash a stream.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(state, |h, &b| fnv1a_word(h, u64::from(b)))
}

/// One FNV-1a step over a whole 64-bit word, continuing from `state`.
pub fn fnv1a_word(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(FNV_PRIME)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fnv_chains() {
        let whole = fnv1a(FNV_OFFSET, b"foobar");
        assert_eq!(fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"), whole);
    }

    #[test]
    fn a_word_step_is_a_byte_step_on_one_byte_words() {
        assert_eq!(fnv1a_word(FNV_OFFSET, 0x61), fnv1a(FNV_OFFSET, b"a"));
        assert_ne!(fnv1a_word(FNV_OFFSET, 0x6162), fnv1a(FNV_OFFSET, b"ba"));
    }
}
