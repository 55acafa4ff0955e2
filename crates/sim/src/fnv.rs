//! FNV-1a (64-bit): the one hash behind the stable cell's on-disk record
//! checksum and every determinism fingerprint. Stored checksums and
//! pinned fingerprints depend on its exact output, so it never changes.
//!
//! Two multipliers are in use. [`fnv1a`] is standard FNV-1a with the
//! 64-bit FNV prime `0x100_0000_01b3`. The fingerprints
//! ([`fingerprint_fold`]) were first written with `0x1000_0000_01b3`
//! (2^44 + 0x1b3, one hex digit longer than the FNV prime); every
//! pinned output, span and benchmark fingerprint was computed with it,
//! so it stays. Both are odd, so each step is a bijection of the state.

/// The FNV-1a 64-bit offset basis: the hash of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The 64-bit FNV prime.
const FNV_PRIME: u64 = 0x100_0000_01b3;
/// The fingerprints' multiplier (see the module docs).
const FINGERPRINT_PRIME: u64 = 0x1000_0000_01b3;

#[inline]
fn fold(prime: u64, mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(prime);
    }
    h
}

/// The FNV-1a hash of `bytes`.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fold(FNV_PRIME, FNV_OFFSET, bytes)
}

/// Folds `bytes` into the running fingerprint `h` (start from
/// [`FNV_OFFSET`]): FNV-1a steps with the fingerprints' multiplier.
#[inline]
pub fn fingerprint_fold(h: u64, bytes: &[u8]) -> u64 {
    fold(FINGERPRINT_PRIME, h, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fingerprint_fold_keeps_the_pinned_multiplier() {
        assert_eq!(fingerprint_fold(FNV_OFFSET, b""), FNV_OFFSET);
        assert_eq!(fingerprint_fold(FNV_OFFSET, b"a"), 0xaf74_d84c_8601_ec8c);
        assert_eq!(
            fingerprint_fold(FNV_OFFSET, b"foobar"),
            0xf8ac_2471_f739_67e8
        );
        let split = fingerprint_fold(fingerprint_fold(FNV_OFFSET, b"foo"), b"bar");
        assert_eq!(split, fingerprint_fold(FNV_OFFSET, b"foobar"));
    }
}
