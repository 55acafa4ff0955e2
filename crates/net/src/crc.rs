//! CRC-32 (IEEE 802.3) frame check sequence.
//!
//! §4.3.3's link layer "wraps all messages with a rotating checksum" and
//! discards frames whose checksum fails; the token-ring recorder of §6.1.2
//! *complements* the checksum to deliberately invalidate a frame it could
//! not record. Both behaviours need a real FCS, so we implement the
//! standard reflected CRC-32 used by Ethernet.

/// The CRC-32/IEEE polynomial, reflected.
const POLY: u32 = 0xEDB8_8320;

/// Bytes the kernel folds in per step.
const SLICES: usize = 16;

/// Computes the slicing tables at compile time.
///
/// `TABLES[0]` is the classic byte-at-a-time table. `TABLES[k][b]` is the
/// CRC contribution of byte `b` followed by `k` zero bytes, so sixteen
/// lookups, one per byte of a 16-byte block, XOR together into the CRC
/// of the whole block.
const fn build_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; SLICES] = build_tables();

/// Advances a (pre-inverted) CRC state over `data`, sixteen bytes per step
/// (slicing-by-16), then byte at a time over the tail.
fn update(mut crc: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut blocks = data.chunks_exact(SLICES);
    for b in &mut blocks {
        let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(lo & 0xFF) as usize]
            ^ t[14][((lo >> 8) & 0xFF) as usize]
            ^ t[13][((lo >> 16) & 0xFF) as usize]
            ^ t[12][(lo >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Computes the CRC-32/IEEE checksum of `data`.
///
/// # Examples
///
/// ```
/// // The standard check value for "123456789".
/// assert_eq!(publishing_net::crc::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    !update(0xFFFF_FFFF, data)
}

/// Incremental CRC-32 computation for multi-part frames.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds more bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.state = update(self.state, data);
    }

    /// Finishes and returns the checksum.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time loop the slicing kernel replaced: the reference
    /// every kernel result is checked against.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// Deterministic, non-periodic test bytes.
    fn bytes(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9u32;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect()
    }

    #[test]
    fn slicing_matches_bytewise_at_every_length_and_offset() {
        let data = bytes(24 * 1024 + 16);
        let lengths = (0..=64).chain([4095, 4096, 4097, 24 * 1024]);
        for len in lengths {
            for off in 0..16 {
                let s = &data[off..off + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "len {len}, offset {off}");
            }
        }
    }

    proptest! {
        #[test]
        fn slicing_matches_bytewise_on_random_bytes(
            data in proptest::collection::vec(any::<u8>(), 0..600),
            split in 0usize..600,
        ) {
            prop_assert_eq!(crc32(&data), crc32_bytewise(&data));
            let cut = split.min(data.len());
            let mut h = Crc32::new();
            h.update(&data[..cut]);
            h.update(&data[cut..]);
            prop_assert_eq!(h.finish(), crc32_bytewise(&data));
        }
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"published communications";
        let mut h = Crc32::new();
        h.update(&data[..7]);
        h.update(&data[7..]);
        assert_eq!(h.finish(), crc32(data));
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0u8; 128];
        data[17] = 0xA5;
        let good = crc32(&data);
        data[17] ^= 0x01;
        assert_ne!(crc32(&data), good);
    }

    #[test]
    fn complemented_crc_never_validates() {
        // The token-ring recorder invalidates a frame by complementing the
        // FCS; a complemented CRC must never equal the true CRC.
        for data in [&b"x"[..], b"hello", b"", b"0123456789abcdef"] {
            let c = crc32(data);
            assert_ne!(c, !c);
        }
    }
}
