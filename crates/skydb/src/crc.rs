//! CRC-32 (IEEE 802.3) — the at-rest integrity checksum.
//!
//! Every durable byte in the engine is framed by this checksum: heap rows
//! carry a 4-byte CRC prefix ([`crate::heap`]), WAL records carry a 4-byte
//! CRC trailer ([`crate::wal`]). The polynomial is the ubiquitous reflected
//! `0xEDB88320` (zlib/PNG/SATA).
//!
//! The kernel is slicing-by-8: eight 256-entry tables, built at compile
//! time, fold eight input bytes per step with eight independent lookups
//! instead of eight dependent ones. The bytes past the last whole 8-byte
//! word go through the classic one-table loop. No external crate.

/// Lookup tables for the reflected IEEE polynomial, built at compile time.
/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the CRC of
/// byte `b` followed by `k` zero bytes.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

/// CRC-32 of `data` (IEEE, reflected, init/final-xor `0xFFFF_FFFF`).
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use skysim::rng::SplitMix64;

    /// The bytewise one-table CRC the slicing kernel must equal.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn equals_the_bytewise_reference_on_every_length() {
        let mut rng = SplitMix64::new(0x5EED);
        let data: Vec<u8> = (0..300).map(|_| rng.next_u64() as u8).collect();
        for len in 0..=data.len() {
            // Every length, and every start offset mod 8 on the way.
            for start in 0..8.min(data.len() - len + 1) {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "len {len} start {start}");
            }
        }
    }

    #[test]
    fn equals_the_bytewise_reference_on_random_buffers() {
        let mut rng = SplitMix64::new(2005);
        for _ in 0..500 {
            let len = (rng.next_u64() % 4096) as usize;
            let buf: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            assert_eq!(crc32(&buf), crc32_bytewise(&buf), "len {len}");
        }
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        let data = b"skydb at-rest integrity".to_vec();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut rotten = data.clone();
                rotten[byte] ^= 1 << bit;
                assert_ne!(crc32(&rotten), clean, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
