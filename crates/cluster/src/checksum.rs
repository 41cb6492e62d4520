//! Dependency-free CRC32C (Castagnoli) checksums.
//!
//! Every payload that crosses a failure boundary — a chunk page leaving a
//! storage node, an interconnect frame, a scratch bucket — is checksummed
//! at the producer and verified at every consumer, so a flipped bit is
//! detected where it can still be retried (re-read, re-send,
//! re-partition) instead of silently joining wrong rows. CRC32C is chosen
//! over CRC32 for its better error-detection properties on short bursts;
//! the implementation is portable slicing-by-8 over eight reflected
//! tables built at compile time: one 8-byte step per iteration, then a
//! byte-at-a-time tail.

/// Reflected CRC32C polynomial (Castagnoli).
const POLY: u32 = 0x82F6_3B78;

/// `TABLES[0]` is the classic byte table; `TABLES[k][i]` is the CRC of
/// byte `i` followed by `k` zero bytes, so eight lookups fold 8 bytes.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
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
    while k < 8 {
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

/// CRC32C of `bytes` in one shot. The empty payload hashes to 0.
pub fn crc32c(bytes: &[u8]) -> u32 {
    finish(update(begin(), bytes))
}

/// Start an incremental checksum (see [`update`] / [`finish`]).
pub fn begin() -> u32 {
    0xFFFF_FFFF
}

/// Fold `bytes` into an in-progress checksum state.
///
/// Used by [`crate::Scratch`] to maintain a running checksum per bucket:
/// appends update the state without ever re-reading the bucket.
pub fn update(state: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = state;
    let mut blocks = bytes.chunks_exact(8);
    for block in &mut blocks {
        let lo = crc ^ u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
        let hi = u32::from_le_bytes([block[4], block[5], block[6], block[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Finalize an incremental checksum state into the checksum value.
pub fn finish(state: u32) -> u32 {
    state ^ 0xFFFF_FFFF
}

/// Verify `bytes` against `expected`, describing `what` on mismatch.
///
/// `what` is only formatted on a mismatch, so callers pass
/// `format_args!(..)` and the passing path allocates nothing.
pub fn verify(expected: u32, bytes: &[u8], what: impl std::fmt::Display) -> orv_types::Result<()> {
    let actual = crc32c(bytes);
    if actual == expected {
        Ok(())
    } else {
        Err(orv_types::Error::Integrity(format!(
            "{what}: crc32c mismatch (expected {expected:#010x}, got {actual:#010x}, {} bytes)",
            bytes.len()
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time reference loop `update` replaced.
    fn update_bytewise(state: u32, bytes: &[u8]) -> u32 {
        let mut crc = state;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        crc
    }

    #[test]
    fn slicing_by_8_matches_bytewise_reference() {
        // Pseudo-random bytes so every table slot pattern is exercised.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..96)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=64 {
                let s = &data[start..start + len];
                assert_eq!(
                    update(begin(), s),
                    update_bytewise(begin(), s),
                    "start {start} len {len}"
                );
            }
        }
        // Incremental splits that land inside an 8-byte block.
        let whole = update_bytewise(begin(), &data);
        for split in [1, 3, 5, 7, 9, 13, 42, 95] {
            let state = update(update(begin(), &data[..split]), &data[split..]);
            assert_eq!(state, whole, "split at {split}");
        }
    }

    #[test]
    fn known_vectors() {
        // RFC 3720 appendix B.4 test vectors.
        assert_eq!(crc32c(b""), 0x0000_0000);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0, 1, 7, 500, 999, 1000] {
            let state = update(update(begin(), &data[..split]), &data[split..]);
            assert_eq!(finish(state), crc32c(&data), "split at {split}");
        }
    }

    #[test]
    fn single_bit_flips_always_detected() {
        let data: Vec<u8> = (0..64u8).collect();
        let clean = crc32c(&data);
        let mut corrupt = data.clone();
        for i in 0..corrupt.len() {
            for bit in 0..8 {
                corrupt[i] ^= 1 << bit;
                assert_ne!(crc32c(&corrupt), clean, "flip byte {i} bit {bit}");
                corrupt[i] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn verify_reports_context() {
        assert!(verify(crc32c(b"ok"), b"ok", "frame").is_ok());
        let err = verify(0xDEAD_BEEF, b"ok", "bucket L3").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("bucket L3"), "{msg}");
        assert!(msg.contains("0xdeadbeef"), "{msg}");
        assert!(matches!(err, orv_types::Error::Integrity(_)));
    }
}
