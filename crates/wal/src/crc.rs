//! CRC-32 (IEEE 802.3, polynomial 0xEDB88320) for WAL record checksums.
//!
//! Self-contained table-driven implementation — the vendored dependency set
//! has no checksum crate, and the WAL needs exactly one algorithm. Eight
//! bytes are folded per step (slice-by-8: table `k` is the CRC of a byte
//! followed by `k` zero bytes, so eight lookups advance the state across a
//! whole word); the tail, and the reference the tests compare against, is
//! the classic byte-at-a-time loop over table 0. The tables are built in a
//! `const fn` so they cost nothing at startup and the whole module is
//! allocation-free.

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
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

static TABLES: [[u32; 256]; 8] = build_tables();

/// Byte-at-a-time update: the tail of every [`Crc32::update`] and the
/// reference the slice-by-8 path is tested against.
#[inline]
fn update_bytewise(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Incremental CRC-32 state.
///
/// ```
/// use esdb_wal::crc::Crc32;
/// let mut crc = Crc32::new();
/// crc.update(b"123456789");
/// assert_eq!(crc.finish(), 0xCBF4_3926);
/// ```
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh checksum state.
    #[inline]
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Folds `bytes` into the checksum.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][(hi & 0xFF) as usize]
                ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
                ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
                ^ TABLES[0][(hi >> 24) as usize];
        }
        self.state = update_bytewise(crc, words.remainder());
    }

    /// Final checksum value.
    #[inline]
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One-shot CRC-32 of `bytes`.
    fn crc32(bytes: &[u8]) -> u32 {
        let mut c = Crc32::new();
        c.update(bytes);
        c.finish()
    }

    #[test]
    fn known_vectors() {
        // The canonical CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut c = Crc32::new();
        for chunk in data.chunks(7) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), crc32(data));
    }

    fn reference(bytes: &[u8]) -> u32 {
        !update_bytewise(!0, bytes)
    }

    #[test]
    fn slice_by_8_equals_bytewise_at_every_length_and_offset() {
        // A buffer with no repeating structure at word granularity.
        let buf: Vec<u8> = (0..80u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let data = &buf[offset..offset + len];
                assert_eq!(crc32(data), reference(data), "offset {offset} len {len}");
            }
        }
    }

    #[test]
    fn slice_by_8_equals_bytewise_on_random_buffers_and_chunkings() {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for _ in 0..500 {
            let len = (next() % 4_096) as usize;
            let data: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let want = reference(&data);
            assert_eq!(crc32(&data), want, "len {len}");
            // Chunked at random cut points: word-folding must not depend
            // on where the caller splits the stream.
            let mut c = Crc32::new();
            let mut rest = &data[..];
            while !rest.is_empty() {
                let cut = 1 + (next() as usize % rest.len());
                c.update(&rest[..cut]);
                rest = &rest[cut..];
            }
            assert_eq!(c.finish(), want, "chunked, len {len}");
        }
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let mut data = vec![0u8; 64];
        let base = crc32(&data);
        for byte in 0..64 {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), base, "flip at {byte}:{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }
}
