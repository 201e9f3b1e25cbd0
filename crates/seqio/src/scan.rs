//! SWAR byte scanning for the parsers.
//!
//! The FASTQ/FASTA parsers spend their time finding newlines; doing that a
//! `u64` block at a time (memchr-style) instead of byte-by-byte is most of
//! the parse speedup measured in `BENCH_kernels.json`.

const LOW: u64 = 0x0101_0101_0101_0101;
const HIGH: u64 = 0x8080_8080_8080_8080;

/// Position of the first occurrence of `needle` in `hay`, scanning eight
/// bytes per step.
///
/// Uses the zero-byte test `(v - LOW) & !v & HIGH` on `v = block ^ pattern`.
/// The test can falsely mark bytes *after* the first true match (borrow
/// propagation), but with little-endian block loads the lowest set mark is
/// always the first match, so `trailing_zeros` is exact.
#[inline]
pub fn memchr(needle: u8, hay: &[u8]) -> Option<usize> {
    let pat = LOW * needle as u64;
    let (blocks, rest) = hay.as_chunks::<8>();
    let mut offset = 0usize;
    for &block in blocks {
        let v = u64::from_le_bytes(block) ^ pat;
        let marks = v.wrapping_sub(LOW) & !v & HIGH;
        if marks != 0 {
            return Some(offset + (marks.trailing_zeros() as usize >> 3));
        }
        offset += 8;
    }
    rest.iter().position(|&b| b == needle).map(|i| offset + i)
}

/// Position of the first `\n` in `buf`.
#[inline]
pub fn memchr_nl(buf: &[u8]) -> Option<usize> {
    memchr(b'\n', buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn memchr_reference(needle: u8, hay: &[u8]) -> Option<usize> {
        hay.iter().position(|&b| b == needle)
    }

    #[test]
    fn matches_reference_on_crafted_buffers() {
        let mut cases: Vec<Vec<u8>> = vec![
            vec![],
            b"\n".to_vec(),
            b"no newline here at all....".to_vec(),
            b"tail\n".to_vec(),
            b"\nhead".to_vec(),
            vec![b'\n'; 20],
        ];
        // Every alignment of a single needle in a 3-block buffer.
        for pos in 0..24 {
            let mut v = vec![b'x'; 24];
            v[pos] = b'\n';
            cases.push(v);
        }
        // Bytes that differ from '\n' only in the high bit (0x8A), and
        // borrow-propagation bait: a match followed by needle+1 bytes.
        cases.push(vec![0x8a, 0x8a, b'\n', 0x0b, 0x0b, 0x0b, 0x0b, 0x0b, 0x0b]);
        for hay in &cases {
            assert_eq!(memchr_nl(hay), memchr_reference(b'\n', hay), "hay={hay:?}");
            assert_eq!(memchr(0x8a, hay), memchr_reference(0x8a, hay));
        }
    }

    #[test]
    fn finds_needle_at_every_offset_and_start() {
        let base: Vec<u8> = (0u8..64).map(|i| i.wrapping_mul(37) | 1).collect();
        for pos in 0..base.len() {
            let mut v = base.clone();
            v[pos] = 0;
            for start in 0..pos + 1 {
                assert_eq!(memchr(0, &v[start..]), Some(pos - start));
            }
        }
    }
}
