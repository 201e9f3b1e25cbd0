//! Bloom filter (Bloom 1970, \[3\] in the paper), cache-line-blocked.
//!
//! K-mer analysis inserts every k-mer occurrence into its owner's Bloom
//! filter first; only k-mers seen **at least twice** enter the counting
//! hash table. Since most erroneous k-mers are singletons (95% of distinct
//! k-mers for the human data set), this cuts the main table's memory by up
//! to 85% (§3.1).
//!
//! The filter operates on pre-mixed 64-bit key hashes. Each key touches one
//! 512-bit block — one cache line, so an insert or a query is one memory
//! access however many bits it sets (Putze, Sanders & Singler, "Cache-,
//! hash- and space-efficient Bloom filters"). The block is chosen from the
//! **high** bits of the hash: an owner's filter only ever sees keys with
//! `hash % ranks == owner`, which pins the hash's low bits, and a filter
//! addressed by them would use a `1/ranks` slice of itself. The positions
//! inside the block come from a re-mix of the whole hash.

use hipmer_dna::mix64;

/// 64-bit words per block: 512 bits, one cache line.
const BLOCK_WORDS: usize = 8;
const BLOCK_BITS: u64 = 64 * BLOCK_WORDS as u64;
/// In-block positions one 64-bit re-mix supplies, at 9 bits each.
const MAX_HASHES: u32 = 64 / 9;

/// A blocked Bloom filter over pre-hashed `u64` keys.
#[derive(Clone, Debug)]
pub struct BloomFilter {
    /// `blocks` blocks of [`BLOCK_WORDS`] words each.
    bits: Vec<u64>,
    /// Number of blocks (a power of two).
    blocks: u64,
    hashes: u32,
    inserted: u64,
}

impl BloomFilter {
    /// Size a filter for `expected_items` at the given false-positive rate.
    ///
    /// Uses the standard optimum `m = -n·ln(p)/ln(2)²`, `h = (m/n)·ln(2)`,
    /// rounding `m` up to a power of two of at least one block; the rounding
    /// more than pays for the blocked layout's slightly higher
    /// false-positive rate at equal `m`. `h` is capped at the 7 positions
    /// one re-mix supplies (past 7 the classic optimum gains under 10 %).
    pub fn with_rate(expected_items: usize, fp_rate: f64) -> Self {
        assert!(fp_rate > 0.0 && fp_rate < 1.0, "fp_rate must be in (0,1)");
        let n = expected_items.max(1) as f64;
        let ln2 = std::f64::consts::LN_2;
        let m = (-n * fp_rate.ln() / (ln2 * ln2))
            .ceil()
            .max(BLOCK_BITS as f64);
        let m_pow2 = (m as u64).next_power_of_two();
        let h = ((m_pow2 as f64 / n) * ln2)
            .round()
            .clamp(1.0, MAX_HASHES as f64) as u32;
        BloomFilter {
            bits: vec![0u64; (m_pow2 / 64) as usize],
            blocks: m_pow2 / BLOCK_BITS,
            hashes: h,
            inserted: 0,
        }
    }

    /// Number of bits in the filter.
    pub fn num_bits(&self) -> u64 {
        self.blocks * BLOCK_BITS
    }

    /// Number of bits set per key.
    pub fn num_hashes(&self) -> u32 {
        self.hashes
    }

    /// Memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.bits.len() * 8
    }

    /// Items inserted so far.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// The first word of `key_hash`'s block: the hash's top bits, scaled.
    #[inline]
    fn block_start(&self, key_hash: u64) -> usize {
        (((key_hash >> 32) * self.blocks) >> 32) as usize * BLOCK_WORDS
    }

    /// The `hashes` `(word, bit mask)` pairs of `key_hash` inside its block.
    #[inline]
    fn probes(hashes: u32, key_hash: u64) -> impl Iterator<Item = (usize, u64)> {
        let mut r = mix64(key_hash);
        (0..hashes).map(move |_| {
            let pos = r % BLOCK_BITS;
            r >>= 9;
            ((pos / 64) as usize, 1u64 << (pos % 64))
        })
    }

    /// Insert a key hash. Returns `true` if the key **may have been present
    /// already** (all probe bits were set before this insert) — the signal
    /// k-mer analysis uses for "seen at least twice".
    #[inline]
    pub fn insert(&mut self, key_hash: u64) -> bool {
        let start = self.block_start(key_hash);
        let block = &mut self.bits[start..start + BLOCK_WORDS];
        let mut seen = true;
        for (word, mask) in Self::probes(self.hashes, key_hash) {
            seen &= block[word] & mask != 0;
            block[word] |= mask;
        }
        self.inserted += 1;
        seen
    }

    /// Query without inserting.
    #[inline]
    pub fn contains(&self, key_hash: u64) -> bool {
        let start = self.block_start(key_hash);
        let block = &self.bits[start..start + BLOCK_WORDS];
        Self::probes(self.hashes, key_hash).all(|(word, mask)| block[word] & mask != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::with_rate(10_000, 0.01);
        for k in 0..10_000u64 {
            f.insert(mix64(k));
        }
        for k in 0..10_000u64 {
            assert!(f.contains(mix64(k)), "false negative for {k}");
        }
    }

    #[test]
    fn false_positive_rate_near_design() {
        let n = 50_000;
        let mut f = BloomFilter::with_rate(n, 0.01);
        for k in 0..n as u64 {
            f.insert(mix64(k));
        }
        let fps = (n as u64..2 * n as u64)
            .filter(|&k| f.contains(mix64(k)))
            .count();
        let rate = fps as f64 / n as f64;
        assert!(rate < 0.03, "fp rate {rate} too far above design 0.01");
    }

    #[test]
    fn insert_reports_first_vs_repeat() {
        let mut f = BloomFilter::with_rate(1000, 0.001);
        assert!(!f.insert(mix64(7)), "first insert is new");
        assert!(f.insert(mix64(7)), "second insert is seen");
    }

    #[test]
    fn one_owners_residue_class_keeps_the_design_rate() {
        // What an owner's filter sees under uniform ownership on 16 ranks:
        // only hashes with `hash % 16 == owner`. A filter addressed by the
        // hash's low bits would crowd those keys into 1/16 of itself; the
        // block index comes from the high bits, so the rate holds, at the
        // pipeline's 5 % design point and at a tighter one.
        for (design, owner) in [(0.05, 3u64), (0.01, 11)] {
            let n = 40_000;
            let mut class = (0u64..).map(mix64).filter(|h| h % 16 == owner);
            let mut f = BloomFilter::with_rate(n, design);
            let members: Vec<u64> = class.by_ref().take(n).collect();
            for &h in &members {
                f.insert(h);
            }
            assert!(members.iter().all(|&h| f.contains(h)), "false negative");
            let fps = class.take(n).filter(|&h| f.contains(h)).count();
            let rate = fps as f64 / n as f64;
            assert!(
                rate <= 2.0 * design,
                "fp rate {rate} above 2x design {design} on one residue class"
            );
        }
    }

    #[test]
    fn sizes_scale_with_items_from_one_block_up() {
        let tiny = BloomFilter::with_rate(1, 0.5);
        assert_eq!(tiny.num_bits(), 512, "floor is one block");
        assert_eq!(tiny.memory_bytes(), 64);
        let small = BloomFilter::with_rate(1_000, 0.01);
        let large = BloomFilter::with_rate(1_000_000, 0.01);
        assert!(large.num_bits() > small.num_bits());
        assert_eq!(large.num_bits() % 512, 0);
        assert!(small.num_hashes() >= 1);
    }

    #[test]
    fn hashes_are_capped_at_one_remix() {
        // 1e-6 asks the classic optimum for 20+ probes; one re-mix has 7.
        let mut f = BloomFilter::with_rate(1_000, 1e-6);
        assert_eq!(f.num_hashes(), 7);
        for k in 0..1_000u64 {
            f.insert(mix64(k));
        }
        assert!((0..1_000u64).all(|k| f.contains(mix64(k))));
        let fps = (1_000..101_000u64)
            .filter(|&k| f.contains(mix64(k)))
            .count();
        assert!(fps < 100, "{fps} false positives in 100k at 32+ bits/key");
    }

    #[test]
    #[should_panic(expected = "fp_rate")]
    fn bad_rate_panics() {
        BloomFilter::with_rate(100, 1.5);
    }
}
