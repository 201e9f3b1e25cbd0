//! 2-bit packed k-mers and the codec that operates on them.
//!
//! A [`Kmer`] is a bare `u128` holding up to 64 bases, two bits per base,
//! with the *first* (5'-most) base in the most significant occupied bits and
//! the *last* base in the two least significant bits. All length-dependent
//! operations live on [`KmerCodec`], which carries `k` once per table
//! instead of once per key.
//!
//! The de Bruijn graph in the paper is keyed by *canonical* k-mers: a k-mer
//! and its reverse complement denote the same node, and the lexicographically
//! (numerically, in 2-bit space) smaller of the two is the table key.
//!
//! K-mer analysis alone also keys by [`Kmer64`], one `u64`, when k ≤ 32:
//! both types implement [`KmerKey`], and what the stage hands on is a
//! `Kmer` again.

use crate::base::{decode_base, encode_base};
use std::hash::{Hash, Hasher};
use std::ops::{BitAnd, BitOr, Shl, Shr};

/// The largest supported k (two bits per base in a `u128`).
pub const MAX_K: usize = 64;

/// A k-mer length outside the supported `1..=MAX_K` range.
///
/// Returned by [`KmerCodec::try_new`] so front ends (the CLI's `-k` flag)
/// can report bad configuration instead of panicking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KmerLenError {
    /// The rejected length.
    pub k: usize,
}

impl std::fmt::Display for KmerLenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "k must be in 1..={MAX_K}, got {}", self.k)
    }
}

impl std::error::Error for KmerLenError {}

/// A 2-bit packed k-mer of externally-known length.
///
/// Equality/ordering are bitwise, which coincides with lexicographic order
/// over the bases for k-mers of equal length.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Kmer(pub u128);

impl Kmer {
    /// The raw packed bits.
    #[inline]
    pub fn bits(self) -> u128 {
        self.0
    }
}

impl std::fmt::Debug for Kmer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Kmer({:#034x})", self.0)
    }
}

/// A 2-bit packed k-mer of at most 32 bases in one `u64`, laid out as a
/// [`Kmer`]: k-mer analysis' key for k ≤ 32, half the bytes.
///
/// It compares, orders and — the invariant tables rely on — **hashes**
/// exactly as the `Kmer` with the same bits (`write_u128` of the widened
/// word), so a table keyed by either places every key on the same owner
/// and in the same bucket.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Kmer64(pub u64);

impl Hash for Kmer64 {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u128(self.0 as u128);
    }
}

impl From<Kmer64> for Kmer {
    #[inline]
    fn from(km: Kmer64) -> Kmer {
        Kmer(km.0 as u128)
    }
}

/// A packed canonical k-mer key: [`Kmer`] for any k, [`Kmer64`] for
/// k ≤ 32. [`KmerCodec::canonical_keys`] rolls either over a read, and a
/// key widens losslessly into the `Kmer` of the same bits.
pub trait KmerKey: Copy + Eq + Ord + Hash + Default + Send + Sync + Into<Kmer> + 'static {
    /// The machine word holding the 2-bit bases.
    type Word: Copy
        + Ord
        + From<u8>
        + Shl<u32, Output = Self::Word>
        + Shr<u32, Output = Self::Word>
        + BitOr<Output = Self::Word>
        + BitAnd<Output = Self::Word>;
    /// The largest k the word holds.
    const MAX_K: usize;
    /// The key of packed bits `word`.
    fn from_word(word: Self::Word) -> Self;
    /// The low `Self::MAX_K` bases of `kmer`'s bits.
    fn truncate(kmer: Kmer) -> Self::Word;
}

impl KmerKey for Kmer {
    type Word = u128;
    const MAX_K: usize = MAX_K;
    #[inline]
    fn from_word(word: u128) -> Self {
        Kmer(word)
    }
    #[inline]
    fn truncate(kmer: Kmer) -> u128 {
        kmer.0
    }
}

impl KmerKey for Kmer64 {
    type Word = u64;
    const MAX_K: usize = 32;
    #[inline]
    fn from_word(word: u64) -> Self {
        Kmer64(word)
    }
    #[inline]
    fn truncate(kmer: Kmer) -> u64 {
        kmer.0 as u64
    }
}

/// Reverse the order of all 64 2-bit groups in a `u128`.
#[inline]
fn reverse_2bit_groups(mut x: u128) -> u128 {
    const M2: u128 = 0x3333_3333_3333_3333_3333_3333_3333_3333;
    const M4: u128 = 0x0f0f_0f0f_0f0f_0f0f_0f0f_0f0f_0f0f_0f0f;
    x = ((x & M2) << 2) | ((x >> 2) & M2);
    x = ((x & M4) << 4) | ((x >> 4) & M4);
    x.swap_bytes()
}

/// Length-aware operations over [`Kmer`]s.
///
/// One codec is shared by every k-mer of a given pipeline run; the assembler
/// constructs it once from the configured k.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KmerCodec {
    k: usize,
    /// Mask with the low `2k` bits set.
    mask: u128,
}

impl KmerCodec {
    /// Create a codec for k-mers of length `k`, rejecting out-of-range
    /// lengths with a typed error.
    ///
    /// `k == 0` would make every shift amount degenerate and `k > MAX_K`
    /// would overflow the `u128` (at `k == MAX_K` exactly, the mask and the
    /// `revcomp`/`extend_left` shift amounts are at their limits — covered
    /// by boundary tests at k = 63 and 64).
    pub fn try_new(k: usize) -> Result<Self, KmerLenError> {
        if !(1..=MAX_K).contains(&k) {
            return Err(KmerLenError { k });
        }
        // `1u128 << (2 * k)` overflows at k == MAX_K; special-case it.
        let mask = if k == MAX_K {
            u128::MAX
        } else {
            (1u128 << (2 * k)) - 1
        };
        Ok(KmerCodec { k, mask })
    }

    /// Create a codec for k-mers of length `k`.
    ///
    /// # Panics
    /// Panics unless `1 <= k <= MAX_K`; use [`KmerCodec::try_new`] where
    /// the length comes from user input.
    pub fn new(k: usize) -> Self {
        match Self::try_new(k) {
            Ok(c) => c,
            Err(e) => panic!("{e}"),
        }
    }

    /// The k-mer length this codec operates on.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Packed wire bytes of one k-mer at this k: `ceil(2k / 8)` — what a
    /// real sender serializes, as opposed to `size_of::<Kmer>()` (a full
    /// 16-byte `u128` regardless of k). Used to price aggregated k-mer
    /// messages without billing the in-memory padding.
    #[inline]
    pub fn wire_bytes(&self) -> u64 {
        (2 * self.k as u64).div_ceil(8)
    }

    /// Pack an ASCII slice of exactly `k` unambiguous bases.
    ///
    /// Returns `None` if the slice has the wrong length or contains a
    /// non-ACGT byte.
    pub fn pack(&self, seq: &[u8]) -> Option<Kmer> {
        if seq.len() != self.k {
            return None;
        }
        let mut bits = 0u128;
        for &b in seq {
            bits = (bits << 2) | encode_base(b)? as u128;
        }
        Some(Kmer(bits))
    }

    /// Unpack into an ASCII `ACGT` string.
    pub fn unpack(&self, kmer: Kmer) -> Vec<u8> {
        let mut out = vec![0u8; self.k];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = decode_base(self.base_at(kmer, i));
        }
        out
    }

    /// Unpack into an owned `String` (convenience for diagnostics).
    pub fn to_string(&self, kmer: Kmer) -> String {
        String::from_utf8(self.unpack(kmer)).expect("decoded bases are ASCII")
    }

    /// The 2-bit code of the base at position `i` (0 = 5'-most).
    #[inline]
    pub fn base_at(&self, kmer: Kmer, i: usize) -> u8 {
        debug_assert!(i < self.k);
        ((kmer.0 >> (2 * (self.k - 1 - i))) & 0b11) as u8
    }

    /// The 2-bit code of the first (5'-most) base.
    #[inline]
    pub fn first_base(&self, kmer: Kmer) -> u8 {
        self.base_at(kmer, 0)
    }

    /// The 2-bit code of the last (3'-most) base.
    #[inline]
    pub fn last_base(&self, kmer: Kmer) -> u8 {
        (kmer.0 & 0b11) as u8
    }

    /// Reverse complement.
    #[inline]
    pub fn revcomp(&self, kmer: Kmer) -> Kmer {
        // Complement every base (XOR with all-ones over 2k bits), reverse
        // the 64 2-bit groups, then shift the occupied groups down.
        let comp = kmer.0 ^ self.mask;
        Kmer(reverse_2bit_groups(comp) >> (128 - 2 * self.k))
    }

    /// The canonical representative: `min(kmer, revcomp(kmer))`.
    #[inline]
    pub fn canonical(&self, kmer: Kmer) -> Kmer {
        let rc = self.revcomp(kmer);
        if rc.0 < kmer.0 {
            rc
        } else {
            kmer
        }
    }

    /// Whether `kmer` is its own canonical representative.
    #[inline]
    pub fn is_canonical(&self, kmer: Kmer) -> bool {
        kmer.0 <= self.revcomp(kmer).0
    }

    /// Slide one base to the right: drop the first base, append `code`.
    #[inline]
    pub fn extend_right(&self, kmer: Kmer, code: u8) -> Kmer {
        debug_assert!(code < 4);
        Kmer(((kmer.0 << 2) | code as u128) & self.mask)
    }

    /// Slide one base to the left: drop the last base, prepend `code`.
    #[inline]
    pub fn extend_left(&self, kmer: Kmer, code: u8) -> Kmer {
        debug_assert!(code < 4);
        Kmer((kmer.0 >> 2) | ((code as u128) << (2 * (self.k - 1))))
    }

    /// Iterate over all k-mers of `seq` (ASCII), skipping windows that
    /// contain a non-ACGT byte. Yields `(offset, kmer)` pairs.
    pub fn kmers<'a>(&self, seq: &'a [u8]) -> KmerIter<'a> {
        KmerIter {
            codec: *self,
            seq,
            pos: 0,
            valid: 0,
            bits: 0,
        }
    }

    /// Iterate over all k-mers of `seq` with their canonical forms, each
    /// position in O(1): both the forward window and its reverse complement
    /// roll incrementally (one shift-in at the high end of the RC window per
    /// base), so no per-position `revcomp` bit-reversal is paid. Yields
    /// `(offset, kmer, canonical)` triples identical to
    /// `kmers(seq).map(|(o, km)| (o, km, codec.canonical(km)))`.
    pub fn canonical_kmers<'a>(&self, seq: &'a [u8]) -> CanonicalKmerIter<'a> {
        self.canonical_keys(seq)
    }

    /// [`canonical_kmers`](Self::canonical_kmers) rolled in key type `K`'s
    /// word: the same triples, each the `K` of the `Kmer`'s bits.
    ///
    /// # Panics
    /// Panics if this codec's k exceeds `K::MAX_K`.
    pub fn canonical_keys<'a, K: KmerKey>(&self, seq: &'a [u8]) -> CanonicalKmerIter<'a, K> {
        assert!(
            self.k <= K::MAX_K,
            "k = {} does not fit a {}-base key",
            self.k,
            K::MAX_K
        );
        let zero = K::Word::from(0);
        CanonicalKmerIter {
            k: self.k,
            mask: K::truncate(Kmer(self.mask)),
            seq,
            pos: 0,
            valid: 0,
            bits: zero,
            rc_bits: zero,
            key: std::marker::PhantomData,
        }
    }
}

/// Rolling iterator over the k-mers of an ASCII sequence.
///
/// Maintains a 2-bit window and a count of consecutive valid bases, so a
/// single `N` only invalidates the windows that overlap it.
pub struct KmerIter<'a> {
    codec: KmerCodec,
    seq: &'a [u8],
    pos: usize,
    /// How many consecutive valid bases end at `pos` (capped at k).
    valid: usize,
    bits: u128,
}

impl<'a> Iterator for KmerIter<'a> {
    type Item = (usize, Kmer);

    fn next(&mut self) -> Option<(usize, Kmer)> {
        let k = self.codec.k;
        while self.pos < self.seq.len() {
            let b = self.seq[self.pos];
            self.pos += 1;
            match encode_base(b) {
                Some(code) => {
                    self.bits = ((self.bits << 2) | code as u128) & self.codec.mask;
                    self.valid = (self.valid + 1).min(k);
                    if self.valid == k {
                        return Some((self.pos - k, Kmer(self.bits)));
                    }
                }
                None => {
                    self.valid = 0;
                    self.bits = 0;
                }
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.seq.len().saturating_sub(self.pos)))
    }
}

/// Rolling iterator over the k-mers of an ASCII sequence together with
/// their canonical representatives, in key type `K` (see
/// [`KmerCodec::canonical_keys`]).
///
/// Like [`KmerIter`], but additionally maintains the reverse-complement
/// window incrementally: appending base `c` to the forward window
/// corresponds to shifting `complement(c)` into the *high* end of the RC
/// window, so canonicalization costs a comparison instead of a full
/// bit-reversal per position.
pub struct CanonicalKmerIter<'a, K: KmerKey = Kmer> {
    k: usize,
    /// Mask with the low `2k` bits set.
    mask: K::Word,
    seq: &'a [u8],
    pos: usize,
    /// How many consecutive valid bases end at `pos` (capped at k).
    valid: usize,
    /// Forward 2-bit window (low `2k` bits).
    bits: K::Word,
    /// Reverse-complement 2-bit window (low `2k` bits).
    rc_bits: K::Word,
    key: std::marker::PhantomData<K>,
}

impl<'a, K: KmerKey> Iterator for CanonicalKmerIter<'a, K> {
    type Item = (usize, K, K);

    #[inline]
    fn next(&mut self) -> Option<(usize, K, K)> {
        let k = self.k;
        let rc_shift = 2 * (k - 1) as u32;
        while self.pos < self.seq.len() {
            let b = self.seq[self.pos];
            self.pos += 1;
            match encode_base(b) {
                Some(code) => {
                    self.bits = ((self.bits << 2) | K::Word::from(code)) & self.mask;
                    // The dropped base's complement falls off the low end;
                    // the new base's complement (3 - code) enters at the top.
                    self.rc_bits = (self.rc_bits >> 2) | (K::Word::from(3 - code) << rc_shift);
                    self.valid = (self.valid + 1).min(k);
                    if self.valid == k {
                        let fwd = K::from_word(self.bits);
                        let canon = if self.rc_bits < self.bits {
                            K::from_word(self.rc_bits)
                        } else {
                            fwd
                        };
                        return Some((self.pos - k, fwd, canon));
                    }
                }
                None => {
                    self.valid = 0;
                    self.bits = K::Word::from(0);
                    self.rc_bits = K::Word::from(0);
                }
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.seq.len().saturating_sub(self.pos)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        let c = KmerCodec::new(5);
        let kmer = c.pack(b"ACGTA").unwrap();
        assert_eq!(c.unpack(kmer), b"ACGTA");
        assert_eq!(c.to_string(kmer), "ACGTA");
    }

    #[test]
    fn pack_rejects_bad_input() {
        let c = KmerCodec::new(4);
        assert!(c.pack(b"ACG").is_none(), "too short");
        assert!(c.pack(b"ACGTA").is_none(), "too long");
        assert!(c.pack(b"ACNT").is_none(), "ambiguous base");
    }

    #[test]
    fn base_accessors() {
        let c = KmerCodec::new(4);
        let kmer = c.pack(b"GATC").unwrap();
        assert_eq!(c.first_base(kmer), 2); // G
        assert_eq!(c.last_base(kmer), 1); // C
        assert_eq!(c.base_at(kmer, 1), 0); // A
        assert_eq!(c.base_at(kmer, 2), 3); // T
    }

    #[test]
    fn revcomp_small() {
        let c = KmerCodec::new(3);
        let kmer = c.pack(b"ATC").unwrap();
        assert_eq!(c.to_string(c.revcomp(kmer)), "GAT");
    }

    #[test]
    fn revcomp_involution_various_k() {
        for k in [1, 2, 3, 15, 16, 31, 32, 33, 63, 64] {
            let c = KmerCodec::new(k);
            // Deterministic pseudo-random bases.
            let seq: Vec<u8> = (0..k)
                .map(|i| crate::base::BASES[(i * 7 + 3) % 4])
                .collect();
            let kmer = c.pack(&seq).unwrap();
            assert_eq!(c.revcomp(c.revcomp(kmer)), kmer, "k={k}");
        }
    }

    #[test]
    fn revcomp_matches_string_revcomp() {
        let c = KmerCodec::new(7);
        let kmer = c.pack(b"AACGTGG").unwrap();
        let rc = c.revcomp(kmer);
        assert_eq!(c.to_string(rc), "CCACGTT");
    }

    #[test]
    fn canonical_is_min_and_idempotent() {
        let c = KmerCodec::new(4);
        let kmer = c.pack(b"TTTT").unwrap();
        let canon = c.canonical(kmer);
        assert_eq!(c.to_string(canon), "AAAA");
        assert_eq!(c.canonical(canon), canon);
        assert!(c.is_canonical(canon));
        assert!(!c.is_canonical(kmer));
    }

    #[test]
    fn extend_right_slides_window() {
        let c = KmerCodec::new(3);
        let kmer = c.pack(b"ACG").unwrap();
        let next = c.extend_right(kmer, encode_base(b'T').unwrap());
        assert_eq!(c.to_string(next), "CGT");
    }

    #[test]
    fn extend_left_slides_window() {
        let c = KmerCodec::new(3);
        let kmer = c.pack(b"ACG").unwrap();
        let prev = c.extend_left(kmer, encode_base(b'T').unwrap());
        assert_eq!(c.to_string(prev), "TAC");
    }

    #[test]
    fn extensions_are_inverses() {
        let c = KmerCodec::new(9);
        let kmer = c.pack(b"ACGTACGTA").unwrap();
        let first = c.first_base(kmer);
        let last = c.last_base(kmer);
        assert_eq!(c.extend_left(c.extend_right(kmer, 2), first), kmer);
        assert_eq!(c.extend_right(c.extend_left(kmer, 1), last), kmer);
    }

    #[test]
    fn kmer_iter_simple() {
        let c = KmerCodec::new(3);
        let got: Vec<(usize, String)> = c
            .kmers(b"ACGTA")
            .map(|(off, km)| (off, c.to_string(km)))
            .collect();
        assert_eq!(
            got,
            vec![
                (0, "ACG".to_string()),
                (1, "CGT".to_string()),
                (2, "GTA".to_string())
            ]
        );
    }

    #[test]
    fn kmer_iter_skips_n_windows() {
        let c = KmerCodec::new(3);
        let got: Vec<usize> = c.kmers(b"ACNGTAC").map(|(off, _)| off).collect();
        // Windows overlapping the N at index 2 are dropped.
        assert_eq!(got, vec![3, 4]);
    }

    #[test]
    fn kmer_iter_short_sequence_yields_nothing() {
        let c = KmerCodec::new(5);
        assert_eq!(c.kmers(b"ACGT").count(), 0);
        assert_eq!(c.kmers(b"").count(), 0);
    }

    #[test]
    fn kmer_iter_matches_pack() {
        let c = KmerCodec::new(4);
        let seq = b"GGATCCA";
        for (off, km) in c.kmers(seq) {
            assert_eq!(km, c.pack(&seq[off..off + 4]).unwrap());
        }
    }

    #[test]
    fn max_k_roundtrip() {
        let c = KmerCodec::new(64);
        let seq: Vec<u8> = (0..64).map(|i| crate::base::BASES[i % 4]).collect();
        let kmer = c.pack(&seq).unwrap();
        assert_eq!(c.unpack(kmer), seq);
        assert_eq!(c.revcomp(c.revcomp(kmer)), kmer);
    }

    #[test]
    #[should_panic(expected = "k must be")]
    fn zero_k_panics() {
        KmerCodec::new(0);
    }

    #[test]
    #[should_panic(expected = "k must be")]
    fn oversize_k_panics() {
        KmerCodec::new(65);
    }

    #[test]
    fn try_new_rejects_out_of_range_with_typed_error() {
        assert_eq!(KmerCodec::try_new(0), Err(KmerLenError { k: 0 }));
        assert_eq!(KmerCodec::try_new(65), Err(KmerLenError { k: 65 }));
        assert_eq!(
            KmerLenError { k: 65 }.to_string(),
            "k must be in 1..=64, got 65"
        );
        assert!(KmerCodec::try_new(1).is_ok());
        assert!(KmerCodec::try_new(64).is_ok());
    }

    #[test]
    fn boundary_k_shift_paths_are_exact() {
        // k = 63 and k = 64 exercise the extreme shift amounts: the mask
        // construction (1 << 128 would overflow), revcomp's `>> (128 - 2k)`
        // (zero at k = 64), and extend_left's `<< 126`.
        for k in [63usize, 64] {
            let c = KmerCodec::new(k);
            let seq: Vec<u8> = (0..k)
                .map(|i| crate::base::BASES[(i * 11 + 1) % 4])
                .collect();
            let kmer = c.pack(&seq).unwrap();
            assert_eq!(c.unpack(kmer), seq, "k={k} pack/unpack");
            assert_eq!(
                c.unpack(c.revcomp(kmer)),
                crate::seq::revcomp(&seq),
                "k={k} revcomp"
            );
            assert_eq!(c.revcomp(c.revcomp(kmer)), kmer, "k={k} involution");
            // extend_right then extend_left with the dropped/original bases
            // restores the window at the widest shift amounts.
            let first = c.first_base(kmer);
            let last = c.last_base(kmer);
            assert_eq!(c.extend_left(c.extend_right(kmer, 2), first), kmer);
            assert_eq!(c.extend_right(c.extend_left(kmer, 1), last), kmer);
            // The canonical pick agrees with an explicit min.
            let rc = c.revcomp(kmer);
            assert_eq!(c.canonical(kmer).0, kmer.0.min(rc.0), "k={k} canonical");
        }
    }

    /// Deterministic pseudo-random DNA with occasional ambiguous bases.
    fn noisy_seq(len: usize, n_every: usize, salt: usize) -> Vec<u8> {
        (0..len)
            .map(|i| {
                if n_every != 0 && i % n_every == n_every - 1 {
                    b'N'
                } else {
                    crate::base::BASES[(i * 7 + salt) % 4]
                }
            })
            .collect()
    }

    #[test]
    fn narrow_keys_roll_hash_and_order_as_wide_ones() {
        use crate::hash::KmerBuildHasher;
        use std::hash::BuildHasher;
        let hasher = KmerBuildHasher::default();
        for k in [1usize, 15, 21, 31, 32] {
            let c = KmerCodec::new(k);
            let seq = noisy_seq(300, 53, k);
            let wide: Vec<(usize, Kmer, Kmer)> = c.canonical_kmers(&seq).collect();
            let narrow: Vec<(usize, Kmer64, Kmer64)> = c.canonical_keys(&seq).collect();
            assert!(wide.len() > 100, "k={k}");
            let widened: Vec<(usize, Kmer, Kmer)> = (narrow.iter())
                .map(|&(o, km, canon)| (o, km.into(), canon.into()))
                .collect();
            assert_eq!(widened, wide, "k={k}");
            for (&(_, _, n), &(_, _, w)) in narrow.iter().zip(&wide) {
                assert_eq!(hasher.hash_one(n), hasher.hash_one(w), "k={k}");
            }
            for (a, b) in narrow.iter().zip(&narrow[1..]) {
                assert_eq!(a.2.cmp(&b.2), Kmer::from(a.2).cmp(&Kmer::from(b.2)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not fit a 32-base key")]
    fn narrow_keys_reject_k_33() {
        KmerCodec::new(33).canonical_keys::<Kmer64>(b"ACGT");
    }

    #[test]
    fn canonical_iter_matches_per_position_canonicalization() {
        for k in [3usize, 21, 31, 63, 64] {
            let c = KmerCodec::new(k);
            let seq: Vec<u8> = (0..200)
                .map(|i| {
                    if i % 97 == 0 {
                        b'N'
                    } else {
                        crate::base::BASES[(i * 7 + 5) % 4]
                    }
                })
                .collect();
            let rolled: Vec<(usize, Kmer, Kmer)> = c.canonical_kmers(&seq).collect();
            let naive: Vec<(usize, Kmer, Kmer)> = c
                .kmers(&seq)
                .map(|(off, km)| (off, km, c.canonical(km)))
                .collect();
            assert_eq!(rolled, naive, "k={k}");
        }
    }
}
