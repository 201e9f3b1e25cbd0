//! Property-based tests for the DNA primitives.

use hipmer_dna::{
    canonical_seq, encode_base, hash::mix128, is_canonical_seq, revcomp, revcomp_in_place,
    ExtChoice, ExtCode, ExtVotes, ExtensionPair, KmerCodec, BASES,
};
use proptest::prelude::*;

/// The extension tally with `u32` votes, as `ExtVotes` counted before its
/// votes became saturating `u8`s: the reference the narrow tally must
/// decide exactly like.
#[derive(Clone, Copy, Default)]
struct WideTally {
    left: [u32; 4],
    right: [u32; 4],
    count: u32,
}

impl WideTally {
    fn record_code(&mut self, code: ExtCode) {
        self.count += 1;
        if let Some(c) = code.left() {
            self.left[c as usize] += 1;
        }
        if let Some(c) = code.right() {
            self.right[c as usize] += 1;
        }
    }

    fn merge(&mut self, other: &WideTally) {
        for c in 0..4 {
            self.left[c] += other.left[c];
            self.right[c] += other.right[c];
        }
        self.count += other.count;
    }

    fn flip(&self) -> WideTally {
        let mut out = WideTally {
            count: self.count,
            ..WideTally::default()
        };
        for c in 0..4 {
            out.right[3 - c] = self.left[c];
            out.left[3 - c] = self.right[c];
        }
        out
    }

    fn decide(&self, min_votes: u32) -> ExtensionPair {
        let side = |votes: &[u32; 4]| {
            let passing: Vec<u8> = (0..4u8)
                .filter(|&c| votes[c as usize] >= min_votes)
                .collect();
            match passing[..] {
                [] => ExtChoice::None,
                [c] => ExtChoice::Unique(c),
                _ => ExtChoice::Fork,
            }
        };
        ExtensionPair {
            left: side(&self.left),
            right: side(&self.right),
        }
    }
}

/// One step applied to one of two tallies.
#[derive(Clone, Debug)]
enum TallyOp {
    /// Record the one-byte code `code` (of 25) `times` times into tally `at`.
    Record { at: usize, code: u8, times: u32 },
    /// Merge the other tally into tally `at`.
    Merge { at: usize },
    /// Replace tally `at` by its reverse-complement view.
    Flip { at: usize },
}

fn tally_op() -> impl Strategy<Value = TallyOp> {
    // Half the steps record; runs up to 600 push single bases well past
    // the `u8` votes' 255.
    (0u8..4, 0usize..2, 0u8..25, 1u32..600).prop_map(|(kind, at, code, times)| match kind {
        0 | 1 => TallyOp::Record { at, code, times },
        2 => TallyOp::Merge { at },
        _ => TallyOp::Flip { at },
    })
}

/// The one-byte code number `n` of 25: left digit `n / 5`, right `n % 5`,
/// digit 4 meaning "no vote".
fn ext_code(n: u8) -> ExtCode {
    let side = |d: u8| (d < 4).then_some(d);
    ExtCode::new(side(n / 5), side(n % 5))
}

/// Strategy: an ACGT sequence of the given length range.
fn dna_seq(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop::sample::select(&BASES[..]), len)
}

/// Strategy: a sequence that may also contain Ns.
fn dna_seq_with_n(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop::sample::select(&b"ACGTN"[..]), len)
}

proptest! {
    #[test]
    fn pack_unpack_roundtrip(k in 1usize..=64, seed in any::<u64>()) {
        // Derive a deterministic sequence of length k from the seed.
        let seq: Vec<u8> = (0..k)
            .map(|i| BASES[((seed >> (2 * (i % 32))) & 3) as usize])
            .collect();
        let c = KmerCodec::new(k);
        let kmer = c.pack(&seq).unwrap();
        prop_assert_eq!(c.unpack(kmer), seq);
    }

    #[test]
    fn packed_revcomp_matches_string_revcomp(seq in dna_seq(1..64)) {
        let c = KmerCodec::new(seq.len());
        let kmer = c.pack(&seq).unwrap();
        prop_assert_eq!(c.unpack(c.revcomp(kmer)), revcomp(&seq));
    }

    #[test]
    fn revcomp_is_involution(seq in dna_seq_with_n(0..200)) {
        prop_assert_eq!(revcomp(&revcomp(&seq)), seq);
    }

    #[test]
    fn revcomp_in_place_matches_functional(seq in dna_seq_with_n(0..200)) {
        let mut v = seq.clone();
        revcomp_in_place(&mut v);
        prop_assert_eq!(v, revcomp(&seq));
    }

    #[test]
    fn canonical_is_idempotent_and_minimal(seq in dna_seq(1..100)) {
        let canon = canonical_seq(seq.clone());
        prop_assert!(canon == seq || canon == revcomp(&seq));
        prop_assert!(canon <= seq);
        prop_assert!(canon <= revcomp(&seq));
        prop_assert_eq!(canonical_seq(canon.clone()), canon.clone());
        prop_assert!(is_canonical_seq(&canon));
    }

    #[test]
    fn canonical_invariant_under_revcomp(seq in dna_seq(1..100)) {
        prop_assert_eq!(canonical_seq(seq.clone()), canonical_seq(revcomp(&seq)));
    }

    #[test]
    fn kmer_iter_yields_every_clean_window(seq in dna_seq_with_n(0..120), k in 1usize..8) {
        let c = KmerCodec::new(k);
        let got: Vec<(usize, hipmer_dna::Kmer)> = c.kmers(&seq).collect();
        // Reference: brute force over windows.
        let mut expect = Vec::new();
        if seq.len() >= k {
            for off in 0..=seq.len() - k {
                if let Some(km) = c.pack(&seq[off..off + k]) {
                    expect.push((off, km));
                }
            }
        }
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn extend_right_equals_repack(seq in dna_seq(2..65)) {
        let k = seq.len() - 1;
        let c = KmerCodec::new(k);
        let first = c.pack(&seq[..k]).unwrap();
        let second = c.pack(&seq[1..]).unwrap();
        let code = encode_base(seq[k]).unwrap();
        prop_assert_eq!(c.extend_right(first, code), second);
        let first_code = encode_base(seq[0]).unwrap();
        prop_assert_eq!(c.extend_left(second, first_code), first);
    }

    #[test]
    fn incremental_canonical_iter_equals_per_position_pack(
        seq in dna_seq_with_n(0..180),
        k in 1usize..=64,
    ) {
        let c = KmerCodec::new(k);
        let got: Vec<(usize, hipmer_dna::Kmer, hipmer_dna::Kmer)> =
            c.canonical_kmers(&seq).collect();
        // Reference: pack every clean window from scratch, canonicalize by
        // computing the full reverse complement.
        let mut expect = Vec::new();
        if seq.len() >= k {
            for off in 0..=seq.len() - k {
                if let Some(km) = c.pack(&seq[off..off + k]) {
                    expect.push((off, km, c.canonical(km)));
                }
            }
        }
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn canonical_kmer_invariant_under_revcomp(seq in dna_seq(1..64)) {
        let c = KmerCodec::new(seq.len());
        let kmer = c.pack(&seq).unwrap();
        prop_assert_eq!(c.canonical(kmer), c.canonical(c.revcomp(kmer)));
    }

    #[test]
    fn ext_votes_merge_is_commutative(
        recs_a in prop::collection::vec((0u8..4, 0u8..4), 0..20),
        recs_b in prop::collection::vec((0u8..4, 0u8..4), 0..20),
    ) {
        let mut a = ExtVotes::new();
        for (l, r) in &recs_a { a.record(Some(*l), Some(*r)); }
        let mut b = ExtVotes::new();
        for (l, r) in &recs_b { b.record(Some(*l), Some(*r)); }
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn ext_votes_flip_commutes_with_decide(
        recs in prop::collection::vec((0u8..4, 0u8..4), 0..20),
        min_votes in 1u8..4,
    ) {
        let mut v = ExtVotes::new();
        for (l, r) in &recs { v.record(Some(*l), Some(*r)); }
        // Deciding then flipping must equal flipping then deciding.
        prop_assert_eq!(v.decide(min_votes).flip(), v.flip().decide(min_votes));
    }

    #[test]
    fn narrow_tally_decides_like_a_u32_one(ops in prop::collection::vec(tally_op(), 1..24)) {
        let mut narrow = [ExtVotes::new(); 2];
        let mut wide = [WideTally::default(); 2];
        for op in &ops {
            match *op {
                TallyOp::Record { at, code, times } => {
                    for _ in 0..times {
                        narrow[at].record_code(ext_code(code));
                        wide[at].record_code(ext_code(code));
                    }
                }
                TallyOp::Merge { at } => {
                    let (n, w) = (narrow[1 - at], wide[1 - at]);
                    narrow[at].merge(&n);
                    wide[at].merge(&w);
                }
                TallyOp::Flip { at } => {
                    narrow[at] = narrow[at].flip();
                    wide[at] = wide[at].flip();
                }
            }
            for (n, w) in narrow.iter().zip(&wide) {
                prop_assert_eq!(n.count, w.count);
                for m in 0..=u8::MAX {
                    prop_assert_eq!(n.decide(m), w.decide(u32::from(m)), "min_votes {}", m);
                }
            }
        }
    }

    #[test]
    fn mix128_has_no_trivial_collisions(a in any::<u128>(), b in any::<u128>()) {
        if a != b {
            // Not a guarantee for a hash, but for random 128-bit inputs a
            // 64-bit collision in a proptest run would indicate brokenness.
            prop_assert_ne!(mix128(a), mix128(b));
        }
    }
}
