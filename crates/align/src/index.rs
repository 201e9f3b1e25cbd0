//! The distributed seed index: seed k-mer → contig positions.

use hipmer_contig::ContigSet;
use hipmer_dna::{Kmer, KmerCodec};
use hipmer_pgas::{DistHashMap, Exchange, FrozenMap, PhaseReport, Team};
use std::sync::atomic::{AtomicU64, Ordering};

/// One seed occurrence in a contig.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeedHit {
    /// Contig id.
    pub contig: u32,
    /// Offset of the seed in the contig (forward orientation of the seed's
    /// canonical form: `rc == true` means the canonical seed appears
    /// reverse-complemented at this position).
    pub pos: u32,
    /// Whether the contig shows the reverse complement of the canonical
    /// seed at `pos`.
    pub rc: bool,
}

/// Hits kept per seed: beyond this count further hits are dropped and the
/// seed is treated as a repeat and skipped (repeat masking, as merAligner
/// does; 8 tolerates the two haplotypes and a few paralogs).
pub const MAX_SEED_HITS: usize = 8;

/// Per-seed hit list, capped to suppress repeat seeds.
#[derive(Clone, Debug, Default)]
pub struct HitList {
    /// The hits (at most [`MAX_SEED_HITS`] retained).
    pub hits: Vec<SeedHit>,
    /// Total occurrences seen, including dropped ones.
    pub total: u32,
}

/// The distributed seed index.
pub struct SeedIndex {
    /// Canonical seed k-mer → hits; frozen when the build phase ends.
    pub table: FrozenMap<Kmer, HitList>,
    /// Seed codec (seed length).
    pub codec: KmerCodec,
    /// One bit per contig base, contig after contig: set iff the canonical
    /// seed starting there occurs at least twice in the contig set. A seed
    /// that is its own reverse complement (only possible at even seed
    /// lengths) counts as occurring on both strands.
    shared: Vec<u64>,
    /// Each contig's first bit in `shared`, by contig id.
    base_offsets: Vec<usize>,
}

impl SeedIndex {
    /// Whether a seed starting at any of `contig`'s positions `lo..=hi` is
    /// shared: found more than once in the contig set, dropped hits
    /// included. Positions with no seed (an `N` inside it, or too close to
    /// the contig's end) count as unshared.
    pub fn shares_a_seed(&self, contig: u32, lo: usize, hi: usize) -> bool {
        debug_assert!(lo <= hi);
        let base = self.base_offsets[contig as usize];
        let (lo, hi) = (base + lo, base + hi);
        let (first, last) = (lo / 64, hi / 64);
        let head = !0u64 << (lo % 64);
        let tail = !0u64 >> (63 - hi % 64);
        if first == last {
            return self.shared[first] & head & tail != 0;
        }
        self.shared[first] & head != 0
            || self.shared[first + 1..last].iter().any(|&w| w != 0)
            || self.shared[last] & tail != 0
    }
}

impl HitList {
    /// Whether the seed should be ignored as a repeat (more occurrences
    /// than [`MAX_SEED_HITS`]).
    pub fn is_repeat(&self) -> bool {
        self.total as usize > MAX_SEED_HITS
    }
}

/// Build the seed index over the contigs in parallel: each rank indexes
/// its contig chunk and ships (seed, hit) entries with aggregating stores,
/// which each seed's owner merges (the paper's point: the lookup table
/// build itself is fully parallel). Seeds are owned by `key_hash % ranks`.
///
/// The merge also marks the shared seeds' positions in the index's bitset
/// ([`SeedIndex::shares_a_seed`]): when a list's total leaves 1 its first
/// hit, and every hit that joins a list, kept or dropped; the sender marks
/// a seed that is its own reverse complement. Bits are only ever set, so
/// the bitset is the same whatever order the merges run in.
pub fn build_seed_index(
    team: &Team,
    contigs: &ContigSet,
    seed_len: usize,
) -> (SeedIndex, PhaseReport) {
    let codec = KmerCodec::new(seed_len);
    let table: DistHashMap<Kmer, HitList> = DistHashMap::new(*team.topo());

    let mut base_offsets = Vec::with_capacity(contigs.contigs.len());
    let mut bases = 0;
    for c in &contigs.contigs {
        base_offsets.push(bases);
        bases += c.seq.len();
    }
    let shared: Vec<AtomicU64> = (0..bases.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
    // Relaxed: a bit publishes no other data, and the bits are read only
    // after the phase, whose threads have been joined.
    let mark = |h: &SeedHit| {
        let bit = base_offsets[h.contig as usize] + h.pos as usize;
        shared[bit / 64].fetch_or(1 << (bit % 64), Ordering::Relaxed);
    };
    let merge = |a: &mut HitList, b: HitList| {
        if a.total == 1 {
            mark(&a.hits[0]);
        }
        a.total += b.total;
        for h in b.hits {
            mark(&h);
            if a.hits.len() < MAX_SEED_HITS {
                a.hits.push(h);
            }
        }
    };
    // A seed that reads the same on both strands is found on both by a
    // read aligned to either, so it can never be a read's only candidate.
    let palindromes = seed_len.is_multiple_of(2);

    // Window-parallel work units so a dominant contig does not serialize
    // the index build onto one rank.
    const WINDOW: usize = 4096;
    let windows = contigs.kmer_windows(seed_len, WINDOW);

    let mail = Exchange::for_table(&table);
    let mut stats = team.run_supersteps("scaffold/meraligner-index", |ctx, step| {
        let rank = ctx.rank;
        mail.deliver(rank, step, |_, hits| {
            table.merge_batch(rank, hits.drain(..), merge)
        });
        let windows = &windows[ctx.chunk(windows.len())];
        mail.send(ctx, step, windows.len(), |ctx, w, post| {
            let (ci, seeds) = &windows[w];
            let contig = &contigs.contigs[*ci];
            let lo = seeds.start;
            let hi = (seeds.end + seed_len - 1).min(contig.seq.len());
            for (off, km, canon) in codec.canonical_kmers(&contig.seq[lo..hi]) {
                ctx.stats.compute(1);
                let hit = SeedHit {
                    contig: *ci as u32,
                    pos: (lo + off) as u32,
                    rc: canon != km,
                };
                if palindromes && codec.revcomp(km) == km {
                    mark(&hit);
                }
                let list = HitList {
                    hits: vec![hit],
                    total: 1,
                };
                post.push(ctx, table.owner(&canon), (canon, list));
            }
        })
    });
    table.drain_service_into(&mut stats);
    let report = PhaseReport::new("scaffold/meraligner-index", *team.topo(), stats);
    let index = SeedIndex {
        table: table.freeze(),
        codec,
        shared: shared.into_iter().map(AtomicU64::into_inner).collect(),
        base_offsets,
    };
    (index, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipmer_pgas::{RankCtx, Topology};

    fn contigs_from(seqs: &[&[u8]]) -> ContigSet {
        ContigSet::from_sequences(
            KmerCodec::new(21),
            seqs.iter().map(|s| s.to_vec()).collect(),
        )
    }

    fn lcg(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(7);
                b"ACGT"[(x >> 60) as usize % 4]
            })
            .collect()
    }

    #[test]
    fn every_seed_is_indexed_at_its_position() {
        let c0 = lcg(200, 1);
        let set = contigs_from(&[&c0]);
        let team = Team::new(Topology::new(4, 2));
        let (index, _) = build_seed_index(&team, &set, 15);
        let mut ctx = RankCtx::new(0, Topology::new(4, 2));
        let codec = KmerCodec::new(15);
        for (pos, km) in codec.kmers(&set.contigs[0].seq) {
            let canon = codec.canonical(km);
            let list = index.table.get(&mut ctx, &canon).expect("seed indexed");
            assert!(
                list.hits.iter().any(|h| h.pos == pos as u32),
                "missing hit at {pos}"
            );
        }
    }

    #[test]
    fn rc_flag_reflects_orientation() {
        let set = contigs_from(&[b"TTTTTTTTTTTTTTTTTTTTTGGGGG"]);
        let team = Team::new(Topology::new(1, 1));
        let (index, _) = build_seed_index(&team, &set, 15);
        let mut ctx = RankCtx::new(0, Topology::new(1, 1));
        let codec = KmerCodec::new(15);
        // TTT... seed: canonical is AAA..., so rc must be true.
        let km = codec.pack(b"TTTTTTTTTTTTTTT").unwrap();
        let canon = codec.canonical(km);
        assert_ne!(canon, km);
        let list = index.table.get(&mut ctx, &canon).unwrap();
        assert!(list.hits.iter().all(|h| h.rc));
    }

    #[test]
    fn repeat_seeds_are_capped_but_counted() {
        // The same 30-base block in many contigs.
        let block = lcg(30, 9);
        let seqs: Vec<Vec<u8>> = (0..20)
            .map(|i| {
                let mut s = lcg(40, 100 + i);
                s.extend_from_slice(&block);
                s.extend(lcg(40, 200 + i));
                s
            })
            .collect();
        let set = ContigSet::from_sequences(KmerCodec::new(21), seqs);
        let team = Team::new(Topology::new(2, 2));
        let (index, _) = build_seed_index(&team, &set, 15);
        let mut ctx = RankCtx::new(0, Topology::new(2, 2));
        let codec = KmerCodec::new(15);
        let km = codec.canonical(codec.pack(&block[..15]).unwrap());
        let list = index.table.get(&mut ctx, &km).unwrap();
        assert_eq!(list.total, 20);
        assert!(list.hits.len() <= MAX_SEED_HITS);
        assert!(list.is_repeat());
        // Every copy is marked shared, the dropped hits' included.
        for (ci, c) in set.contigs.iter().enumerate() {
            let at = (c.seq.windows(30).position(|w| w == &block[..])).unwrap();
            assert!(index.shares_a_seed(ci as u32, at, at));
        }
    }

    #[test]
    fn shared_seed_bits_match_a_count_at_every_thread_count() {
        // A 30-base block in three contigs and reverse-complemented in a
        // fourth: each of its seeds is marked at all four positions, the
        // first hit when the second arrives.
        let block = lcg(30, 5);
        let mut seqs: Vec<Vec<u8>> = (0..12).map(|i| lcg(150, 300 + i)).collect();
        for s in &mut seqs[..3] {
            s.splice(60..60, block.iter().copied());
        }
        seqs[3].splice(20..20, hipmer_dna::revcomp(&block));
        let set = ContigSet::from_sequences(KmerCodec::new(21), seqs);
        let codec = KmerCodec::new(15);
        let mut counts = std::collections::HashMap::new();
        for c in &set.contigs {
            for (_, _, canon) in codec.canonical_kmers(&c.seq) {
                *counts.entry(canon).or_insert(0) += 1;
            }
        }
        let bits = |threads: usize| {
            let team = Team::new(Topology::new(8, 4)).with_os_threads(threads);
            build_seed_index(&team, &set, 15).0.shared
        };
        let serial = bits(1);
        for threads in [2, 4, 8] {
            assert_eq!(bits(threads), serial, "{threads} threads");
        }
        let team = Team::new(Topology::new(8, 4));
        let (index, _) = build_seed_index(&team, &set, 15);
        let mut marked = 0;
        for (ci, c) in set.contigs.iter().enumerate() {
            for (pos, _, canon) in codec.canonical_kmers(&c.seq) {
                let shared = counts[&canon] >= 2;
                assert_eq!(index.shares_a_seed(ci as u32, pos, pos), shared);
                marked += shared as usize;
            }
        }
        // Each copy's 16 inner seeds at least; a flank base two copies
        // happen to share extends that by one.
        assert!(marked >= 4 * (30 - 15 + 1), "{marked}");
    }

    #[test]
    fn index_is_complete_across_rank_counts() {
        let seqs: Vec<Vec<u8>> = (0..10).map(|i| lcg(120, i)).collect();
        let set = ContigSet::from_sequences(KmerCodec::new(21), seqs);
        let sizes = |ranks: usize| -> usize {
            let team = Team::new(Topology::new(ranks, 4));
            let (index, _) = build_seed_index(&team, &set, 15);
            index.table.len()
        };
        let a = sizes(1);
        let b = sizes(8);
        assert_eq!(a, b);
    }
}
