//! The distributed seed index: seed k-mer → contig positions.
//!
//! The table maps a seed to a small `Copy` [`SeedEntry`]: the seed's total
//! occurrences and either its one hit or where its hits start in its
//! owner's hit array, one flat array per owner rank holding the hits of
//! the seeds found 2 to [`MAX_SEED_HITS`] times, seed after seed. Nothing
//! is allocated per seed, so building and dropping the index costs a few
//! arrays per rank, not a heap block per seed, and resolving a seed found
//! once, as most are, reads nothing but its entry.

use hipmer_contig::ContigSet;
use hipmer_dna::{Kmer, KmerCodec};
use hipmer_pgas::agg::DEFAULT_BATCH;
use hipmer_pgas::{prefix_sums, DistHashMap, Exchange, FrozenMap, PhaseReport, Team};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// One seed occurrence in a contig.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
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

/// Hits kept per seed: a seed found more often keeps only its count and is
/// treated as a repeat and skipped (repeat masking, as merAligner does; 8
/// tolerates the two haplotypes and a few paralogs).
pub const MAX_SEED_HITS: usize = 8;

/// A seed's entry in the index: how often it occurs and where its hits are
/// (16 bytes, so a table slot with its 16-byte key is no larger than the
/// key alone pads it to).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeedEntry {
    /// Occurrences in the contig set.
    pub total: u32,
    /// With `total == 1`, the seed's one hit. With more, for a seed that is
    /// no repeat, `contig` is the owner rank, whose hit array holds the
    /// hits, and `pos` the first of them there; unused for a repeat.
    place: SeedHit,
}

impl SeedEntry {
    /// Whether the seed should be ignored as a repeat (more occurrences
    /// than [`MAX_SEED_HITS`]); a repeat keeps no hits.
    pub fn is_repeat(&self) -> bool {
        self.total as usize > MAX_SEED_HITS
    }
}

/// The distributed seed index.
pub struct SeedIndex {
    /// Canonical seed k-mer → its entry; frozen when the build phase ends.
    pub table: FrozenMap<Kmer, SeedEntry>,
    /// Seed codec (seed length).
    pub codec: KmerCodec,
    /// Each owner rank's hits of its seeds found 2 to [`MAX_SEED_HITS`]
    /// times, seed after seed, in no particular order within a seed.
    hits: Vec<Vec<SeedHit>>,
    /// One bit per contig base, contig after contig: set iff the canonical
    /// seed starting there occurs at least twice in the contig set. A seed
    /// that is its own reverse complement (only possible at even seed
    /// lengths) counts as occurring on both strands.
    shared: Vec<u64>,
    /// Each contig's first bit in `shared`, by contig id.
    base_offsets: Vec<usize>,
}

impl SeedIndex {
    /// The hits of the seed `entry` describes: all `total` of them, in no
    /// particular order, or none for a repeat.
    pub fn hits<'a>(&'a self, entry: &'a SeedEntry) -> &'a [SeedHit] {
        if entry.total == 1 {
            return std::slice::from_ref(&entry.place);
        }
        if entry.is_repeat() {
            return &[];
        }
        let SeedHit {
            contig: owner,
            pos: start,
            ..
        } = entry.place;
        &self.hits[owner as usize][start as usize..][..entry.total as usize]
    }

    /// Whether a seed starting at any of `contig`'s positions `lo..=hi` is
    /// shared: found more than once in the contig set, repeats included.
    /// Positions with no seed (an `N` inside it, or too close to the
    /// contig's end) count as unshared.
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

/// Build the seed index over the contigs in parallel (the paper's point:
/// the lookup table build itself is fully parallel). Seeds are owned by
/// `key_hash % ranks`. Each rank indexes a block of contig windows, cut by
/// seed count, and posts every `(seed, hit)` to the seed's owner through an
/// [`Exchange`]; each owner keeps its mail and, in the superstep after the
/// last sender finished, groups it by seed into its table and hit array.
///
/// The grouping also marks the shared seeds' positions in the index's
/// bitset ([`SeedIndex::shares_a_seed`]): every hit of a seed with two or
/// more; the sender marks a seed that is its own reverse complement. Bits
/// are only ever set, so the bitset does not depend on the order of the
/// mail.
pub fn build_seed_index(
    team: &Team,
    contigs: &ContigSet,
    seed_len: usize,
) -> (SeedIndex, PhaseReport) {
    let codec = KmerCodec::new(seed_len);
    let ranks = team.ranks();
    let table: DistHashMap<Kmer, SeedEntry> = DistHashMap::new(*team.topo());

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
    // A seed that reads the same on both strands is found on both by a
    // read aligned to either, so it can never be a read's only candidate.
    let palindromes = seed_len.is_multiple_of(2);

    // Window-parallel work units so a dominant contig does not serialize
    // the index build onto one rank, cut into rank blocks by seed count.
    const WINDOW: usize = 4096;
    let windows = contigs.kmer_windows(seed_len, WINDOW);
    let prefix = prefix_sums(windows.iter().map(|(_, seeds)| seeds.len() as u64));

    // A hit travels as its seed and the hit, billed at their sizes.
    let wire = std::mem::size_of::<Kmer>() + std::mem::size_of::<SeedHit>();
    let mail: Exchange<(Kmer, SeedHit)> =
        Exchange::new(*team.topo(), DEFAULT_BATCH).with_item_bytes(wire as u64);
    let inbox: Vec<Mutex<Vec<(Kmer, SeedHit)>>> = (0..ranks).map(|_| Mutex::default()).collect();
    let hits: Vec<Mutex<Vec<SeedHit>>> = (0..ranks).map(|_| Mutex::default()).collect();
    let mut stats = team.run_supersteps("scaffold/meraligner-index", |ctx, step| {
        let rank = ctx.rank;
        let mut inbox = inbox[rank].lock();
        mail.deliver(rank, step, |_, items| inbox.append(items));
        let windows = &windows[ctx.cost_chunk(&prefix)];
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
                post.push(ctx, table.owner(&canon), (canon, hit));
            }
        });
        if !mail.all_sent_before(step) {
            return true;
        }
        // Every hit of this owner's seeds is in: group them by seed. Each
        // hit counts as one service op at the owner.
        let mut mine = std::mem::take(&mut *inbox);
        mine.sort_unstable_by_key(|&(seed, _)| seed);
        let mut kept = Vec::new();
        let entries = mine.chunk_by(|a, b| a.0 == b.0).flat_map(|run| {
            let mut entry = SeedEntry {
                total: run.len() as u32,
                place: run[0].1,
            };
            if run.len() >= 2 {
                run.iter().for_each(|(_, hit)| mark(hit));
                entry.place = SeedHit {
                    contig: rank as u32,
                    pos: kept.len() as u32,
                    rc: false,
                };
                if !entry.is_repeat() {
                    kept.extend(run.iter().map(|&(_, hit)| hit));
                }
            }
            run.iter().map(move |&(seed, _)| (seed, entry))
        });
        table.apply_batch(rank, entries, |_, _| {}, |_, entry| Some(entry));
        *hits[rank].lock() = kept;
        false
    });
    table.drain_service_into(&mut stats);
    let report = PhaseReport::new("scaffold/meraligner-index", *team.topo(), stats);
    let index = SeedIndex {
        table: table.freeze(),
        codec,
        hits: hits.into_iter().map(Mutex::into_inner).collect(),
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
            let entry = index.table.get(&mut ctx, &canon).expect("seed indexed");
            assert!(
                index.hits(entry).iter().any(|h| h.pos == pos as u32),
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
        let entry = index.table.get(&mut ctx, &canon).unwrap();
        assert!(index.hits(entry).iter().all(|h| h.rc));
    }

    #[test]
    fn repeat_seeds_keep_their_total_and_no_hits() {
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
        let entry = index.table.get(&mut ctx, &km).unwrap();
        assert_eq!(entry.total, 20);
        assert!(entry.is_repeat());
        assert!(index.hits(entry).is_empty());
        // Every copy is marked shared, though the repeat keeps no hit.
        for (ci, c) in set.contigs.iter().enumerate() {
            let at = (c.seq.windows(30).position(|w| w == &block[..])).unwrap();
            assert!(index.shares_a_seed(ci as u32, at, at));
        }
    }

    #[test]
    fn hits_equal_a_brute_force_scan_at_every_thread_count() {
        // Blocks repeated 3, 8 and 12 times among random contigs: the
        // first two stay under the cap, the third is a repeat.
        let blocks: Vec<Vec<u8>> = (0..3).map(|i| lcg(40, 50 + i)).collect();
        let mut seqs: Vec<Vec<u8>> = (0..30).map(|i| lcg(90 + 7 * i, 400 + i as u64)).collect();
        for (b, copies) in blocks.iter().zip([3, 8, 12]) {
            for (i, s) in seqs.iter_mut().take(copies).enumerate() {
                if i % 2 == 0 {
                    s.splice(30..30, b.iter().copied());
                } else {
                    s.splice(10..10, hipmer_dna::revcomp(b));
                }
            }
        }
        let set = ContigSet::from_sequences(KmerCodec::new(21), seqs);
        let codec = KmerCodec::new(15);
        let mut scan: std::collections::HashMap<Kmer, Vec<SeedHit>> = Default::default();
        for (ci, c) in set.contigs.iter().enumerate() {
            for (pos, km, canon) in codec.canonical_kmers(&c.seq) {
                let hit = SeedHit {
                    contig: ci as u32,
                    pos: pos as u32,
                    rc: km != canon,
                };
                scan.entry(canon).or_default().push(hit);
            }
        }
        assert!(scan.values().any(|h| h.len() > MAX_SEED_HITS));
        assert!(scan.values().any(|h| h.len() == MAX_SEED_HITS));
        for threads in [1, 2, 4, 8] {
            let topo = Topology::new(8, 4);
            let team = Team::new(topo).with_os_threads(threads);
            let (index, _) = build_seed_index(&team, &set, 15);
            assert_eq!(index.table.len(), scan.len());
            let mut ctx = RankCtx::new(0, topo);
            for (canon, want) in &scan {
                let entry = index.table.get(&mut ctx, canon).expect("seed indexed");
                assert_eq!(entry.total as usize, want.len());
                let mut got = index.hits(entry).to_vec();
                got.sort_unstable();
                let mut want = want.clone();
                want.sort_unstable();
                if want.len() > MAX_SEED_HITS {
                    want.clear();
                }
                assert_eq!(got, want, "{threads} threads");
            }
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
