//! The distributed seed index: seed k-mer → contig positions.

use hipmer_contig::ContigSet;
use hipmer_dna::{Kmer, KmerCodec};
use hipmer_pgas::{DistHashMap, Exchange, FrozenMap, PhaseReport, Team};

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
pub fn build_seed_index(
    team: &Team,
    contigs: &ContigSet,
    seed_len: usize,
) -> (SeedIndex, PhaseReport) {
    let codec = KmerCodec::new(seed_len);
    let table: DistHashMap<Kmer, HitList> = DistHashMap::new(*team.topo());

    let merge = |a: &mut HitList, b: HitList| {
        a.total += b.total;
        for h in b.hits {
            if a.hits.len() < MAX_SEED_HITS {
                a.hits.push(h);
            }
        }
    };

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
                let list = HitList {
                    hits: vec![hit],
                    total: 1,
                };
                post.push(ctx, table.owner(&canon), (canon, list));
            }
        })
    });
    table.drain_service_into(&mut stats);
    let report = PhaseReport::new("scaffold/meraligner-index", *team.topo(), stats)
        .with_placement("uniform");
    let table = table.freeze();
    (SeedIndex { table, codec }, report)
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
