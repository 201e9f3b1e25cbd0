//! The seed-and-extend alignment driver.
//!
//! Communication structure (merAligner §4.4): each rank streams **all** its
//! reads' seed lookups through one [`LookupBatch`] (stage 1), consulting a
//! per-rank [`SoftwareCache`] of seed hit lists first, then runs the
//! candidate-clustering and extension logic per read on the resolved lists
//! (stage 2) with a second cache of contig replicas. Both optimizations are
//! result-transparent — alignments are byte-identical to the fine-grained
//! path — and both are ablatable via [`AlignConfig::lookup_batch`] and
//! [`AlignConfig::cache_entries`].

use crate::index::{build_seed_index, HitList, SeedIndex};
use crate::sw::ungapped_matches;
use hipmer_contig::ContigSet;
use hipmer_dna::{Kmer, KmerCodec, KmerHashMap};
use hipmer_pgas::agg::DEFAULT_BATCH;
use hipmer_pgas::{
    LookupBatch, PartitionScheme, PhaseReport, RankCtx, Schedule, SoftwareCache, Team,
};
use hipmer_seqio::SeqRecord;

/// merAligner configuration.
#[derive(Clone, Debug)]
pub struct AlignConfig {
    /// Seed k-mer length.
    pub seed_len: usize,
    /// Seed lookups buffered per destination rank before they ship as one
    /// [`LookupBatch`] message. `<= 1` disables batching and issues one
    /// fine-grained get per seed — the unoptimized baseline, kept as an
    /// ablation hook.
    pub lookup_batch: usize,
    /// Capacity of the per-rank seed cache (which caches *negatively*:
    /// absent seeds are remembered as absent) and of the per-rank contig
    /// replica cache. `0` disables both caches.
    pub cache_entries: usize,
    /// How reads are dealt to ranks. [`Schedule::Dynamic`] deals guided
    /// chunks weighted by read length, which absorbs the skew of
    /// repeat-heavy or long-read-tailed inputs; alignments are byte-
    /// identical either way.
    pub schedule: Schedule,
    /// Seed-index ownership scheme. [`PartitionScheme::Minimizer`]
    /// co-locates a read's adjacent stride seeds on one rank so each
    /// read's lookup batch touches fewer distinct owners; alignments
    /// are byte-identical either way.
    pub partition: PartitionScheme,
}

impl AlignConfig {
    /// Defaults for a given seed length.
    pub fn new(seed_len: usize) -> Self {
        AlignConfig {
            seed_len,
            lookup_batch: DEFAULT_BATCH,
            cache_entries: 4096,
            schedule: Schedule::Static,
            partition: PartitionScheme::Uniform,
        }
    }
}

/// Look up every fourth seed position of the read: with 15-base seeds a
/// 100-base read still probes ~22 positions, several per error-free
/// stretch at the simulated 1 % error rate.
const SEED_STRIDE: usize = 4;
/// Minimum identity (matches / aligned length) to keep an alignment.
const MIN_IDENTITY: f64 = 0.92;
/// Minimum aligned length to keep an alignment (two seed lengths).
const MIN_ALIGNED: usize = 30;
/// Keep at most this many alignments per read (best first); twice as many
/// candidates are extended to find them.
const MAX_ALIGNMENTS_PER_READ: usize = 4;
/// Band half-width of the gapped fallback: the indels a short read carries
/// are a few bases. It is also how far an extension may drift from the
/// seeds' diagonal, which bounds how far from a contig end a changed
/// neighbour can still change a read's alignment.
pub const BAND: usize = 8;

/// One read-to-contig alignment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Alignment {
    /// Global read index (into the read slice handed to [`align_reads`] or
    /// [`align_read_subset`]).
    pub read: u32,
    /// Contig id.
    pub contig: u32,
    /// Alignment start in the read (0-based, forward read coordinates).
    pub read_start: u32,
    /// Alignment end in the read (exclusive).
    pub read_end: u32,
    /// Alignment start in the contig.
    pub contig_start: u32,
    /// Alignment end in the contig (exclusive).
    pub contig_end: u32,
    /// `true` if the read aligns to the contig's reverse strand.
    pub rc: bool,
    /// Matching bases.
    pub matches: u32,
    /// Read length (carried for projection convenience).
    pub read_len: u32,
}

impl Alignment {
    /// Identity over the aligned span.
    pub fn identity(&self) -> f64 {
        let len = (self.read_end - self.read_start) as f64;
        if len == 0.0 {
            0.0
        } else {
            self.matches as f64 / len
        }
    }

    /// Whether the alignment covers (nearly) the whole read.
    pub fn is_full_length(&self, slack: u32) -> bool {
        self.read_start <= slack && self.read_end + slack >= self.read_len
    }
}

/// A candidate (contig, strand, diagonal) cluster during seeding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Candidate {
    contig: u32,
    rc: bool,
    /// Contig position minus read position (the diagonal), offset to stay
    /// non-negative.
    diag: i64,
}

/// One stride-selected seed of a read with its resolved hit list.
struct ResolvedSeed {
    /// Seed position in the read (forward coordinates).
    rpos: usize,
    /// Canonical seed appears reverse-complemented in the read.
    read_rc: bool,
    /// Canonical seed k-mer (the index key).
    canon: Kmer,
    /// The hit list, once resolved (`None` = seed absent from the index).
    list: Option<HitList>,
}

/// The seeds the aligner looks `seq` up by: every fourth valid k-mer of
/// `codec`'s length, as `(position, k-mer, canonical k-mer)`. Every
/// candidate of a read comes from the index hits of these seeds.
pub fn stride_seeds<'a>(
    codec: &KmerCodec,
    seq: &'a [u8],
) -> impl Iterator<Item = (usize, Kmer, Kmer)> + 'a {
    codec
        .canonical_kmers(seq)
        .enumerate()
        .filter(|(i, _)| i % SEED_STRIDE == 0)
        .map(|(_, seed)| seed)
}

/// Write one resolved lookup back into its seed slot, remembering the
/// result (present *or* absent) in the seed cache.
fn deliver_seed(
    resolved: &mut [Vec<ResolvedSeed>],
    cache: &mut Option<SoftwareCache<Kmer, Option<HitList>>>,
    (slot, s): (usize, usize),
    list: Option<HitList>,
) {
    if let Some(c) = cache.as_mut() {
        c.insert(resolved[slot][s].canon, list.clone());
    }
    resolved[slot][s].list = list;
}

/// Stage 1: resolve every stride-selected seed of the rank's reads
/// (`read_ids`, indices into `reads`).
///
/// Cache-first, then one streaming [`LookupBatch`] over all misses of all
/// reads — seeds from different reads that hash to the same owner share a
/// message, which is what makes batching effective at high rank counts
/// (a single read's ~two dozen seeds scatter too thinly). Results are
/// byte-identical to per-seed [`DistHashMap::get`]s; only the message
/// accounting differs.
///
/// [`DistHashMap::get`]: hipmer_pgas::DistHashMap::get
fn resolve_seeds(
    ctx: &mut RankCtx,
    index: &SeedIndex,
    reads: &[SeqRecord],
    read_ids: &[u32],
    cfg: &AlignConfig,
) -> Vec<Vec<ResolvedSeed>> {
    let codec = &index.codec;
    let mut resolved: Vec<Vec<ResolvedSeed>> = read_ids
        .iter()
        .map(|&ri| {
            stride_seeds(codec, &reads[ri as usize].seq)
                .map(|(pos, km, canon)| ResolvedSeed {
                    rpos: pos,
                    read_rc: canon != km,
                    canon,
                    list: None,
                })
                .collect()
        })
        .collect();

    let mut cache: Option<SoftwareCache<Kmer, Option<HitList>>> =
        (cfg.cache_entries > 0).then(|| SoftwareCache::new(cfg.cache_entries));

    // The seed index is immutable during alignment; the sequence-validated
    // read protocol (DESIGN.md §12) lets us assert that no writer raced
    // this read-only phase.
    #[cfg(debug_assertions)]
    let stamp_before = index.table.version_stamp();

    // A miss either joins the streaming batch or, with batching ablated
    // (`lookup_batch <= 1`), is one fine-grained get.
    let mut lb: Option<LookupBatch<'_, Kmer, HitList, (usize, usize)>> =
        (cfg.lookup_batch > 1).then(|| LookupBatch::with_batch(&index.table, cfg.lookup_batch));
    for slot in 0..resolved.len() {
        for s in 0..resolved[slot].len() {
            let canon = resolved[slot][s].canon;
            if let Some(c) = cache.as_mut() {
                if let Some(list) = c.get(ctx, &canon) {
                    resolved[slot][s].list = list;
                    continue;
                }
            }
            match lb.as_mut() {
                Some(lb) => lb.push(ctx, canon, (slot, s), &mut |_: &mut RankCtx, tag, v| {
                    deliver_seed(&mut resolved, &mut cache, tag, v)
                }),
                None => {
                    let v = index.table.get(ctx, &canon);
                    deliver_seed(&mut resolved, &mut cache, (slot, s), v);
                }
            }
        }
    }
    if let Some(lb) = lb {
        lb.finish(ctx, &mut |_: &mut RankCtx, tag, v| {
            deliver_seed(&mut resolved, &mut cache, tag, v)
        });
    }
    #[cfg(debug_assertions)]
    assert_eq!(
        index.table.version_stamp(),
        stamp_before,
        "seed index mutated during read-only seed resolution"
    );
    resolved
}

/// Stage 2: align one read against the contigs from its resolved seeds.
fn align_one(
    ctx: &mut RankCtx,
    index: &SeedIndex,
    contigs: &ContigSet,
    read: &SeqRecord,
    read_idx: u32,
    seeds: &[ResolvedSeed],
    mut contig_cache: Option<&mut SoftwareCache<u32, ()>>,
) -> Vec<Alignment> {
    let codec = &index.codec;
    // Sorted in full below, so the map's order never reaches the output.
    let mut candidates: KmerHashMap<Candidate, u32> = KmerHashMap::default();

    for seed in seeds {
        let Some(list) = &seed.list else {
            continue;
        };
        ctx.stats.compute(1);
        if list.is_repeat() {
            continue;
        }
        for hit in &list.hits {
            // Strand of the read relative to the contig: the seed is RC'd
            // in the contig (hit.rc) and/or in the read (read_rc).
            let rc = hit.rc != seed.read_rc;
            let diag = if rc {
                // On the reverse strand the read position counts from the
                // read's end.
                hit.pos as i64 + (seed.rpos + codec.k()) as i64
            } else {
                hit.pos as i64 - seed.rpos as i64
            };
            *candidates
                .entry(Candidate {
                    contig: hit.contig,
                    rc,
                    diag,
                })
                .or_insert(0) += 1;
        }
    }

    // Extend candidates, best-supported first.
    let mut ordered: Vec<(Candidate, u32)> = candidates.into_iter().collect();
    ordered.sort_by(|a, b| {
        b.1.cmp(&a.1).then_with(|| {
            let ka = (a.0.contig, a.0.rc as u8, a.0.diag);
            let kb = (b.0.contig, b.0.rc as u8, b.0.diag);
            ka.cmp(&kb)
        })
    });

    let mut out: Vec<Alignment> = Vec::new();
    for (cand, _support) in ordered.into_iter().take(2 * MAX_ALIGNMENTS_PER_READ) {
        let contig = &contigs.contigs[cand.contig as usize];
        let owner = cand.contig as usize % ctx.topo().ranks();
        match contig_cache.as_deref_mut() {
            // Replica-cached path: a miss fetches the whole contig once
            // (contig-length bytes, one message); every later candidate on
            // this contig is served from the local replica.
            Some(cache) => {
                if cache.get(ctx, &cand.contig).is_none() {
                    ctx.access(owner, contig.seq.len() as u64);
                    cache.insert(cand.contig, ());
                }
            }
            // Fine-grained path: fetch a read-length contig window per
            // candidate from the contig's owner (cyclic by id).
            None => ctx.access(owner, read.seq.len() as u64),
        }

        // Orient the read to the contig's forward strand.
        let oriented: std::borrow::Cow<[u8]> = if cand.rc {
            hipmer_dna::revcomp(&read.seq).into()
        } else {
            (&read.seq[..]).into()
        };
        // In forward-oriented coordinates the diagonal gives the read's
        // start position on the contig.
        let start = if cand.rc {
            cand.diag - oriented.len() as i64
        } else {
            cand.diag
        };
        // Clip to contig bounds.
        let r0 = (-start).max(0) as usize; // read offset where overlap begins
        let c0 = start.max(0) as usize;
        if c0 >= contig.seq.len() || r0 >= oriented.len() {
            continue;
        }
        let span = (oriented.len() - r0).min(contig.seq.len() - c0);
        if span < MIN_ALIGNED {
            continue;
        }
        // Fast path: ungapped comparison (substitution-only reads).
        let (matches, aligned) =
            ungapped_matches(&oriented[r0..r0 + span], &contig.seq[c0..c0 + span]);
        ctx.stats.compute(aligned as u64);
        let identity = matches as f64 / aligned as f64;
        // Coordinates in the oriented read / contig, possibly refined by
        // the gapped path below.
        let (mut ro_start, mut ro_end) = (r0, r0 + aligned);
        let (mut co_start, mut co_end) = (c0, c0 + aligned);
        let mut matches = matches;
        if identity < MIN_IDENTITY {
            // Gapped fallback: a small indel breaks the diagonal; banded
            // Smith-Waterman recovers it (merAligner's extension kernel).
            // The window starts on the candidate's diagonal, which puts it
            // in the middle of the band: a tail shifted either way by up to
            // `BAND` bases (read insertion or deletion) stays reachable.
            let cw_start = c0;
            let cw_end = (c0 + span + BAND).min(contig.seq.len());
            let sw = crate::sw::banded_sw(
                &oriented[r0..r0 + span],
                &contig.seq[cw_start..cw_end],
                &crate::sw::SwParams {
                    band: BAND,
                    ..crate::sw::SwParams::default()
                },
            );
            ctx.stats.compute((span * BAND) as u64);
            if sw.aligned < MIN_ALIGNED || (sw.matches as f64) < MIN_IDENTITY * sw.aligned as f64 {
                continue;
            }
            ro_start = r0 + sw.a_start;
            ro_end = r0 + sw.a_end;
            co_start = cw_start + sw.b_start;
            co_end = cw_start + sw.b_end;
            matches = sw.matches;
        } else if aligned < MIN_ALIGNED {
            continue;
        }
        // Convert back to forward-read coordinates.
        let (read_start, read_end) = if cand.rc {
            (oriented.len() - ro_end, oriented.len() - ro_start)
        } else {
            (ro_start, ro_end)
        };
        out.push(Alignment {
            read: read_idx,
            contig: cand.contig,
            read_start: read_start as u32,
            read_end: read_end as u32,
            contig_start: co_start as u32,
            contig_end: co_end as u32,
            rc: cand.rc,
            matches: matches as u32,
            read_len: read.seq.len() as u32,
        });
        if out.len() >= MAX_ALIGNMENTS_PER_READ {
            break;
        }
    }
    let mut out = drop_contained(out);
    // Deterministic order, best first.
    out.sort_by(|a, b| {
        b.matches
            .cmp(&a.matches)
            .then_with(|| (a.contig, a.contig_start).cmp(&(b.contig, b.contig_start)))
    });
    out
}

/// Drop those of one read's alignments whose read interval is (within five
/// bases) contained in a better alignment to the same contig and strand —
/// the secondary diagonals of one gapped alignment. Keeps the rest, most
/// matches first.
pub fn drop_contained(mut alignments: Vec<Alignment>) -> Vec<Alignment> {
    alignments.sort_by_key(|a| std::cmp::Reverse(a.matches));
    let mut kept: Vec<Alignment> = Vec::with_capacity(alignments.len());
    for a in alignments {
        let contained = kept.iter().any(|k| {
            k.contig == a.contig
                && k.rc == a.rc
                && a.read_start >= k.read_start.saturating_sub(5)
                && a.read_end <= k.read_end + 5
        });
        if !contained {
            kept.push(a);
        }
    }
    kept
}

/// The order alignments are returned in: by read, then contig, then
/// position — on the full record, so it is independent of which rank
/// produced each alignment (dynamic scheduling permutes the chunks) and of
/// whether an alignment was computed or carried over from an earlier
/// contig set.
pub fn sort_alignments(alignments: &mut [Alignment]) {
    alignments.sort_by_key(|a| {
        (
            a.read,
            a.contig,
            a.contig_start,
            a.contig_end,
            a.rc,
            a.read_start,
            a.read_end,
        )
    });
}

/// Align all reads against the contigs. Returns alignments sorted by
/// (read, contig, position) plus the phase reports (index build included).
pub fn align_reads(
    team: &Team,
    contigs: &ContigSet,
    reads: &[SeqRecord],
    cfg: &AlignConfig,
) -> (Vec<Alignment>, Vec<PhaseReport>) {
    let all: Vec<u32> = (0..reads.len() as u32).collect();
    align_read_subset(team, contigs, reads, &all, cfg)
}

/// Align the reads `subset` names (ascending indices into `reads`) against
/// the contigs; [`Alignment::read`] indexes `reads`. A read's alignments
/// depend only on the read, the contigs and `cfg`, so they are exactly the
/// ones [`align_reads`] finds for it. Same phases and order as
/// [`align_reads`].
pub fn align_read_subset(
    team: &Team,
    contigs: &ContigSet,
    reads: &[SeqRecord],
    subset: &[u32],
    cfg: &AlignConfig,
) -> (Vec<Alignment>, Vec<PhaseReport>) {
    let (index, index_report) = build_seed_index(team, contigs, cfg.seed_len, cfg.partition);

    // Per-read cost proxy for the dynamic scheduler: seeding and extension
    // work both scale with read length. Under `Schedule::Static` the
    // weights are ignored (one contiguous block per rank, as before).
    let weights: Vec<u64> = subset
        .iter()
        .map(|&ri| reads[ri as usize].seq.len() as u64)
        .collect();
    let (chunks, mut stats) = team.run_named("scaffold/meraligner-align", |ctx| {
        // The contig replica cache persists across claimed ranges — it is
        // result-transparent, so reuse only saves messages.
        let mut contig_cache: Option<SoftwareCache<u32, ()>> =
            (cfg.cache_entries > 0).then(|| SoftwareCache::new(cfg.cache_entries));
        let mut out = Vec::new();
        for range in cfg.schedule.ranges_weighted(ctx, &weights) {
            let read_ids = &subset[range];
            // Stage 1: every seed of every read in the range goes through
            // the seed cache and one streaming lookup batch.
            let resolved = resolve_seeds(ctx, &index, reads, read_ids, cfg);
            // Stage 2: candidate clustering and extension on resolved
            // lists, with contig replicas cached per rank.
            for (&ri, seeds) in read_ids.iter().zip(&resolved) {
                out.extend(align_one(
                    ctx,
                    &index,
                    contigs,
                    &reads[ri as usize],
                    ri,
                    seeds,
                    contig_cache.as_mut(),
                ));
            }
        }
        out
    });
    index.table.drain_service_into(&mut stats);
    let mut alignments: Vec<Alignment> = chunks.into_iter().flatten().collect();
    sort_alignments(&mut alignments);
    // The align loop reads the same seed table the index build placed, so
    // both phases share one placement label in the report's split.
    let label = index_report.placement.clone().unwrap_or_default();
    (
        alignments,
        vec![
            index_report,
            PhaseReport::new("scaffold/meraligner-align", *team.topo(), stats)
                .with_placement(label),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipmer_dna::{revcomp, KmerCodec};
    use hipmer_pgas::Topology;

    fn lcg(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(13);
                b"ACGT"[(x >> 60) as usize % 4]
            })
            .collect()
    }

    fn one_contig_set(seq: Vec<u8>) -> ContigSet {
        ContigSet::from_sequences(KmerCodec::new(21), vec![seq])
    }

    fn read(id: &str, seq: Vec<u8>) -> SeqRecord {
        SeqRecord::with_uniform_quality(id, seq, 35)
    }

    #[test]
    fn exact_read_aligns_full_length_at_right_position() {
        let genome = lcg(500, 3);
        let contigs = one_contig_set(genome.clone());
        let team = Team::new(Topology::new(2, 2));
        let r = read("r0", genome[100..200].to_vec());
        let (alns, _) = align_reads(&team, &contigs, &[r], &AlignConfig::new(15));
        assert_eq!(alns.len(), 1);
        let a = &alns[0];
        assert_eq!(a.contig_start, 100);
        assert_eq!(a.contig_end, 200);
        assert!(!a.rc);
        assert_eq!(a.matches, 100);
        assert!(a.is_full_length(0));
        assert!((a.identity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reverse_strand_read_is_found() {
        let genome = lcg(500, 5);
        let contigs = one_contig_set(genome.clone());
        let team = Team::new(Topology::new(2, 2));
        let r = read("r0", revcomp(&genome[250..350]));
        let (alns, _) = align_reads(&team, &contigs, &[r], &AlignConfig::new(15));
        assert_eq!(alns.len(), 1);
        let a = &alns[0];
        assert!(a.rc);
        assert_eq!(a.contig_start, 250);
        assert_eq!(a.contig_end, 350);
        assert_eq!(a.matches, 100);
    }

    #[test]
    fn read_with_errors_still_aligns() {
        let genome = lcg(400, 7);
        let contigs = one_contig_set(genome.clone());
        let team = Team::new(Topology::new(1, 1));
        let mut seq = genome[50..150].to_vec();
        seq[10] ^= 6; // mutate two bases (xor keeps it in ACGT alphabet? no)
        seq[10] = if seq[10] == b'A' { b'C' } else { b'A' };
        seq[70] = if seq[70] == b'G' { b'T' } else { b'G' };
        let (alns, _) = align_reads(&team, &contigs, &[read("r", seq)], &AlignConfig::new(15));
        assert_eq!(alns.len(), 1);
        assert!(alns[0].matches >= 98);
    }

    #[test]
    fn read_overhanging_contig_end_is_clipped() {
        let genome = lcg(300, 9);
        let contigs = one_contig_set(genome.clone());
        let team = Team::new(Topology::new(1, 1));
        // Read starts 40 bases before the contig end: 40 aligned, 60 hang.
        let mut seq = genome[260..300].to_vec();
        seq.extend(lcg(60, 77)); // random tail off the contig
        let (alns, _) = align_reads(&team, &contigs, &[read("r", seq)], &AlignConfig::new(15));
        assert_eq!(alns.len(), 1);
        let a = &alns[0];
        assert_eq!(a.read_start, 0);
        assert_eq!(a.read_end, 40);
        assert_eq!(a.contig_start, 260);
        assert_eq!(a.contig_end, 300);
        assert!(!a.is_full_length(5));
    }

    #[test]
    fn read_spanning_two_contigs_aligns_to_both() {
        // Two contigs that are adjacent in the genome; a read across the
        // junction must produce one clipped alignment per contig (the
        // splint signal of §4.5).
        let g1 = lcg(200, 11);
        let g2 = lcg(200, 13);
        let contigs = ContigSet::from_sequences(KmerCodec::new(21), vec![g1.clone(), g2.clone()]);
        let team = Team::new(Topology::new(2, 2));
        let mut junction = g1[150..].to_vec();
        junction.extend_from_slice(&g2[..50]);
        let (alns, _) = align_reads(
            &team,
            &contigs,
            &[read("r", junction)],
            &AlignConfig::new(15),
        );
        assert_eq!(alns.len(), 2, "got {alns:?}");
        let contigs_hit: Vec<u32> = alns.iter().map(|a| a.contig).collect();
        assert_eq!(contigs_hit.len(), 2);
        assert_ne!(contigs_hit[0], contigs_hit[1]);
        for a in &alns {
            assert_eq!(a.matches, 50);
        }
    }

    #[test]
    fn unrelated_read_does_not_align() {
        let contigs = one_contig_set(lcg(300, 15));
        let team = Team::new(Topology::new(1, 1));
        let (alns, _) = align_reads(
            &team,
            &contigs,
            &[read("r", lcg(100, 999))],
            &AlignConfig::new(15),
        );
        assert!(alns.is_empty(), "{alns:?}");
    }

    #[test]
    fn alignments_deterministic_across_rank_counts() {
        let genome = lcg(1000, 17);
        let contigs = one_contig_set(genome.clone());
        let reads: Vec<SeqRecord> = (0..20)
            .map(|i| read(&format!("r{i}"), genome[i * 40..i * 40 + 100].to_vec()))
            .collect();
        let run = |ranks: usize| {
            let team = Team::new(Topology::new(ranks, 4));
            align_reads(&team, &contigs, &reads, &AlignConfig::new(15)).0
        };
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn minimizer_partition_gives_identical_alignments() {
        let genome = lcg(1500, 41);
        let contigs = one_contig_set(genome.clone());
        let reads: Vec<SeqRecord> = (0..25)
            .map(|i| read(&format!("r{i}"), genome[i * 50..i * 50 + 100].to_vec()))
            .collect();
        let run = |scheme: PartitionScheme, ranks: usize| {
            let team = Team::new(Topology::new(ranks, 4));
            let cfg = AlignConfig {
                partition: scheme,
                ..AlignConfig::new(15)
            };
            align_reads(&team, &contigs, &reads, &cfg).0
        };
        for ranks in [1, 8] {
            assert_eq!(
                run(PartitionScheme::Uniform, ranks),
                run(PartitionScheme::Minimizer, ranks)
            );
        }
    }

    #[test]
    fn batching_and_caching_are_result_transparent_and_save_messages() {
        let genome = lcg(1200, 31);
        let contigs = one_contig_set(genome.clone());
        // Overlapping reads so seeds repeat across reads (cache fodder).
        let reads: Vec<SeqRecord> = (0..30)
            .map(|i| read(&format!("r{i}"), genome[i * 20..i * 20 + 100].to_vec()))
            .collect();
        let run = |lookup_batch: usize, cache_entries: usize| {
            let team = Team::new(Topology::new(6, 3));
            let cfg = AlignConfig {
                lookup_batch,
                cache_entries,
                ..AlignConfig::new(15)
            };
            let (alns, reports) = align_reads(&team, &contigs, &reads, &cfg);
            let align_phase = reports
                .iter()
                .find(|r| r.name == "scaffold/meraligner-align")
                .unwrap();
            (alns, align_phase.totals())
        };
        let (base_alns, base) = run(1, 0); // fine-grained baseline
        let (batch_alns, batch) = run(64, 0); // batch only
        let (full_alns, full) = run(64, 4096); // batch + caches

        // Alignments are byte-identical under every configuration.
        assert_eq!(base_alns, batch_alns);
        assert_eq!(base_alns, full_alns);

        // Batching cuts messages without touching bytes or compute.
        assert!(batch.total_accesses() < base.total_accesses());
        assert!(batch.lookup_batches > 0);
        assert_eq!(base.compute_ops, batch.compute_ops);
        assert_eq!(
            base.onnode_bytes + base.offnode_bytes,
            batch.onnode_bytes + batch.offnode_bytes
        );

        // Caching cuts messages further and records its effectiveness.
        assert!(full.total_accesses() < batch.total_accesses());
        assert!(full.cache_hits > 0);
        assert!(full.cache_misses > 0);
        assert_eq!(base.cache_hits, 0);
        assert_eq!(batch.cache_hits, 0);
    }
}

#[cfg(test)]
mod gapped_tests {
    use super::*;
    use hipmer_contig::ContigSet;
    use hipmer_dna::KmerCodec;
    use hipmer_pgas::{Team, Topology};

    fn lcg(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(19);
                b"ACGT"[(x >> 60) as usize % 4]
            })
            .collect()
    }

    #[test]
    fn read_with_deletion_aligns_via_gapped_path() {
        let genome = lcg(500, 21);
        let contigs = ContigSet::from_sequences(KmerCodec::new(21), vec![genome.clone()]);
        let team = Team::new(Topology::new(1, 1));
        // Read = genome[100..201] with one base deleted in the middle.
        let mut seq = genome[100..201].to_vec();
        seq.remove(50);
        let r = hipmer_seqio::SeqRecord::with_uniform_quality("del", seq, 35);
        let (alns, _) = align_reads(&team, &contigs, &[r], &AlignConfig::new(15));
        assert_eq!(alns.len(), 1, "{alns:?}");
        let a = &alns[0];
        // 100 read bases aligned over 101 contig bases with 100 matches.
        assert!(a.matches >= 98, "matches {}", a.matches);
        assert!(a.contig_end - a.contig_start >= 99);
        assert!(a.identity() > 0.9);
    }

    /// A deletion past the last seed leaves only the seeds' diagonal, so the
    /// banded fallback alone has to follow the tail one base to the right.
    #[test]
    fn deletion_after_the_last_seed_aligns_full_length() {
        let genome = lcg(500, 31);
        let contigs = ContigSet::from_sequences(KmerCodec::new(21), vec![genome.clone()]);
        let team = Team::new(Topology::new(1, 1));
        for at in [86, 87, 88] {
            let mut deleted = genome[100..201].to_vec();
            deleted.remove(at);
            let mut inserted = genome[100..200].to_vec();
            inserted.insert(at, b'A');
            for (seq, contig_end, read_len) in [(deleted, 201, 100), (inserted, 200, 101)] {
                let r = hipmer_seqio::SeqRecord::with_uniform_quality("indel", seq, 35);
                let (alns, _) = align_reads(&team, &contigs, &[r], &AlignConfig::new(15));
                assert_eq!(alns.len(), 1, "indel at {at}: {alns:?}");
                let a = &alns[0];
                assert_eq!(
                    (a.read_start, a.read_end, a.contig_start, a.contig_end),
                    (0, read_len, 100, contig_end),
                    "indel at {at}: {a:?}"
                );
            }
        }
    }

    #[test]
    fn read_with_insertion_aligns_via_gapped_path() {
        let genome = lcg(500, 23);
        let contigs = ContigSet::from_sequences(KmerCodec::new(21), vec![genome.clone()]);
        let team = Team::new(Topology::new(1, 1));
        let mut seq = genome[200..300].to_vec();
        seq.insert(40, b'A');
        seq.insert(41, b'C');
        let r = hipmer_seqio::SeqRecord::with_uniform_quality("ins", seq, 35);
        let (alns, _) = align_reads(&team, &contigs, &[r], &AlignConfig::new(15));
        assert_eq!(alns.len(), 1, "{alns:?}");
        assert!(alns[0].matches >= 95, "matches {}", alns[0].matches);
    }
}
