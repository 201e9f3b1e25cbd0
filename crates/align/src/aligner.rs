//! The seed-and-extend alignment driver.
//!
//! Communication structure (merAligner §4.4): each rank streams **all** its
//! reads' seed lookups through one [`LookupBatch`] (stage 1), consulting a
//! per-rank [`SoftwareCache`] of seed hit lists first, then runs the
//! candidate-clustering and extension logic per read on the resolved lists
//! (stage 2) with a second cache of contig replicas. Both optimizations are
//! result-transparent: alignments are byte-identical to one `get` per
//! seed and one contig fetch per candidate, at fewer messages.
//!
//! Stage 2 goes block by block (`BLOCK` reads): *plan* each read's top
//! candidates up to the ungapped test, *batch* every gapped fallback of
//! the block through one [`banded_sw_batch_with`], sixteen alignments to
//! a SIMD pass, then *finish* each read with the candidate loop itself.
//! Only the finish touches the contig replica cache and charges compute,
//! in candidate order up to the read's last accepted alignment, so every
//! counter is what a read-at-a-time loop gives.

use crate::index::{build_seed_index, HitList, SeedIndex};
use crate::sw::{banded_sw_batch_with, ungapped_matches, SwParams, SwResult, SwWorkspace};
use hipmer_contig::ContigSet;
use hipmer_dna::{Kmer, KmerCodec, KmerHashMap};
use hipmer_pgas::agg::DEFAULT_BATCH;
use hipmer_pgas::{LookupBatch, PhaseReport, RankCtx, SoftwareCache, Team};
use hipmer_seqio::SeqRecord;

/// merAligner configuration.
#[derive(Clone, Debug)]
pub struct AlignConfig {
    /// Seed k-mer length.
    pub seed_len: usize,
}

impl AlignConfig {
    /// Defaults for a given seed length.
    pub fn new(seed_len: usize) -> Self {
        AlignConfig { seed_len }
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
/// Capacity of the per-rank seed cache (which caches *negatively*: absent
/// seeds are remembered as absent) and of the per-rank contig replica
/// cache: a few hundred KB per rank.
const CACHE_ENTRIES: usize = 4096;
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
struct ResolvedSeed<'a> {
    /// Seed position in the read (forward coordinates).
    rpos: usize,
    /// Canonical seed appears reverse-complemented in the read.
    read_rc: bool,
    /// Canonical seed k-mer (the index key).
    canon: Kmer,
    /// The hit list, once resolved (`None` = seed absent from the index).
    list: Option<&'a HitList>,
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
fn deliver_seed<'a>(
    resolved: &mut [Vec<ResolvedSeed<'a>>],
    cache: &mut SoftwareCache<Kmer, Option<&'a HitList>>,
    (slot, s): (usize, usize),
    list: Option<&'a HitList>,
) {
    cache.insert(resolved[slot][s].canon, list);
    resolved[slot][s].list = list;
}

/// Stage 1: resolve every stride-selected seed of the rank's reads
/// (`read_ids`, indices into `reads`).
///
/// Cache-first, then one streaming [`LookupBatch`] over all misses of all
/// reads — seeds from different reads that hash to the same owner share a
/// message, which is what makes batching effective at high rank counts
/// (a single read's ~two dozen seeds scatter too thinly). Results equal
/// per-seed [`FrozenMap::get`]s; only the message accounting differs. A
/// resolved seed points into the frozen index: no hit list is copied.
///
/// [`FrozenMap::get`]: hipmer_pgas::FrozenMap::get
fn resolve_seeds<'a>(
    ctx: &mut RankCtx,
    index: &'a SeedIndex,
    reads: &[SeqRecord],
    read_ids: &[u32],
) -> Vec<Vec<ResolvedSeed<'a>>> {
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

    let mut cache: SoftwareCache<Kmer, Option<&HitList>> = SoftwareCache::new(CACHE_ENTRIES);
    let mut lb: LookupBatch<'_, Kmer, HitList, (usize, usize)> =
        LookupBatch::with_batch(&index.table, DEFAULT_BATCH);
    for slot in 0..resolved.len() {
        for s in 0..resolved[slot].len() {
            let canon = resolved[slot][s].canon;
            if let Some(list) = cache.get(ctx, &canon) {
                resolved[slot][s].list = list;
                continue;
            }
            lb.push(ctx, canon, (slot, s), &mut |_: &mut RankCtx, tag, v| {
                deliver_seed(&mut resolved, &mut cache, tag, v)
            });
        }
    }
    lb.finish(ctx, &mut |_: &mut RankCtx, tag, v| {
        deliver_seed(&mut resolved, &mut cache, tag, v)
    });
    resolved
}

/// Stage 2 takes a block of this many reads at a time: it plans their
/// candidates, aligns all their gapped fallbacks in one
/// [`banded_sw_batch`], then replays each read's candidate loop. A fixed
/// block, not a rank's whole range, so that the plan's memory does not
/// grow with the input (each rank aligns one contiguous range).
const BLOCK: usize = 64;

/// One of a read's top candidates, taken as far as it goes without the
/// contig replica cache.
struct Planned {
    cand: Candidate,
    /// The candidate's overlap with its contig; `None` if the clipped
    /// overlap is shorter than [`MIN_ALIGNED`].
    overlap: Option<Overlap>,
}

/// A candidate's clipped overlap, in oriented-read and contig coordinates.
struct Overlap {
    r0: usize,
    c0: usize,
    span: usize,
    /// Matching bases on the diagonal.
    matches: usize,
    /// The gapped fallback's index in the block's batch, when the
    /// diagonal's identity falls short of [`MIN_IDENTITY`].
    gapped: Option<usize>,
}

/// A read's stage-2 plan.
struct ReadPlan {
    /// Resolved seeds with a hit list: one compute op each.
    listed_seeds: u64,
    /// The read's reverse complement if a candidate is on the reverse
    /// strand, else empty.
    rc: Vec<u8>,
    /// The top candidates, best-supported first.
    candidates: Vec<Planned>,
}

impl ReadPlan {
    /// The read oriented to the contig's forward strand.
    fn oriented<'a>(&'a self, read: &'a SeqRecord, rc: bool) -> &'a [u8] {
        if rc {
            &self.rc
        } else {
            &read.seq
        }
    }
}

/// Stage 2, plan: cluster one read's resolved seeds into candidates and
/// take each of the top `2 · MAX_ALIGNMENTS_PER_READ` as far as it goes
/// without the contig replica cache — orientation, clipping and the
/// ungapped diagonal. A gapped fallback the diagonal needs gets the next
/// index of `jobs`.
fn plan_read(
    codec: &KmerCodec,
    contigs: &ContigSet,
    read: &SeqRecord,
    seeds: &[ResolvedSeed],
    jobs: &mut usize,
) -> ReadPlan {
    // Sorted in full below, so the map's order never reaches the output.
    let mut candidates: KmerHashMap<Candidate, u32> = KmerHashMap::default();
    let mut listed_seeds = 0;
    for seed in seeds {
        let Some(list) = seed.list else {
            continue;
        };
        listed_seeds += 1;
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
    ordered.truncate(2 * MAX_ALIGNMENTS_PER_READ);

    let mut plan = ReadPlan {
        listed_seeds,
        rc: Vec::new(),
        candidates: Vec::with_capacity(ordered.len()),
    };
    if ordered.iter().any(|(cand, _)| cand.rc) {
        plan.rc = hipmer_dna::revcomp(&read.seq);
    }
    for (cand, _support) in ordered {
        let contig = &contigs.contigs[cand.contig as usize].seq;
        let oriented = plan.oriented(read, cand.rc);
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
        let overlap = (c0 < contig.len() && r0 < oriented.len())
            .then(|| (oriented.len() - r0).min(contig.len() - c0))
            .filter(|&span| span >= MIN_ALIGNED)
            .map(|span| {
                // Fast path: ungapped comparison (substitution-only reads).
                let (matches, _) =
                    ungapped_matches(&oriented[r0..r0 + span], &contig[c0..c0 + span]);
                let gapped = ((matches as f64 / span as f64) < MIN_IDENTITY).then(|| {
                    *jobs += 1;
                    *jobs - 1
                });
                Overlap {
                    r0,
                    c0,
                    span,
                    matches,
                    gapped,
                }
            });
        plan.candidates.push(Planned { cand, overlap });
    }
    plan
}

/// Stage 2, finish: the candidate loop over a planned read, in candidate
/// order up to its last accepted alignment. The contig replica cache sees
/// the accesses a read-at-a-time loop makes, in its order, and compute is
/// charged only for the candidates the loop reaches; `sw` holds the
/// block's gapped fallbacks, of which those past the loop's end are
/// discarded uncharged.
fn finish_read(
    ctx: &mut RankCtx,
    contigs: &ContigSet,
    read: &SeqRecord,
    read_idx: u32,
    plan: &ReadPlan,
    sw: &[SwResult],
    contig_cache: &mut SoftwareCache<u32, ()>,
) -> Vec<Alignment> {
    ctx.stats.compute(plan.listed_seeds);
    let mut out: Vec<Alignment> = Vec::new();
    for Planned { cand, overlap } in &plan.candidates {
        let contig = &contigs.contigs[cand.contig as usize];
        let owner = cand.contig as usize % ctx.topo().ranks();
        // A replica-cache miss fetches the whole contig once from its owner
        // (cyclic by id; contig-length bytes, one message); every later
        // candidate on this contig is served from the local replica.
        if contig_cache.get(ctx, &cand.contig).is_none() {
            ctx.access(owner, contig.seq.len() as u64);
            contig_cache.insert(cand.contig, ());
        }
        let Some(ov) = overlap else {
            continue;
        };
        ctx.stats.compute(ov.span as u64);
        // Coordinates in the oriented read / contig.
        let (ro_start, ro_end, co_start, co_end, matches) = match ov.gapped {
            None => (ov.r0, ov.r0 + ov.span, ov.c0, ov.c0 + ov.span, ov.matches),
            Some(job) => {
                // Gapped fallback: a small indel breaks the diagonal; banded
                // Smith-Waterman recovers it (merAligner's extension kernel).
                ctx.stats.compute((ov.span * BAND) as u64);
                let sw = &sw[job];
                if sw.aligned < MIN_ALIGNED
                    || (sw.matches as f64) < MIN_IDENTITY * sw.aligned as f64
                {
                    continue;
                }
                (
                    ov.r0 + sw.a_start,
                    ov.r0 + sw.a_end,
                    ov.c0 + sw.b_start,
                    ov.c0 + sw.b_end,
                    sw.matches,
                )
            }
        };
        // Convert back to forward-read coordinates.
        let len = read.seq.len();
        let (read_start, read_end) = if cand.rc {
            (len - ro_end, len - ro_start)
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
            read_len: len as u32,
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

/// Stage 2 over one block of a rank's reads (`read_ids`, with their
/// resolved seeds): plan every read, align the block's gapped fallbacks in
/// one batch, then finish every read in order, appending to `out` read by
/// read.
#[allow(clippy::too_many_arguments)]
fn align_block(
    ctx: &mut RankCtx,
    codec: &KmerCodec,
    contigs: &ContigSet,
    reads: &[SeqRecord],
    (read_ids, resolved): (&[u32], &[Vec<ResolvedSeed>]),
    contig_cache: &mut SoftwareCache<u32, ()>,
    sw_ws: &mut SwWorkspace,
    out: &mut Vec<Alignment>,
) {
    let mut n_jobs = 0;
    let plans: Vec<ReadPlan> = (read_ids.iter().zip(resolved))
        .map(|(&ri, seeds)| plan_read(codec, contigs, &reads[ri as usize], seeds, &mut n_jobs))
        .collect();
    let mut jobs: Vec<(&[u8], &[u8])> = Vec::with_capacity(n_jobs);
    for (&ri, plan) in read_ids.iter().zip(&plans) {
        for Planned { cand, overlap } in &plan.candidates {
            if let Some(ov) = overlap.as_ref().filter(|ov| ov.gapped.is_some()) {
                debug_assert_eq!(ov.gapped, Some(jobs.len()));
                let contig = &contigs.contigs[cand.contig as usize].seq;
                let oriented = plan.oriented(&reads[ri as usize], cand.rc);
                // The contig window starts on the candidate's diagonal,
                // which puts it in the middle of the band: a tail shifted
                // either way by up to `BAND` bases (read insertion or
                // deletion) stays reachable.
                let window_end = (ov.c0 + ov.span + BAND).min(contig.len());
                jobs.push((
                    &oriented[ov.r0..ov.r0 + ov.span],
                    &contig[ov.c0..window_end],
                ));
            }
        }
    }
    let params = SwParams {
        band: BAND,
        ..SwParams::default()
    };
    let sw = banded_sw_batch_with(sw_ws, &jobs, &params);
    for (&ri, plan) in read_ids.iter().zip(&plans) {
        out.extend(finish_read(
            ctx,
            contigs,
            &reads[ri as usize],
            ri,
            plan,
            &sw,
            contig_cache,
        ));
    }
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
/// produced each alignment and of whether an alignment was computed or carried over from an earlier
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
    let (index, index_report) = build_seed_index(team, contigs, cfg.seed_len);

    let (chunks, mut stats) = team.run_named("scaffold/meraligner-align", |ctx| {
        let mut contig_cache: SoftwareCache<u32, ()> = SoftwareCache::new(CACHE_ENTRIES);
        let mut sw_ws = SwWorkspace::new();
        let mut out = Vec::new();
        let read_ids = &subset[ctx.chunk(subset.len())];
        // Stage 1: every seed of every read in the range goes through the
        // seed cache and one streaming lookup batch.
        let resolved = resolve_seeds(ctx, &index, reads, read_ids);
        // Stage 2: candidate clustering and extension on resolved lists,
        // block by block, with contig replicas cached per rank.
        for (ids, seeds) in read_ids.chunks(BLOCK).zip(resolved.chunks(BLOCK)) {
            align_block(
                ctx,
                &index.codec,
                contigs,
                reads,
                (ids, seeds),
                &mut contig_cache,
                &mut sw_ws,
                &mut out,
            );
        }
        out
    });
    index.table.record_entries(&mut stats);
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
    fn batching_and_caching_are_result_transparent_and_save_messages() {
        let genome = lcg(1200, 31);
        let contigs = one_contig_set(genome.clone());
        // Overlapping reads so seeds repeat across reads (cache fodder).
        let reads: Vec<SeqRecord> = (0..30)
            .map(|i| read(&format!("r{i}"), genome[i * 20..i * 20 + 100].to_vec()))
            .collect();
        let team = Team::new(Topology::new(6, 3));
        let (alns, reports) = align_reads(&team, &contigs, &reads, &AlignConfig::new(15));
        let full = reports
            .iter()
            .find(|r| r.name == "scaffold/meraligner-align")
            .unwrap()
            .totals();
        assert_eq!(alns.len(), reads.len());

        // One `get` per seed would take at least one access per seed; the
        // batches and both caches take fewer, and record their work.
        let codec = KmerCodec::new(15);
        let seeds: usize = reads
            .iter()
            .map(|r| stride_seeds(&codec, &r.seq).count())
            .sum();
        assert!(full.total_accesses() < seeds as u64);
        assert!(full.lookup_batches > 0);
        assert!(full.cache_hits > 0);
        assert!(full.cache_misses > 0);
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
