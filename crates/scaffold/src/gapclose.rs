//! Gap closing (§4.8).
//!
//! For every gap between adjacent scaffold members, the reads mapping near
//! the two flanking contig ends (and their mates, which often dangle into
//! the gap) are gathered by projecting the alignments into the gaps. The
//! closure methods run in the paper's order of increasing cost:
//!
//! 1. **spanning** — a single read contains the end of one flank and the
//!    start of the other;
//! 2. **k-mer walk** — a mini-assembly across the gap from the candidate
//!    reads, with iteratively increasing k, first right-to-left... first
//!    from the left flank, then from the right;
//! 3. **patching** — overlap the two incomplete walks.
//!
//! Unclosed gaps are N-filled with the link's gap estimate. Gaps are
//! distributed **round-robin** across ranks: closure costs vary by orders
//! of magnitude and gaps of one scaffold tend to cost alike, so blocked
//! distribution (the ablation toggle) suffers load imbalance.

use crate::scaffolds::{Scaffold, ScaffoldSet};
use hipmer_align::Alignment;
use hipmer_contig::{ContigEnd, ContigSet};
use hipmer_dna::{revcomp, Kmer, KmerCodec, KmerHashMap};
use hipmer_pgas::stats::merge_ranks;
use hipmer_pgas::{DistHashMap, Exchange, PhaseReport, RankCtx, Team};
use hipmer_seqio::SeqRecord;

/// Flank length taken from each side of the gap (a read length and a
/// bit: every method anchors inside it).
const FLANK: usize = 120;
/// Exact anchor length for the spanning method.
const ANCHOR: usize = 16;
/// K values for the iterative k-mer walks (odd, increasing) — §4.8's
/// "iteratively increasing k-mer sizes until the gap is closed".
const WALK_KS: [usize; 3] = [17, 25, 33];
/// Minimum k-mer multiplicity to follow during a walk (the k-mer analysis
/// error threshold, applied to the gap's own reads).
const WALK_MIN_COUNT: u32 = 2;
/// Maximum bases a walk may add.
const MAX_WALK: usize = 2000;
/// Minimum exact overlap for patching two half-walks.
const MIN_PATCH_OVERLAP: usize = 15;
/// Window around a contig end within which alignments nominate reads
/// (the short-insert library's mean plus its spread).
const END_WINDOW: usize = 600;
/// Cap on N-fill length for failed closures.
const MAX_NFILL: usize = 5000;

/// Gap-closing configuration.
#[derive(Clone, Debug)]
pub struct GapCloseConfig {
    /// Round-robin gap distribution (false = blocked; ablation).
    pub round_robin: bool,
}

impl Default for GapCloseConfig {
    fn default() -> Self {
        GapCloseConfig { round_robin: true }
    }
}

/// Closure outcome counters (the paper's method mix).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GapCloseStats {
    /// Joined by a proven contig overlap.
    pub overlap_joined: usize,
    /// Closed by a spanning read.
    pub spanned: usize,
    /// Closed by a k-mer walk.
    pub walked: usize,
    /// Closed by patching two half-walks.
    pub patched: usize,
    /// Left as N runs.
    pub nfilled: usize,
}

impl GapCloseStats {
    /// Total gaps processed.
    pub fn total(&self) -> usize {
        self.overlap_joined + self.spanned + self.walked + self.patched + self.nfilled
    }

    /// Gaps actually closed with sequence.
    pub fn closed(&self) -> usize {
        self.total() - self.nfilled
    }

    /// Add another tally (a rank's, or a scaffolding round's) into this one.
    pub fn merge(&mut self, o: &GapCloseStats) {
        self.overlap_joined += o.overlap_joined;
        self.spanned += o.spanned;
        self.walked += o.walked;
        self.patched += o.patched;
        self.nfilled += o.nfilled;
    }
}

/// How one junction was resolved.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Closure {
    /// Drop `o` bases from the start of the next member (contig overlap).
    Overlap(usize),
    /// Insert these bases between the members.
    Fill(Vec<u8>),
    /// Insert `n` unknown bases.
    NFill(usize),
}

/// One gap task.
#[derive(Clone, Copy, Debug)]
struct Gap {
    scaffold: usize,
    junction: usize, // joins members[junction] and members[junction+1]
}

/// Find `needle` in `hay` (first occurrence).
fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.is_empty() || hay.len() < needle.len() {
        return None;
    }
    hay.windows(needle.len()).position(|w| w == needle)
}

/// The oriented sequence of a scaffold member.
fn member_seq(contigs: &ContigSet, scaffold: &Scaffold, idx: usize) -> Vec<u8> {
    let m = &scaffold.members[idx];
    let seq = &contigs.contigs[m.contig as usize].seq;
    if m.reversed {
        revcomp(seq)
    } else {
        seq.clone()
    }
}

/// The gap-side end of a member's contig, in the contig's own orientation.
fn gap_side_end(scaffold: &Scaffold, idx: usize, leading: bool) -> ContigEnd {
    let m = &scaffold.members[idx];
    // `leading` = the member precedes the gap (gap at its scaffold-right).
    match (leading, m.reversed) {
        (true, false) => ContigEnd::Right,
        (true, true) => ContigEnd::Left,
        (false, false) => ContigEnd::Left,
        (false, true) => ContigEnd::Right,
    }
}

/// Walk rightward from the last `k`-mer of `seed` using read k-mers,
/// stopping when `target` (a k-mer) is reached or limits hit. Returns the
/// appended bases on success (`Ok`) or the partial extension (`Err`).
fn kmer_walk(
    table: &KmerHashMap<Kmer, [u32; 4]>,
    codec: &KmerCodec,
    seed: &[u8],
    target: Kmer,
    ctx: &mut RankCtx,
) -> Result<Vec<u8>, Vec<u8>> {
    let k = codec.k();
    let Some(mut cur) = codec.pack(&seed[seed.len() - k..]) else {
        return Err(Vec::new());
    };
    let mut appended = Vec::new();
    for _ in 0..MAX_WALK {
        if cur == target {
            // The last k appended bases are the target k-mer itself, which
            // belongs to the far flank — the gap fill excludes them. A
            // success with fewer than k appended bases means the flanks
            // overlap; report it as a failed walk so the overlap/patch
            // paths handle it.
            if appended.len() < k {
                return Err(appended);
            }
            appended.truncate(appended.len() - k);
            return Ok(appended);
        }
        ctx.stats.compute(1);
        let Some(votes) = table.get(&cur) else {
            return Err(appended);
        };
        // Unique next base above threshold.
        let mut next_base = None;
        for (b, &v) in votes.iter().enumerate() {
            if v >= WALK_MIN_COUNT {
                if next_base.is_some() {
                    return Err(appended); // fork in the gap
                }
                next_base = Some(b as u8);
            }
        }
        let Some(b) = next_base else {
            return Err(appended);
        };
        cur = codec.extend_right(cur, b);
        appended.push(hipmer_dna::decode_base(b));
    }
    Err(appended)
}

/// Build the oriented k-mer table (k-mer → right-extension votes) from the
/// candidate reads, both orientations.
fn walk_table(codec: &KmerCodec, reads: &[&SeqRecord]) -> KmerHashMap<Kmer, [u32; 4]> {
    let k = codec.k();
    let mut table: KmerHashMap<Kmer, [u32; 4]> = KmerHashMap::default();
    let mut add = |seq: &[u8]| {
        for (off, km) in codec.kmers(seq) {
            if off + k < seq.len() {
                if let Some(code) = hipmer_dna::encode_base(seq[off + k]) {
                    table.entry(km).or_insert([0; 4])[code as usize] += 1;
                }
            }
        }
    };
    for r in reads {
        add(&r.seq);
        add(&revcomp(&r.seq));
    }
    table
}

/// Attempt to close one gap. Returns the closure and which method worked.
fn close_one(
    ctx: &mut RankCtx,
    prev_seq: &[u8],
    next_seq: &[u8],
    gap_est: i64,
    candidates: &[&SeqRecord],
    stats: &mut GapCloseStats,
) -> Closure {
    let prev_flank = &prev_seq[prev_seq.len().saturating_sub(FLANK)..];
    let next_flank = &next_seq[..FLANK.min(next_seq.len())];

    // Method 0: proven contig overlap (splint-style negative gaps).
    if gap_est < 0 {
        let want = (-gap_est) as usize;
        for o in (want.saturating_sub(5)..=want + 5).rev() {
            if o > 0
                && o <= prev_flank.len()
                && o <= next_flank.len()
                && prev_flank[prev_flank.len() - o..] == next_flank[..o]
            {
                stats.overlap_joined += 1;
                return Closure::Overlap(o);
            }
        }
    }

    let m = ANCHOR;
    // Method 1: spanning read.
    if prev_flank.len() >= m && next_flank.len() >= m {
        let a1 = &prev_flank[prev_flank.len() - m..];
        let a2 = &next_flank[..m];
        for r in candidates {
            let rc = revcomp(&r.seq);
            for seq in [&r.seq, &rc] {
                ctx.stats.compute(seq.len() as u64);
                let Some(p1) = find(seq, a1) else { continue };
                let Some(off2) = find(&seq[p1..], a2) else {
                    continue;
                };
                let p2 = p1 + off2;
                if p2 >= p1 + m {
                    stats.spanned += 1;
                    return Closure::Fill(seq[p1 + m..p2].to_vec());
                } else if p2 > p1 {
                    // The anchors overlap in the read: contigs overlap.
                    stats.spanned += 1;
                    return Closure::Overlap(p1 + m - p2);
                }
            }
        }
    }

    // Method 2: iterative k-mer walks, increasing k until one direction
    // crosses the whole gap (the paper: "with iteratively increasing k-mer
    // sizes until the gap is closed", right-side attempt after the left
    // fails). The partial extensions from the largest k are kept for
    // patching.
    let mut best_partials: Option<(Vec<u8>, Vec<u8>)> = None;
    for kw in WALK_KS {
        if prev_flank.len() < kw || next_flank.len() < kw {
            continue;
        }
        let codec = KmerCodec::new(kw);
        let table = walk_table(&codec, candidates);
        let target = codec
            .pack(&next_flank[..kw])
            .expect("contig flanks are clean DNA");
        // Left-to-right walk.
        let partial_fwd = match kmer_walk(&table, &codec, prev_flank, target, ctx) {
            Ok(fill) => {
                stats.walked += 1;
                return Closure::Fill(fill);
            }
            Err(p) => p,
        };
        // Right-to-left walk (walk right on the reverse complement).
        let rc_next = revcomp(next_flank);
        let rc_target = codec
            .pack(&revcomp(&prev_flank[prev_flank.len() - kw..]))
            .expect("clean flank");
        let partial_back = match kmer_walk(&table, &codec, &rc_next, rc_target, ctx) {
            Ok(fill_rc) => {
                stats.walked += 1;
                return Closure::Fill(revcomp(&fill_rc));
            }
            Err(p) => revcomp(&p),
        };
        best_partials = Some((partial_fwd, partial_back));
    }

    // Method 3: patch across the two incomplete traversals (largest-k
    // partials). The overlap must be exact AND unambiguous — a repeat
    // shorter than the walk k can otherwise glue the halves at the wrong
    // copy and duplicate sequence.
    if let Some((partial_fwd, partial_back)) = best_partials {
        let s1: Vec<u8> = prev_flank
            .iter()
            .chain(partial_fwd.iter())
            .copied()
            .collect();
        let s2: Vec<u8> = partial_back
            .iter()
            .chain(next_flank.iter())
            .copied()
            .collect();
        let max_o = s1.len().min(s2.len());
        let mut found: Option<usize> = None;
        for o in (MIN_PATCH_OVERLAP..=max_o).rev() {
            ctx.stats.compute(o as u64);
            if s1[s1.len() - o..] == s2[..o] {
                if found.is_some() {
                    found = None; // ambiguous: two candidate overlaps
                    break;
                }
                found = Some(o);
            }
        }
        if let Some(o) = found {
            // fill = partial_fwd + partial_back[o..] (the first o bases of
            // s2 are already present at the end of s1), trimmed to the
            // joined length minus the flanks.
            let fill_len = (partial_fwd.len() + partial_back.len()).saturating_sub(o);
            let mut fill = Vec::with_capacity(fill_len);
            fill.extend_from_slice(&partial_fwd);
            if o < partial_back.len() {
                fill.extend_from_slice(&partial_back[o..]);
            }
            fill.truncate(fill_len);
            stats.patched += 1;
            return Closure::Fill(fill);
        }
    }

    stats.nfilled += 1;
    Closure::NFill((gap_est.max(1) as usize).min(MAX_NFILL))
}

/// Close all gaps and emit final scaffold sequences.
#[allow(clippy::too_many_arguments)]
pub fn close_gaps(
    team: &Team,
    contigs: &ContigSet,
    scaffolds: &[Scaffold],
    alignments: &[Alignment],
    reads: &[SeqRecord],
    cfg: &GapCloseConfig,
) -> (ScaffoldSet, GapCloseStats, PhaseReport) {
    // Phase 1 (parallel): project alignments into contig-end read buckets.
    let buckets: DistHashMap<(u32, ContigEnd), Vec<u32>> = DistHashMap::new(*team.topo());
    let mail = Exchange::for_table(&buckets);
    let mut stats = team.run_supersteps("scaffold/gap-closing/buckets", |ctx, step| {
        let rank = ctx.rank;
        mail.deliver(rank, step, |_, reads| {
            buckets.merge_batch(rank, reads.drain(..), |a, b| a.extend(b))
        });
        let alignments = &alignments[ctx.chunk(alignments.len())];
        mail.send(ctx, step, alignments.len(), |ctx, i, post| {
            let a = &alignments[i];
            ctx.stats.compute(1);
            let len = contigs.contigs[a.contig as usize].len();
            let mate = a.read ^ 1;
            if (a.contig_start as usize) < END_WINDOW {
                let key = (a.contig, ContigEnd::Left);
                post.push(ctx, buckets.owner(&key), (key, vec![a.read, mate]));
            }
            if a.contig_end as usize + END_WINDOW > len {
                let key = (a.contig, ContigEnd::Right);
                post.push(ctx, buckets.owner(&key), (key, vec![a.read, mate]));
            }
        })
    });
    buckets.drain_service_into(&mut stats);
    let buckets = buckets.freeze();

    // Enumerate gaps.
    let mut gaps: Vec<Gap> = Vec::new();
    for (si, s) in scaffolds.iter().enumerate() {
        for j in 0..s.gaps() {
            gaps.push(Gap {
                scaffold: si,
                junction: j,
            });
        }
    }

    // Phase 2 (parallel): close gaps, dealt round-robin (or blocked, the
    // ablation).
    let ranks = team.ranks();
    let (closure_lists, stats2) = team.run_named("scaffold/gap-closing/close", |ctx| {
        // Round-robin here deals *gaps* (work units) to ranks; it is not
        // k-mer ownership, so it stays modulo-based whatever owns the k-mer
        // tables.
        let my_gaps: Vec<usize> = if cfg.round_robin {
            (0..gaps.len()).filter(|g| g % ranks == ctx.rank).collect()
        } else {
            ctx.chunk(gaps.len()).collect()
        };
        let mut out: Vec<(usize, usize, Closure)> = Vec::new();
        let mut local_stats = GapCloseStats::default();
        for gap in my_gaps.iter().map(|&gi| &gaps[gi]) {
            let scaffold = &scaffolds[gap.scaffold];
            let prev_seq = member_seq(contigs, scaffold, gap.junction);
            let next_seq = member_seq(contigs, scaffold, gap.junction + 1);
            let gap_est = scaffold.members[gap.junction + 1].gap_before;

            // Gather candidate reads from both flanking end buckets.
            let prev_end = (
                scaffold.members[gap.junction].contig,
                gap_side_end(scaffold, gap.junction, true),
            );
            let next_end = (
                scaffold.members[gap.junction + 1].contig,
                gap_side_end(scaffold, gap.junction + 1, false),
            );
            // One multi-get resolves both flank buckets (at most two
            // owners, so at most two messages instead of two per key).
            let mut read_ids: Vec<u32> = Vec::new();
            for list in buckets
                .multi_get(ctx, &[prev_end, next_end])
                .into_iter()
                .flatten()
            {
                read_ids.extend(list);
            }
            read_ids.sort_unstable();
            read_ids.dedup();
            // Fetch the read sequences, coalesced by owner rank: each
            // owner is asked once per gap with one message carrying all
            // of its candidate reads (bytes in full, as always).
            let mut per_owner: KmerHashMap<usize, u64> = KmerHashMap::default();
            let mut candidates: Vec<&SeqRecord> = Vec::with_capacity(read_ids.len());
            for &ri in &read_ids {
                let ri = ri as usize;
                if ri < reads.len() {
                    // Reads live on ranks cyclically by *index* (they are
                    // never keyed into a partitioned table), so this modulo
                    // is the read array's home rank, not k-mer ownership.
                    *per_owner.entry(ri % ranks).or_insert(0) += reads[ri].seq.len() as u64;
                    candidates.push(&reads[ri]);
                }
            }
            let mut owners: Vec<(usize, u64)> = per_owner.into_iter().collect();
            owners.sort_unstable();
            for (owner, bytes) in owners {
                ctx.access(owner, bytes);
                ctx.stats.lookup_batches += 1;
            }

            let closure = close_one(
                ctx,
                &prev_seq,
                &next_seq,
                gap_est,
                &candidates,
                &mut local_stats,
            );
            out.push((gap.scaffold, gap.junction, closure));
        }
        (out, local_stats)
    });
    let mut gstats = GapCloseStats::default();
    let mut closures: Vec<Vec<Option<Closure>>> =
        scaffolds.iter().map(|s| vec![None; s.gaps()]).collect();
    for (list, ls) in closure_lists {
        gstats.merge(&ls);
        for (si, j, c) in list {
            closures[si][j] = Some(c);
        }
    }
    merge_ranks(&mut stats, &stats2);

    // Phase 3 (parallel over scaffolds): stitch final sequences, noting
    // where each member starts. Both overlap closures verified that the
    // dropped bases equal the sequence's tail, so a member's bases all sit
    // at its offset.
    let (seq_lists, stats3) = team.run_named("scaffold/gap-closing/stitch", |ctx| {
        let mut out: Vec<(usize, Vec<u8>, Vec<u32>)> = Vec::new();
        for si in ctx.chunk(scaffolds.len()) {
            let s = &scaffolds[si];
            let mut seq = member_seq(contigs, s, 0);
            let mut offsets = vec![0u32];
            for (j, closure) in closures[si].iter().enumerate().take(s.gaps()) {
                let next = member_seq(contigs, s, j + 1);
                match closure.as_ref().expect("every gap was processed") {
                    Closure::Overlap(o) => {
                        let o = (*o).min(next.len());
                        offsets.push((seq.len() - o) as u32);
                        seq.extend_from_slice(&next[o..]);
                    }
                    Closure::Fill(f) => {
                        seq.extend_from_slice(f);
                        offsets.push(seq.len() as u32);
                        seq.extend_from_slice(&next);
                    }
                    Closure::NFill(n) => {
                        seq.extend(std::iter::repeat_n(b'N', *n));
                        offsets.push(seq.len() as u32);
                        seq.extend_from_slice(&next);
                    }
                }
                ctx.stats.compute(seq.len() as u64 / 64);
            }
            out.push((si, seq, offsets));
        }
        out
    });
    merge_ranks(&mut stats, &stats3);
    let mut sequences: Vec<Vec<u8>> = vec![Vec::new(); scaffolds.len()];
    let mut offsets: Vec<Vec<u32>> = vec![Vec::new(); scaffolds.len()];
    for (si, seq, offs) in seq_lists.into_iter().flatten() {
        sequences[si] = seq;
        offsets[si] = offs;
    }

    (
        ScaffoldSet {
            scaffolds: scaffolds.to_vec(),
            sequences,
            offsets,
        },
        gstats,
        PhaseReport::new("scaffold/gap-closing", *team.topo(), stats),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scaffolds::ScaffoldMember;
    use hipmer_pgas::Topology;

    fn lcg(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(41);
                b"ACGT"[(x >> 60) as usize % 4]
            })
            .collect()
    }

    /// A two-contig scaffold over a known genome with reads tiling the gap.
    struct Fixture {
        contigs: ContigSet,
        scaffolds: Vec<Scaffold>,
        alignments: Vec<Alignment>,
        reads: Vec<SeqRecord>,
        genome: Vec<u8>,
    }

    fn fixture(gap_len: usize, read_len: usize, with_reads: bool) -> Fixture {
        let a = lcg(400, 1);
        let gap = lcg(gap_len, 2);
        let b = lcg(400, 3);
        let mut genome = a.clone();
        genome.extend_from_slice(&gap);
        genome.extend_from_slice(&b);

        let contigs = ContigSet::from_sequences(KmerCodec::new(21), vec![a.clone(), b.clone()]);
        let a_id = contigs.contigs.iter().position(|c| c.seq == a).unwrap() as u32;
        let b_id = contigs.contigs.iter().position(|c| c.seq == b).unwrap() as u32;
        let scaffolds = vec![Scaffold {
            members: vec![
                ScaffoldMember {
                    contig: a_id,
                    reversed: false,
                    gap_before: 0,
                },
                ScaffoldMember {
                    contig: b_id,
                    reversed: false,
                    gap_before: gap_len as i64,
                },
            ],
        }];

        // Paired reads tiling the junction region (pair mates 150 bases
        // apart, like a short-insert library): a gap-interior read gets
        // nominated through its contig-aligned mate, exactly as in the
        // real pipeline.
        let mut reads = Vec::new();
        let mut alignments = Vec::new();
        if with_reads {
            let pair_off = 150usize;
            let lo = 400usize.saturating_sub(200);
            let hi = (400 + gap_len + 200).min(genome.len()) - read_len - pair_off;
            let mut idx = 0u32;
            // Emit an alignment for a read wherever it overlaps a contig.
            let align_if_on_contig = |idx: u32, start: usize, alignments: &mut Vec<Alignment>| {
                if start < 400 {
                    let ce = 400.min(start + read_len);
                    alignments.push(Alignment {
                        read: idx,
                        contig: a_id,
                        read_start: 0,
                        read_end: (ce - start) as u32,
                        contig_start: start as u32,
                        contig_end: ce as u32,
                        rc: false,
                        matches: (ce - start) as u32,
                        read_len: read_len as u32,
                    });
                }
                let b_start = 400 + gap_len;
                if start + read_len > b_start {
                    let rs = b_start.saturating_sub(start);
                    alignments.push(Alignment {
                        read: idx,
                        contig: b_id,
                        read_start: rs as u32,
                        read_end: read_len as u32,
                        contig_start: (start + rs - b_start) as u32,
                        contig_end: (start + read_len - b_start) as u32,
                        rc: false,
                        matches: (read_len - rs) as u32,
                        read_len: read_len as u32,
                    });
                }
            };
            for start in (lo..=hi).step_by(13) {
                for s in [start, start + pair_off] {
                    reads.push(SeqRecord::with_uniform_quality(
                        format!("g{s}_{idx}"),
                        genome[s..s + read_len].to_vec(),
                        35,
                    ));
                    align_if_on_contig(idx, s, &mut alignments);
                    idx += 1;
                }
            }
        }
        alignments.sort_by_key(|al| (al.read, al.contig, al.contig_start));
        Fixture {
            contigs,
            scaffolds,
            alignments,
            reads,
            genome,
        }
    }

    #[test]
    fn spanning_read_closes_short_gap_exactly() {
        let f = fixture(40, 120, true);
        let team = Team::new(Topology::new(2, 2));
        let (set, stats, _) = close_gaps(
            &team,
            &f.contigs,
            &f.scaffolds,
            &f.alignments,
            &f.reads,
            &GapCloseConfig::default(),
        );
        assert_eq!(stats.total(), 1);
        assert_eq!(stats.spanned, 1, "{stats:?}");
        assert_eq!(set.sequences[0], f.genome, "closed scaffold == genome");
        assert_eq!(set.offsets, vec![vec![0, 400 + 40]]);
    }

    #[test]
    fn kmer_walk_closes_gap_longer_than_any_read() {
        // Gap 300 with 90bp reads: no single read spans flank-to-flank, so
        // the walk (or patch) must do it.
        let f = fixture(300, 90, true);
        let team = Team::new(Topology::new(2, 2));
        let (set, stats, _) = close_gaps(
            &team,
            &f.contigs,
            &f.scaffolds,
            &f.alignments,
            &f.reads,
            &GapCloseConfig::default(),
        );
        assert_eq!(stats.total(), 1);
        assert_eq!(stats.nfilled, 0, "{stats:?}");
        assert!(stats.walked + stats.patched >= 1, "{stats:?}");
        assert_eq!(set.sequences[0], f.genome);
    }

    #[test]
    fn no_reads_means_nfill_with_estimate() {
        let f = fixture(120, 90, false);
        let team = Team::new(Topology::new(1, 1));
        let (set, stats, _) = close_gaps(
            &team,
            &f.contigs,
            &f.scaffolds,
            &f.alignments,
            &f.reads,
            &GapCloseConfig::default(),
        );
        assert_eq!(stats.nfilled, 1);
        let ns = set.sequences[0].iter().filter(|&&b| b == b'N').count();
        assert_eq!(ns, 120, "N-fill must use the gap estimate");
        assert_eq!(set.sequences[0].len(), f.genome.len());
        assert_eq!(set.offsets, vec![vec![0, 400 + 120]]);
    }

    #[test]
    fn negative_gap_joins_by_overlap() {
        // Contigs that overlap by 30 bases.
        let a = lcg(300, 7);
        let b_full: Vec<u8> = a[270..].iter().chain(lcg(200, 8).iter()).copied().collect();
        let contigs =
            ContigSet::from_sequences(KmerCodec::new(21), vec![a.clone(), b_full.clone()]);
        let a_id = contigs.contigs.iter().position(|c| c.seq == a).unwrap() as u32;
        let b_id = contigs
            .contigs
            .iter()
            .position(|c| c.seq == b_full)
            .unwrap() as u32;
        let scaffolds = vec![Scaffold {
            members: vec![
                ScaffoldMember {
                    contig: a_id,
                    reversed: false,
                    gap_before: 0,
                },
                ScaffoldMember {
                    contig: b_id,
                    reversed: false,
                    gap_before: -30,
                },
            ],
        }];
        let team = Team::new(Topology::new(1, 1));
        let (set, stats, _) = close_gaps(
            &team,
            &contigs,
            &scaffolds,
            &[],
            &[],
            &GapCloseConfig::default(),
        );
        assert_eq!(stats.overlap_joined, 1);
        // Joined sequence: a + b_full[30..].
        let mut expect = a.clone();
        expect.extend_from_slice(&b_full[30..]);
        assert_eq!(set.sequences[0], expect);
        // The second member starts on the 30 shared bases.
        assert_eq!(set.offsets, vec![vec![0, 270]]);
    }

    #[test]
    fn round_robin_matches_blocked_closures() {
        // Several gap shapes, replicated into a multi-gap workload, closed
        // under both gap distributions at several rank counts — including
        // 16 ranks over 6 gaps (ranks > items). Output must be
        // byte-identical.
        for (gap_len, read_len) in [(40usize, 120usize), (300, 90)] {
            let f = fixture(gap_len, read_len, true);
            let mut scaffolds = Vec::new();
            for _ in 0..6 {
                scaffolds.push(f.scaffolds[0].clone());
            }
            for (ranks, per) in [(1usize, 1usize), (4, 2), (16, 4)] {
                let team = Team::new(Topology::new(ranks, per));
                let run = |round_robin: bool| {
                    let cfg = GapCloseConfig { round_robin };
                    let (set, _, _) =
                        close_gaps(&team, &f.contigs, &scaffolds, &f.alignments, &f.reads, &cfg);
                    set.sequences
                };
                assert_eq!(
                    run(true),
                    run(false),
                    "distributions disagree at ranks={ranks} gap={gap_len}"
                );
            }
        }
    }

    #[test]
    fn round_robin_spreads_gaps_across_ranks() {
        // 8 gaps, 4 ranks: each rank closes exactly 2 with round-robin.
        let f = fixture(40, 120, true);
        let mut scaffolds = Vec::new();
        for _ in 0..8 {
            scaffolds.push(f.scaffolds[0].clone());
        }
        let team = Team::new(Topology::new(4, 2));
        let cfg = GapCloseConfig::default();
        let (_, stats, report) =
            close_gaps(&team, &f.contigs, &scaffolds, &f.alignments, &f.reads, &cfg);
        assert_eq!(stats.total(), 8);
        // Every rank did some gap work (compute ops from closures).
        let busy = report.stats.iter().filter(|s| s.compute_ops > 0).count();
        assert_eq!(busy, 4, "all ranks must close gaps");
    }
}
