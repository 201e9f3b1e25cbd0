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
//!    reads, with iteratively increasing k (17, 25, 33), first from the
//!    left flank, then from the right;
//! 3. **patching** — overlap the two incomplete walks.
//!
//! A walk steps from k-mer to k-mer while exactly one next base has at
//! least `WALK_MIN_COUNT` votes: the number of clean occurrences of the
//! k-mer, over every candidate and its reverse complement, that a clean
//! base follows. All walks of a gap ask one `WalkIndex`, built on the
//! gap's first walk (a gap closed by overlap or by a spanning read builds
//! none): the candidates as 2-bit codes, and one sorted key per clean
//! 17-mer that a clean base follows. The votes of a k-mer are the keys of
//! its first 17 bases whose next k − 17 bases match the rest of it, counted
//! by the base after those. That is the same set of positions a per-k
//! table of (k-mer → votes) counts: an occurrence of a k-mer followed by a
//! clean base is an occurrence of its 17-mer prefix followed by a clean
//! base, and the code 4 that ends every sequence (and stands for every
//! non-ACGT byte) stops a match from running into the next sequence. So
//! every vote array, hence every walk step and its `compute` charge, is
//! the one the three tables gave; building either was never billed.
//!
//! Unclosed gaps are N-filled with the link's gap estimate. Gaps are
//! distributed **round-robin** across ranks: closure costs vary by orders
//! of magnitude and gaps of one scaffold tend to cost alike, so blocked
//! distribution (the ablation toggle) suffers load imbalance. The deal
//! visits the ranks in bit-reversed order, so that neighbouring gaps land
//! on ranks far apart, in different OS threads' rank blocks: each rank
//! closes as many gaps as in rank order.

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

/// Length of the k-mer prefix [`WalkIndex`] sorts its keys by: the
/// smallest walk k.
const KEY_K: usize = WALK_KS[0];
/// Bits of a [`WalkIndex`] key that hold the position in `codes`.
const OFFSET_BITS: u32 = 64 - 2 * KEY_K as u32;
const _: () = assert!(
    WALK_KS[0] < WALK_KS[1] && WALK_KS[1] < WALK_KS[2],
    "every walk k must be at least KEY_K"
);

/// The 2-bit code of a base, or 4 for any other byte.
fn code_of(b: u8) -> u8 {
    hipmer_dna::encode_base(b).unwrap_or(4)
}

/// One `(17-mer << OFFSET_BITS) | offset` key per clean 17-mer of `codes`
/// that a clean base follows, in the order of `codes`.
fn index_keys(codes: &[u8]) -> Vec<u64> {
    let mask = (1u64 << (2 * KEY_K)) - 1;
    let mut keys = Vec::with_capacity(codes.len());
    let (mut window, mut clean) = (0u64, 0usize);
    for (i, &c) in codes.iter().enumerate() {
        if c == 4 {
            clean = 0;
            continue;
        }
        // `window` is the 17-mer ending just before `i`, and `c` the clean
        // base that follows it.
        if clean >= KEY_K {
            keys.push((window << OFFSET_BITS) | (i - KEY_K) as u64);
        }
        window = ((window << 2) | c as u64) & mask;
        clean += 1;
    }
    keys
}

/// The top bits of a key, its 17-mer's first seven bases, that
/// [`sort_keys`] buckets by.
const BUCKET_BITS: u32 = 14;

/// `keys` in ascending order: one counting pass on their top
/// [`BUCKET_BITS`] bits, then a `sort_unstable` of each bucket. The ~10⁵
/// keys of a walk gap fill each of the 2¹⁴ buckets with a handful, so this
/// costs about half a plain sort of them.
fn sort_keys(keys: Vec<u64>) -> Vec<u64> {
    let bucket = |key: u64| (key >> (64 - BUCKET_BITS)) as usize;
    // Per bucket its key count, then where its keys start, then (once
    // they are placed) where they end.
    let mut bounds = vec![0u32; 1 << BUCKET_BITS];
    for &key in &keys {
        bounds[bucket(key)] += 1;
    }
    let mut start = 0;
    for bound in &mut bounds {
        (*bound, start) = (start, start + *bound);
    }
    let mut sorted = vec![0u64; keys.len()];
    for &key in &keys {
        let at = &mut bounds[bucket(key)];
        sorted[*at as usize] = key;
        *at += 1;
    }
    let mut start = 0;
    for &end in &bounds {
        sorted[start..end as usize].sort_unstable();
        start = end as usize;
    }
    sorted
}

/// A gap's candidate reads as one sorted k-mer index, serving the walks of
/// every k in [`WALK_KS`].
///
/// `codes` holds every candidate and its reverse complement as 2-bit codes,
/// each sequence followed by a 4 (the code of every non-ACGT byte too), so
/// no clean window crosses from one sequence into the next. `keys` holds
/// one `(17-mer << OFFSET_BITS) | offset` per clean 17-mer of `codes` that
/// a clean base follows, sorted: the k-mers of one 17-mer prefix are one
/// run of keys, found by binary search.
struct WalkIndex {
    codes: Vec<u8>,
    keys: Vec<u64>,
}

impl WalkIndex {
    fn new(reads: &[&SeqRecord]) -> Self {
        let len: usize = reads.iter().map(|r| 2 * (r.seq.len() + 1)).sum();
        assert!(
            len < 1 << OFFSET_BITS,
            "a gap's candidate reads ({len} codes) overflow the walk index's offsets"
        );
        let mut codes = Vec::with_capacity(len);
        for r in reads {
            codes.extend(r.seq.iter().map(|&b| code_of(b)));
            codes.push(4);
            codes.extend(r.seq.iter().rev().map(|&b| match code_of(b) {
                4 => 4,
                c => hipmer_dna::complement_code(c),
            }));
            codes.push(4);
        }
        let keys = sort_keys(index_keys(&codes));
        WalkIndex { codes, keys }
    }

    /// The right-extension votes of the `k`-mer `cur`: per base, how many
    /// times a clean occurrence of `cur` is followed by it, over every
    /// candidate and its reverse complement. `None` if there is none.
    fn votes(&self, k: usize, cur: Kmer) -> Option<[u32; 4]> {
        let tail = k - KEY_K;
        let prefix = (cur.0 >> (2 * tail)) as u64;
        let lo = self
            .keys
            .partition_point(|&key| key >> OFFSET_BITS < prefix);
        let hi = lo + self.keys[lo..].partition_point(|&key| key >> OFFSET_BITS == prefix);
        let mut votes = [0u32; 4];
        let mut any = false;
        for &key in &self.keys[lo..hi] {
            let at = (key & ((1 << OFFSET_BITS) - 1)) as usize + KEY_K;
            // The bases after the prefix must match `cur`'s too. A 4 stops
            // the match before the end of `codes`, which is a 4.
            let matched = (0..tail)
                .all(|j| self.codes[at + j] as u128 == (cur.0 >> (2 * (tail - 1 - j))) & 3);
            if matched {
                let next = self.codes[at + tail];
                if next < 4 {
                    votes[next as usize] += 1;
                    any = true;
                }
            }
        }
        any.then_some(votes)
    }
}

/// Walk rightward from the last `k`-mer of `seed` using read k-mers,
/// stopping when `target` (a k-mer) is reached or limits hit. Returns the
/// appended bases on success (`Ok`) or the partial extension (`Err`).
fn kmer_walk(
    index: &WalkIndex,
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
        let Some(votes) = index.votes(k, cur) else {
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
            for seq in [&r.seq, &revcomp(&r.seq)] {
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
    // patching. One index of the candidates serves every k; it is built on
    // the first walk.
    let mut best_partials: Option<(Vec<u8>, Vec<u8>)> = None;
    let mut index: Option<WalkIndex> = None;
    for kw in WALK_KS {
        if prev_flank.len() < kw || next_flank.len() < kw {
            continue;
        }
        let codec = KmerCodec::new(kw);
        let index = index.get_or_insert_with(|| WalkIndex::new(candidates));
        let target = codec
            .pack(&next_flank[..kw])
            .expect("contig flanks are clean DNA");
        // Left-to-right walk.
        let partial_fwd = match kmer_walk(index, &codec, prev_flank, target, ctx) {
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
        let partial_back = match kmer_walk(index, &codec, &rc_next, rc_target, ctx) {
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

/// The ranks `0..ranks` in bit-reversed order: each rank's index, its bits
/// reversed within the next power of two, ranks past the end skipped (8
/// ranks: 0, 4, 2, 6, 1, 5, 3, 7). A run of consecutive turns alternates
/// between the halves of the rank range, then between its quarters, and so
/// on.
fn bit_reversed(ranks: usize) -> Vec<usize> {
    let span = ranks.next_power_of_two();
    let bits = span.trailing_zeros();
    (0..span)
        .map(|i| {
            i.reverse_bits()
                .checked_shr(usize::BITS - bits)
                .unwrap_or(0)
        })
        .filter(|&r| r < ranks)
        .collect()
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

    // Phase 2 (parallel): close gaps, dealt round-robin in bit-reversed
    // rank order (or blocked, the ablation).
    let ranks = team.ranks();
    let deal = bit_reversed(ranks);
    let (closure_lists, stats2) = team.run_named("scaffold/gap-closing/close", |ctx| {
        // Round-robin here deals *gaps* (work units) to ranks; it is not
        // k-mer ownership, so it stays modulo-based whatever owns the k-mer
        // tables. Gap g goes to rank deal[g % ranks].
        let my_gaps: Vec<usize> = if cfg.round_robin {
            let turn = deal
                .iter()
                .position(|&r| r == ctx.rank)
                .expect("a permutation");
            (turn..gaps.len()).step_by(ranks).collect()
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
        fixture_with_gap(lcg(gap_len, 2), read_len, with_reads)
    }

    fn fixture_with_gap(gap: Vec<u8>, read_len: usize, with_reads: bool) -> Fixture {
        let gap_len = gap.len();
        let a = lcg(400, 1);
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

    /// The per-k table the walks used before [`WalkIndex`]: k-mer →
    /// right-extension votes over every read and its reverse complement
    /// (`rcs`). The oracle of the index's differential test.
    fn walk_table(
        codec: &KmerCodec,
        reads: &[&SeqRecord],
        rcs: &[Vec<u8>],
    ) -> KmerHashMap<Kmer, [u32; 4]> {
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
        for (r, rc) in reads.iter().zip(rcs) {
            add(&r.seq);
            add(rc);
        }
        table
    }

    #[test]
    fn walk_index_votes_equal_the_per_k_tables() {
        let mut x = 99u64;
        let mut draw = |n: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % n
        };
        for trial in 0..40u64 {
            // Reads from a short genome (so they overlap), some shorter
            // than 34 bases, with N bases and a planted 17-mer repeat
            // followed by different bases.
            let genome = lcg(300 + draw(400) as usize, 100 + trial);
            let repeat = lcg(KEY_K, 200 + trial);
            let mut reads = Vec::new();
            for i in 0..(20 + draw(40)) {
                let len = 5 + draw(130) as usize;
                let start = draw((genome.len() - len) as u64) as usize;
                let mut seq = genome[start..start + len].to_vec();
                if draw(3) == 0 {
                    let at = draw(len as u64) as usize;
                    seq.splice(at..at, repeat.iter().copied());
                    seq.insert(at + KEY_K, b"ACGT"[draw(4) as usize]);
                }
                for _ in 0..draw(3) {
                    let at = draw(seq.len() as u64) as usize;
                    seq[at] = if draw(2) == 0 { b'N' } else { b'n' };
                }
                reads.push(SeqRecord::with_uniform_quality(format!("r{i}"), seq, 35));
            }
            let reads: Vec<&SeqRecord> = reads.iter().collect();
            let rcs: Vec<Vec<u8>> = reads.iter().map(|r| revcomp(&r.seq)).collect();
            let index = WalkIndex::new(&reads);
            let mut plain = index_keys(&index.codes);
            plain.sort_unstable();
            assert_eq!(index.keys, plain, "trial {trial}");
            for k in WALK_KS {
                let codec = KmerCodec::new(k);
                let table = walk_table(&codec, &reads, &rcs);
                assert!(!table.is_empty());
                for (&km, &votes) in &table {
                    assert_eq!(index.votes(k, km), Some(votes), "trial {trial} k {k}");
                }
                // Probes: every k-mer of the reads (those no clean base
                // follows are absent), each table k-mer with its last base
                // or its first base after the 17-mer prefix changed, and
                // random k-mers.
                let mut probes: Vec<Kmer> = Vec::new();
                for seq in reads.iter().map(|r| &r.seq).chain(&rcs) {
                    probes.extend(codec.kmers(seq).map(|(_, km)| km));
                }
                for &km in table.keys() {
                    for b in 0..4u128 {
                        probes.push(Kmer((km.0 & !3) | b));
                        if k > KEY_K {
                            let shift = 2 * (k - KEY_K - 1);
                            probes.push(Kmer((km.0 & !(3 << shift)) | (b << shift)));
                        }
                    }
                }
                for _ in 0..200 {
                    probes.push(Kmer(
                        ((draw(1 << 32) as u128) << 34 | draw(1 << 34) as u128)
                            & ((1u128 << (2 * k)) - 1),
                    ));
                }
                for km in probes {
                    assert_eq!(
                        index.votes(k, km),
                        table.get(&km).copied(),
                        "trial {trial} k {k} probe {}",
                        codec.to_string(km)
                    );
                }
            }
        }
    }

    #[test]
    fn bucketed_key_sort_equals_a_plain_sort() {
        let mut x = 5u64;
        let mut draw = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x
        };
        // Uniform keys, keys crowding a few buckets (a poly-A read's
        // 17-mers are all zero bits on top), duplicates, and the extremes.
        for n in [0, 1, 2, 100, 5_000, 80_000] {
            let mut keys: Vec<u64> = (0..n).map(|_| draw()).collect();
            keys.extend((0..n / 2).map(|_| draw() >> 52));
            keys.extend_from_within(..n / 4);
            keys.extend([0, u64::MAX, 1 << 50, (1 << 50) - 1]);
            let mut plain = keys.clone();
            plain.sort_unstable();
            assert_eq!(sort_keys(keys), plain, "{n}");
        }
    }

    #[test]
    fn planted_17mer_repeat_forks_k17_and_k25_walks_through() {
        // gap = X G R A Y T R C Z: the 17-mer R occurs twice, preceded and
        // followed by different bases, so at k = 17 both walks fork at R
        // (and patching would glue the halves at the wrong copy); any
        // 25-mer over R is unique.
        let repeat = lcg(KEY_K, 5);
        let mut gap = lcg(100, 4);
        for (before, part, after) in [(b'G', lcg(80, 6), b'A'), (b'T', lcg(100, 7), b'C')] {
            gap.push(before);
            gap.extend_from_slice(&repeat);
            gap.push(after);
            gap.extend_from_slice(&part);
        }
        let f = fixture_with_gap(gap, 90, true);
        let reads: Vec<&SeqRecord> = f.reads.iter().collect();
        let codec = KmerCodec::new(KEY_K);
        let votes = WalkIndex::new(&reads)
            .votes(KEY_K, codec.pack(&repeat).unwrap())
            .unwrap();
        let forks = votes.iter().filter(|&&v| v >= WALK_MIN_COUNT).count();
        assert_eq!(
            forks, 2,
            "the k = 17 walk must fork at the repeat: {votes:?}"
        );

        let team = Team::new(Topology::new(2, 2));
        let (set, stats, _) = close_gaps(
            &team,
            &f.contigs,
            &f.scaffolds,
            &f.alignments,
            &f.reads,
            &GapCloseConfig::default(),
        );
        assert_eq!(
            stats,
            GapCloseStats {
                walked: 1,
                ..GapCloseStats::default()
            }
        );
        assert_eq!(set.sequences[0], f.genome);
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
    fn bit_reversed_deal_is_a_permutation_that_alternates_halves() {
        assert_eq!(bit_reversed(1), vec![0]);
        assert_eq!(bit_reversed(2), vec![0, 1]);
        assert_eq!(bit_reversed(8), vec![0, 4, 2, 6, 1, 5, 3, 7]);
        assert_eq!(bit_reversed(6), vec![0, 4, 2, 1, 5, 3]);
        for ranks in 1..40 {
            let mut deal = bit_reversed(ranks);
            let first_four: Vec<usize> = deal.iter().take(4).copied().collect();
            if ranks >= 4 {
                // Four consecutive gaps reach both halves of the ranks.
                assert!(first_four.iter().any(|&r| 2 * r < ranks), "{ranks}");
                assert!(first_four.iter().any(|&r| 2 * r >= ranks), "{ranks}");
            }
            deal.sort_unstable();
            assert_eq!(deal, (0..ranks).collect::<Vec<_>>());
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
