//! Parallel de Bruijn graph traversal.
//!
//! Mutual unique-extension links give every vertex in-degree ≤ 1 and
//! out-degree ≤ 1, so the graph decomposes into simple paths and cycles.
//! [`traverse_graph`] is the paper's traversal, one claim walk per seed:
//! every rank picks seeds from its **local** buckets, claims the seed,
//! extends it in both directions with one claiming access per vertex,
//! stops where another walk's claim (or the walk cap, or an ownership
//! boundary) begins, and a serial pass stitches the resulting subcontig
//! chains. `traverse_endpoints` is the deterministic reference the tests
//! compare against: one walker per path endpoint, emitted by an endpoint
//! tie-break, plus a cleanup pass that linearizes cycles. Both produce the
//! identical contig set.
//!
//! The graph is frozen: every read is a plain billed lookup, and a claim is
//! one billed `get` followed by one atomic `swap` of the vertex's
//! [`GraphNode::visited`] flag, so exactly one walk wins each vertex on any
//! number of OS threads.

use crate::chain::{ends_overlap, stitch, walk_chains, ContigEnd};
use crate::contig_set::ContigSet;
use crate::graph::{DebruijnGraph, GraphNode};
use hipmer_dna::{canonical_seq, decode_base, ExtensionPair, Kmer, KmerCodec, KmerHashMap};
use hipmer_kanalysis::KmerSpectrum;
use hipmer_pgas::stats::merge_ranks;
use hipmer_pgas::{CommStats, OracleVector, PhaseReport, RankCtx, Team};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Traversal configuration.
#[derive(Clone)]
pub struct ContigConfig {
    /// Oracle vertex ownership (§3.2), or `None` for uniform hashing.
    pub oracle: Option<Arc<OracleVector>>,
    /// Cap on steps per claim walk before the subcontig is closed with a
    /// boundary link (keeps per-rank work bounded).
    pub walk_cap: usize,
    /// Abundance-aware hair/tip pruning floor (the MetaHipMer multi-k
    /// rounds): after traversal, contigs no longer than `3 * k` bases with
    /// at least one dead end (no unique outward extension) and a mean k-mer
    /// depth below this floor are dropped. `0.0` (the default) disables pruning — the
    /// classic single-k pipeline never sets it, so its output is untouched.
    pub prune_depth_floor: f64,
}

impl Default for ContigConfig {
    fn default() -> Self {
        ContigConfig {
            oracle: None,
            walk_cap: 2048,
            prune_depth_floor: 0.0,
        }
    }
}

/// Length cap for prune candidates, in units of k: anything longer than
/// `3 * k` bases is kept regardless of depth. Error hairs and tips are at
/// most about a read length of spurious extension, so a generous cap still
/// never touches genuine backbone contigs (tuned on the PR-10 multi-k
/// community).
const PRUNE_MAX_LEN_IN_K: usize = 3;

/// A k-mer in walk orientation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Oriented {
    /// The k-mer as walked (possibly the reverse complement of canonical).
    kmer: Kmer,
    /// Its canonical table key.
    canon: Kmer,
    /// Whether `kmer != canon`.
    flipped: bool,
}

/// `kmer` as walked, with its canonical key worked out.
fn orient(codec: &KmerCodec, kmer: Kmer) -> Oriented {
    let canon = codec.canonical(kmer);
    Oriented {
        kmer,
        canon,
        flipped: canon != kmer,
    }
}

/// The table key `canon` itself as a walk start: forward, or (`flipped`)
/// as its reverse complement.
fn orient_canon(codec: &KmerCodec, canon: Kmer, flipped: bool) -> Oriented {
    Oriented {
        kmer: if flipped { codec.revcomp(canon) } else { canon },
        canon,
        flipped,
    }
}

/// A node's extensions as seen from the given orientation.
fn exts_of(node: &GraphNode, flipped: bool) -> ExtensionPair {
    if flipped {
        node.exts.flip()
    } else {
        node.exts
    }
}

/// Try to advance one base to the right. Returns the next oriented vertex,
/// its node, and the appended base code — or `None` at a path end (missing
/// neighbor or non-mutual link). Exactly one hash-table lookup.
fn step_right<'g>(
    graph: &'g DebruijnGraph,
    ctx: &mut RankCtx,
    cur: Oriented,
    cur_node: &GraphNode,
) -> Option<(Oriented, &'g GraphNode, u8)> {
    let codec = &graph.codec;
    let b = exts_of(cur_node, cur.flipped).right.unique_base()?;
    let next = orient(codec, codec.extend_right(cur.kmer, b));
    let node = graph.nodes.get(ctx, &next.canon)?;
    ctx.stats.compute(1);
    // Mutual check: the next vertex's left extension must point back at the
    // base we dropped (the current k-mer's first base).
    if exts_of(node, next.flipped).left.unique_base() != Some(codec.first_base(cur.kmer)) {
        return None;
    }
    Some((next, node, b))
}

/// Walk right from `start`, returning the sequence and the canonical keys
/// of every vertex on the path (including `start`).
fn walk_right(
    graph: &DebruijnGraph,
    ctx: &mut RankCtx,
    start: Oriented,
    start_node: &GraphNode,
) -> (Vec<u8>, Vec<Kmer>, Oriented) {
    let codec = &graph.codec;
    let mut seq = codec.unpack(start.kmer);
    let mut path = vec![start.canon];
    let mut cur = start;
    let mut cur_node = start_node;
    while let Some((next, node, b)) = step_right(graph, ctx, cur, cur_node) {
        // A walk from a true endpoint cannot revisit (in/out degree ≤ 1),
        // but a cycle walk returns to its start; callers handle that — here
        // we guard against it to keep linear walks finite in all cases.
        if next.canon == start.canon {
            break;
        }
        seq.push(decode_base(b));
        path.push(next.canon);
        cur = next;
        cur_node = node;
    }
    (seq, path, cur)
}

/// Mark every vertex of an emitted path visited (one access per vertex).
fn mark_visited(graph: &DebruijnGraph, ctx: &mut RankCtx, path: &[Kmer]) {
    for km in path {
        if let Some(node) = graph.nodes.get(ctx, km) {
            node.visited.store(true, Ordering::Relaxed);
        }
    }
}

/// Claim `node` for the calling walk: `true` if it was free. The flag
/// orders nothing else, so the swap needs no ordering beyond its own
/// atomicity: exactly one of any number of racing claims sees it clear.
fn claim(node: &GraphNode) -> bool {
    !node.visited.swap(true, Ordering::Relaxed)
}

/// One step of the claiming walk.
enum ClaimStep<'g> {
    /// The next vertex was free and is now ours.
    Claimed(Oriented, &'g GraphNode, u8),
    /// The next vertex exists but belongs to another subcontig: record the
    /// boundary (its canonical key) and stop.
    Boundary(Kmer),
    /// Natural path end (missing vertex or non-mutual link).
    End,
}

/// Advance one base, claiming the next vertex in the same access that
/// reads it (one one-sided operation per explored vertex, as in the
/// paper).
fn step_claim<'g>(
    graph: &'g DebruijnGraph,
    ctx: &mut RankCtx,
    cur: Oriented,
    cur_node: &GraphNode,
) -> ClaimStep<'g> {
    let codec = graph.codec;
    let Some(b) = exts_of(cur_node, cur.flipped).right.unique_base() else {
        return ClaimStep::End;
    };
    let next = orient(&codec, codec.extend_right(cur.kmer, b));
    let first_base = codec.first_base(cur.kmer);
    ctx.stats.compute(1);
    let Some(node) = graph.nodes.get(ctx, &next.canon) else {
        return ClaimStep::End;
    };
    if exts_of(node, next.flipped).left.unique_base() != Some(first_base) {
        ClaimStep::End
    } else if claim(node) {
        ClaimStep::Claimed(next, node, b)
    } else {
        ClaimStep::Boundary(next.canon)
    }
}

/// A subcontig produced by the cooperative traversal.
struct Subcontig {
    /// Sequence in the seed's canonical orientation.
    seq: Vec<u8>,
    /// Canonical keys of the first and last k-mer, indexed by
    /// [`ContigEnd`] (as `links` is).
    ends: [Kmer; 2],
    /// Per side, the canonical key of the vertex beyond that end if the
    /// walk stopped at a boundary (foreign claim or walk cap); `None` at
    /// natural path ends.
    links: [Option<Kmer>; 2],
}

/// One direction of a claim walk: what extending from `start` consumed.
struct Arm {
    /// Base codes appended in walk orientation, one per claimed vertex.
    bases: Vec<u8>,
    /// Canonical key of the last claimed vertex (`start` if none).
    end: Kmer,
    /// The boundary vertex beyond `end`, if the walk did not end naturally.
    link: Option<Kmer>,
}

/// Extend rightward from the already-claimed `start`, claiming every vertex
/// consumed, for at most `cfg.walk_cap` steps. (Walking left is walking
/// right from the flipped orientation.)
fn claim_arm(
    graph: &DebruijnGraph,
    ctx: &mut RankCtx,
    cfg: &ContigConfig,
    start: Oriented,
    start_node: &GraphNode,
) -> Arm {
    let codec = graph.codec;
    let mut arm = Arm {
        bases: Vec::new(),
        end: start.canon,
        link: None,
    };
    let (mut cur, mut cur_node) = (start, start_node);
    for _ in 0..cfg.walk_cap {
        match step_claim(graph, ctx, cur, cur_node) {
            ClaimStep::Claimed(next, node, b) => {
                arm.bases.push(b);
                arm.end = next.canon;
                cur = next;
                cur_node = node;
            }
            ClaimStep::Boundary(km) => {
                arm.link = Some(km);
                return arm;
            }
            ClaimStep::End => return arm,
        }
    }
    // Hit the cap mid-path: the next (unclaimed) vertex is the boundary
    // another subcontig will seed from.
    if let Some(b) = exts_of(cur_node, cur.flipped).right.unique_base() {
        let next = orient(&codec, codec.extend_right(cur.kmer, b));
        if graph.nodes.get(ctx, &next.canon).is_some() {
            arm.link = Some(next.canon);
        }
    }
    arm
}

/// Claim `seed` and walk both directions from it, claiming every vertex
/// consumed. Returns the subcontig and the number of vertices claimed, or
/// `None` if the seed was already claimed by another walk.
fn claim_walk_seed(
    graph: &DebruijnGraph,
    ctx: &mut RankCtx,
    cfg: &ContigConfig,
    seed: Kmer,
) -> Option<(Subcontig, usize)> {
    let codec = graph.codec;
    // Claim the seed (visited flips exactly once, whichever rank wins).
    let seed_node = graph.nodes.get(ctx, &seed).expect("seed key exists");
    if !claim(seed_node) {
        return None;
    }
    let mut arm = |flipped| {
        let start = orient_canon(&codec, seed, flipped);
        claim_arm(graph, ctx, cfg, start, seed_node)
    };
    let right = arm(false);
    let left = arm(true);
    // A base b appended in the flipped orientation prepends complement(b)
    // in the seed's.
    let complement = |&b: &u8| decode_base(3 - b);
    let mut seq: Vec<u8> = left.bases.iter().rev().map(complement).collect();
    seq.extend(codec.unpack(seed));
    seq.extend(right.bases.iter().map(|&b| decode_base(b)));
    let claimed = 1 + left.bases.len() + right.bases.len();
    Some((
        Subcontig {
            seq,
            ends: [left.end, right.end],
            links: [left.link, right.link],
        },
        claimed,
    ))
}

/// The paper's cooperative traversal: claim-as-you-walk subcontigs from
/// local seeds, then merge the chains.
fn traverse_cooperative(
    team: &Team,
    graph: &DebruijnGraph,
    cfg: &ContigConfig,
) -> (Vec<Vec<u8>>, Vec<CommStats>, u64) {
    let codec = graph.codec;
    // Three passes over the local seeds. In a truly concurrent execution
    // the racing walks partition the graph into ~G/p claims per rank; our
    // virtual ranks run sequentially, so (a) the early passes cap each
    // rank's total claims at ~1.5x its local share, and (b) the first
    // pass only seeds *native* vertices — ones with a graph neighbor on
    // the same rank. Under oracle placement a collision-displaced k-mer
    // is non-native (its contig lives elsewhere); deferring it lets the
    // contig's owner claim its region locally first, exactly as the race
    // resolves on a real machine. A final uncapped pass mops up leftovers.
    let run_pass = |pass: u8| {
        let capped = pass < 2;
        let native_only = pass == 0;
        let label = match pass {
            0 => "contig/traversal/pass-native",
            1 => "contig/traversal/pass-capped",
            _ => "contig/traversal/pass-final",
        };
        team.run_named(label, |ctx| {
            // Seed scan: every local vertex's flag, read once at the start
            // of the pass. Already-claimed vertices are skipped without a
            // table lookup — claims never revert, so a stale "claimed" is
            // always correct to skip; a seed claimed later in the pass
            // costs one failed claim.
            let local: Vec<(Kmer, &GraphNode, bool)> = (graph.nodes.scan_local(ctx))
                .map(|(&km, node)| (km, node, node.visited.load(Ordering::Relaxed)))
                .collect();
            let rank_cap = if capped {
                (local.len() * 3 / 2).max(64)
            } else {
                usize::MAX
            };
            let mut claimed_total = 0usize;
            let mut subs: Vec<Subcontig> = Vec::new();

            for (seed, node, claimed_at_start) in local {
                if claimed_total >= rank_cap {
                    break;
                }
                if claimed_at_start {
                    continue;
                }
                if native_only {
                    // Neighbor ownership is pure owner arithmetic — no
                    // table lookups.
                    ctx.stats.compute(2);
                    let here = |n: Kmer| graph.nodes.owner(&codec.canonical(n)) == ctx.rank;
                    let left = node.exts.left.unique_base();
                    let right = node.exts.right.unique_base();
                    if !left.is_some_and(|b| here(codec.extend_left(seed, b)))
                        && !right.is_some_and(|b| here(codec.extend_right(seed, b)))
                    {
                        continue;
                    }
                }
                // Claim the seed (processors pick seeds from local buckets)
                // and walk both directions from it.
                let Some((sub, claims)) = claim_walk_seed(graph, ctx, cfg, seed) else {
                    continue;
                };
                claimed_total += claims;
                subs.push(sub);
            }
            subs
        })
    };
    let (subs_native, mut stats) = run_pass(0);
    let (subs_capped, stats_capped) = run_pass(1);
    let (subs_cleanup, stats_cleanup) = run_pass(2);
    merge_ranks(&mut stats, &stats_capped);
    merge_ranks(&mut stats, &stats_cleanup);
    let subs: Vec<Subcontig> = subs_native
        .into_iter()
        .chain(subs_capped)
        .chain(subs_cleanup)
        .flatten()
        .collect();

    // Serial merge of the subcontig chains (tiny: O(G / walk_cap + p)
    // pieces); its work is one op per piece merged and per base stitched.
    let out = merge_chains(&subs, codec.k());
    let stitched: usize = out.iter().map(Vec::len).sum();
    (out, stats, (subs.len() + stitched) as u64)
}

/// Stitch subcontigs into contigs by following their boundary links.
fn merge_chains(subs: &[Subcontig], k: usize) -> Vec<Vec<u8>> {
    // Endpoint key -> subcontigs ending there.
    let mut by_end: KmerHashMap<Kmer, Vec<usize>> = KmerHashMap::default();
    for (i, s) in subs.iter().enumerate() {
        by_end.entry(s.ends[0]).or_default().push(i);
        if s.ends[1] != s.ends[0] {
            by_end.entry(s.ends[1]).or_default().push(i);
        }
    }
    // Follow the link out of `side` of subcontig `i`: the neighbor, and the
    // side we enter it by.
    let hop = |i: usize, side: ContigEnd| -> Option<(usize, ContigEnd)> {
        let km = subs[i].links[side as usize]?;
        // Prefer a neighbor other than `i` (a subcontig may self-link on
        // cycles).
        let at = by_end.get(&km)?;
        let n = *at.iter().find(|&&n| n != i).or_else(|| at.first())?;
        // We enter the neighbor at the side whose link points back at our
        // endpoint. (Endpoint matching alone is ambiguous for single-k-mer
        // subcontigs, where both ends are the same key.)
        let back = Some(subs[i].ends[side as usize]);
        let enter = if subs[n].links[0] == back {
            ContigEnd::Left
        } else if subs[n].links[1] == back {
            ContigEnd::Right
        } else if subs[n].ends[0] == km {
            ContigEnd::Left
        } else {
            ContigEnd::Right
        };
        Some((n, enter))
    };
    // A join is walked only if both sides name each other and the two
    // subcontigs overlap by exactly k-1 bases across it; anything else
    // stays two chains.
    let joined = |i: usize, side: ContigEnd| {
        hop(i, side).filter(|&(n, enter)| {
            hop(n, enter) == Some((i, side))
                && ends_overlap(&subs[i].seq, side, &subs[n].seq, enter, k - 1)
        })
    };
    let links: Vec<[Option<(usize, ContigEnd)>; 2]> = (0..subs.len())
        .map(|i| [joined(i, ContigEnd::Left), joined(i, ContigEnd::Right)])
        .collect();
    walk_chains(subs.len(), |i, side| links[i][side as usize])
        .iter()
        .map(|chain| canonical_seq(stitch(chain, |i| &subs[i].seq, k - 1)))
        .collect()
}

/// Traverse a built graph into a contig set.
pub fn traverse_graph(
    team: &Team,
    graph: &DebruijnGraph,
    cfg: &ContigConfig,
) -> (ContigSet, PhaseReport) {
    assert!(
        graph.codec.k() % 2 == 1,
        "traversal requires odd k (no palindromic k-mers)"
    );
    let (seqs, mut stats, serial_ops) = traverse_cooperative(team, graph, cfg);
    graph.nodes.record_entries(&mut stats);
    let set = ContigSet::from_sequences(graph.codec, seqs);
    (
        set,
        PhaseReport::new("contig/traversal", *team.topo(), stats).with_serial_ops(serial_ops),
    )
}

/// The deterministic endpoint traversal: one walker per path endpoint,
/// emitted by an endpoint tie-break, then a pass that linearizes cycles.
/// It produces the same contig set as [`traverse_graph`] and is the
/// reference the contig tests hold the claim walk to. Not for production
/// use.
#[doc(hidden)]
pub fn traverse_endpoints(team: &Team, graph: &DebruijnGraph) -> (ContigSet, PhaseReport) {
    // Pass 1: endpoint walks.
    let (seqs, mut stats) = team.run_named("contig/traversal/endpoints", |ctx| {
        let mut out: Vec<Vec<u8>> = Vec::new();
        for (&km, node) in graph.nodes.scan_local(ctx) {
            // Two possible walk orientations; each is a start if it has no
            // mutual left neighbor — i.e. no step right from the opposite
            // orientation (one lookup).
            for flipped in [false, true] {
                let oriented = orient_canon(&graph.codec, km, flipped);
                let facing_left = orient_canon(&graph.codec, km, !flipped);
                if step_right(graph, ctx, facing_left, node).is_some() {
                    continue;
                }
                let (seq, path, end) = walk_right(graph, ctx, oriented, node);
                // Tie-break: of the two endpoint walks over this path, emit
                // the one whose start key is smaller; single-vertex paths
                // (start == end) emit from the canonical orientation only.
                let emit = match oriented.canon.bits().cmp(&end.canon.bits()) {
                    std::cmp::Ordering::Less => true,
                    std::cmp::Ordering::Equal => !oriented.flipped,
                    std::cmp::Ordering::Greater => false,
                };
                if emit {
                    mark_visited(graph, ctx, &path);
                    out.push(canonical_seq(seq));
                }
            }
        }
        out
    });
    let mut all: Vec<Vec<u8>> = seqs.into_iter().flatten().collect();

    // Pass 2: cycle cleanup. Any vertex still unvisited lies on a cycle;
    // walk it, and the walker whose start is the cycle's minimum key emits.
    let (cycle_seqs, cycle_stats) = team.run_named("contig/traversal/cycles", |ctx| {
        let mut out: Vec<Vec<u8>> = Vec::new();
        for (&km, node) in graph.nodes.scan_local(ctx) {
            // Skip what pass 1, or an earlier walk of this pass, visited.
            if node.visited.load(Ordering::Relaxed) {
                continue;
            }
            let start = orient_canon(&graph.codec, km, false);
            let (seq, path, _) = walk_right(graph, ctx, start, node);
            let min = path.iter().min().copied().expect("non-empty path");
            if min == km {
                mark_visited(graph, ctx, &path);
                out.push(canonical_seq(seq));
            }
        }
        out
    });
    all.extend(cycle_seqs.into_iter().flatten());

    merge_ranks(&mut stats, &cycle_stats);
    graph.nodes.record_entries(&mut stats);
    (
        ContigSet::from_sequences(graph.codec, all),
        PhaseReport::new("contig/traversal", *team.topo(), stats),
    )
}

/// Whether one contig end is a dead end: walking outward from the terminal
/// k-mer (oriented in contig direction) through *shallow* vertices — the
/// contig's own terminal plus the non-UU stragglers the traversal excluded
/// from emission — terminates (missing k-mer, no unique extension) before
/// reaching any k-mer at or above `floor` depth. Reaching a deep vertex
/// means the end rejoins covered sequence (a fork into the backbone, or a
/// bubble arm), which pruning must leave alone.
fn end_is_dead(
    ctx: &mut RankCtx,
    spectrum: &KmerSpectrum,
    end_kmer: Kmer,
    outward_left: bool,
    floor: f64,
    max_hops: usize,
) -> bool {
    let codec = &spectrum.codec;
    let mut cur = end_kmer;
    for hop in 0..=max_hops {
        let canon = codec.canonical(cur);
        let Some(entry) = spectrum.table.get(ctx, &canon) else {
            return true;
        };
        // The first vertex is the contig's own terminal (shallow by the
        // caller's depth test); any later deep vertex is a reconnection.
        if hop > 0 && entry.count as f64 >= floor {
            return false;
        }
        let exts = if canon == cur {
            entry.exts
        } else {
            entry.exts.flip()
        };
        let outward = if outward_left { exts.left } else { exts.right };
        let Some(code) = outward.unique_base() else {
            return true;
        };
        cur = if outward_left {
            codec.extend_left(cur, code)
        } else {
            codec.extend_right(cur, code)
        };
    }
    // Walked max_hops shallow-but-extending vertices without dying: treat
    // as alive rather than guess (pruning must never eat real sequence).
    false
}

/// Abundance-aware hair/tip pruning (the MetaHipMer multi-k design):
/// drop short contigs that dead-end on at least one side and whose mean
/// k-mer depth is below [`ContigConfig::prune_depth_floor`]. Sequencing
/// errors in low-abundance species survive the count filter just often
/// enough to sprout short dead-end branches; feeding those forward as
/// pseudo-reads would amplify them round over round, so the non-final
/// rounds prune them here. The decision is a pure per-contig function of
/// the frozen k-mer table, so the surviving set is schedule- and
/// topology-independent.
pub fn prune_hairs(
    team: &Team,
    spectrum: &KmerSpectrum,
    set: &ContigSet,
    cfg: &ContigConfig,
) -> (ContigSet, PhaseReport) {
    let codec = spectrum.codec;
    let k = codec.k();
    let max_len = PRUNE_MAX_LEN_IN_K * k;
    let candidates: Vec<usize> = (0..set.contigs.len())
        .filter(|&ci| set.contigs[ci].seq.len() <= max_len)
        .collect();

    let (drop_lists, mut stats) = team.run_named("contig/prune", |ctx| {
        let mut dropped: Vec<usize> = Vec::new();
        for &ci in &candidates[ctx.chunk(candidates.len())] {
            let seq = &set.contigs[ci].seq;
            let n_kmers = seq.len() - k + 1;
            ctx.stats.compute(n_kmers as u64);
            let kmers: Vec<Kmer> = (0..n_kmers)
                .filter_map(|off| codec.pack(&seq[off..off + k]))
                .collect();
            let mut sum = 0u64;
            let mut n = 0u64;
            for entry in spectrum.get_batch(ctx, &kmers).into_iter().flatten() {
                sum += entry.count as u64;
                n += 1;
            }
            let depth = if n == 0 { 0.0 } else { sum as f64 / n as f64 };
            if depth >= cfg.prune_depth_floor {
                continue;
            }
            let first = codec
                .pack(&seq[..k])
                .expect("contig starts with k clean bases");
            let last = codec
                .pack(&seq[seq.len() - k..])
                .expect("contig ends with k clean bases");
            let floor = cfg.prune_depth_floor;
            if end_is_dead(ctx, spectrum, first, true, floor, max_len)
                || end_is_dead(ctx, spectrum, last, false, floor, max_len)
            {
                dropped.push(ci);
            }
        }
        dropped
    });
    spectrum.table.record_entries(&mut stats);

    let mut drop = vec![false; set.contigs.len()];
    for ci in drop_lists.into_iter().flatten() {
        drop[ci] = true;
    }
    let survivors: Vec<Vec<u8>> = set
        .contigs
        .iter()
        .filter(|c| !drop[c.id])
        .map(|c| c.seq.clone())
        .collect();
    (
        ContigSet::from_sequences(codec, survivors),
        PhaseReport::new("contig/prune", *team.topo(), stats),
    )
}

/// Convenience: build the graph from a spectrum and traverse it. With
/// [`ContigConfig::prune_depth_floor`] set, low-depth hairs/tips are
/// pruned from the traversal output (the multi-k rounds path).
pub fn generate_contigs(
    team: &Team,
    spectrum: &KmerSpectrum,
    cfg: &ContigConfig,
) -> (ContigSet, Vec<PhaseReport>) {
    let (graph, build_report) = crate::graph::build_graph(team, spectrum, cfg.oracle.clone());
    let (set, traverse_report) = traverse_graph(team, &graph, cfg);
    let mut reports = vec![build_report, traverse_report];
    let set = if cfg.prune_depth_floor > 0.0 {
        let (pruned, prune_report) = prune_hairs(team, spectrum, &set, cfg);
        reports.push(prune_report);
        pruned
    } else {
        set
    };
    (set, reports)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use hipmer_kanalysis::{analyze_kmers, KmerAnalysisConfig};
    use hipmer_pgas::Topology;
    use hipmer_seqio::SeqRecord;

    pub(crate) fn lcg_genome(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                b"ACGT"[(x >> 60) as usize % 4]
            })
            .collect()
    }

    pub(crate) fn perfect_reads(genome: &[u8], read_len: usize, depth: usize) -> Vec<SeqRecord> {
        let mut out = Vec::new();
        for d in 0..depth {
            let mut pos = d * 7 % read_len.max(1);
            while pos + read_len <= genome.len() {
                out.push(SeqRecord::with_uniform_quality(
                    format!("r{d}_{pos}"),
                    genome[pos..pos + read_len].to_vec(),
                    35,
                ));
                pos += read_len / 2;
            }
        }
        out
    }

    fn assemble(genome: &[u8], topo: Topology) -> ContigSet {
        let team = Team::new(topo);
        let reads = perfect_reads(genome, 80, 4);
        let kcfg = KmerAnalysisConfig::new(21);
        let (spectrum, _) = analyze_kmers(&team, &reads, &kcfg);
        let ccfg = ContigConfig {
            walk_cap: 100, // small cap: exercise chain merging in tests
            ..ContigConfig::default()
        };
        let (set, _) = generate_contigs(&team, &spectrum, &ccfg);
        set
    }

    /// The endpoint-walk reference over the graph of `spectrum`.
    fn endpoint_contigs(team: &Team, spectrum: &KmerSpectrum) -> ContigSet {
        let (graph, _) = crate::graph::build_graph(team, spectrum, None);
        traverse_endpoints(team, &graph).0
    }

    #[test]
    fn single_clean_genome_yields_one_dominant_contig() {
        let genome = lcg_genome(3000, 21);
        let set = assemble(&genome, Topology::new(4, 2));
        assert!(!set.is_empty());
        // Read ends lose extension votes near boundaries, so the assembly
        // may be split, but the largest contig should span nearly
        // everything.
        assert!(
            set.max_len() > genome.len() - 200,
            "max contig {} of {}",
            set.max_len(),
            genome.len()
        );
        // And it must be a substring of the genome (or its revcomp).
        let big = &set.contigs[0].seq;
        let rc = hipmer_dna::revcomp(&genome);
        let found = genome.windows(big.len()).any(|w| w == &big[..])
            || rc.windows(big.len()).any(|w| w == &big[..]);
        assert!(found, "contig is not a genome substring");
    }

    #[test]
    fn prune_drops_low_depth_hairs_and_keeps_backbone() {
        let genome = lcg_genome(1500, 9);
        let team = Team::new(Topology::new(4, 2));
        let mut reads = perfect_reads(&genome, 80, 6);
        // An erroneous read seen exactly twice: its k-mers clear the
        // min_count=2 filter, sprouting a depth-2 branch off the backbone.
        // The error sits near the read END so the branch dead-ends (a
        // hair) instead of reconnecting on both sides (a bubble, which
        // pruning deliberately leaves for the scaffolder's bubble pass).
        let mut bad = genome[200..280].to_vec();
        bad[70] = match bad[70] {
            b'A' => b'C',
            _ => b'A',
        };
        for i in 0..2 {
            reads.push(SeqRecord::with_uniform_quality(
                format!("bad{i}"),
                bad.clone(),
                35,
            ));
        }
        let (spectrum, _) = analyze_kmers(&team, &reads, &KmerAnalysisConfig::new(21));
        let mut ccfg = ContigConfig::default();
        let (unpruned, _) = generate_contigs(&team, &spectrum, &ccfg);

        ccfg.prune_depth_floor = 2.5;
        let (pruned, reports) = generate_contigs(&team, &spectrum, &ccfg);
        assert!(
            reports.iter().any(|r| r.name == "contig/prune"),
            "prune phase must be reported when armed"
        );
        assert!(
            pruned.len() < unpruned.len(),
            "low-depth error branch must be pruned ({} vs {})",
            pruned.len(),
            unpruned.len()
        );
        // The deep backbone survives untouched.
        assert_eq!(pruned.max_len(), unpruned.max_len());
        // The error branch (containing the mutated base's k-mers) is gone.
        // (The emitted arm stops one k-mer short of the read end — the
        // terminal k-mer's outward extension is dead, so it is non-UU and
        // excluded — hence the window ends at 79, not 80.)
        let arm = bad[55..79].to_vec();
        let arm_rc = hipmer_dna::revcomp(&arm);
        let has_arm = |set: &ContigSet| {
            set.contigs.iter().any(|c| {
                c.seq
                    .windows(arm.len())
                    .any(|w| w == &arm[..] || w == &arm_rc[..])
            })
        };
        assert!(has_arm(&unpruned), "error arm must exist before pruning");
        assert!(!has_arm(&pruned), "error arm must be pruned");
        // Pruning is topology-independent: a different team shape drops
        // the same contigs.
        let team2 = Team::new(Topology::new(7, 3));
        let (spectrum2, _) = analyze_kmers(&team2, &reads, &KmerAnalysisConfig::new(21));
        let (pruned2, _) = generate_contigs(&team2, &spectrum2, &ccfg);
        let seqs =
            |s: &ContigSet| -> Vec<Vec<u8>> { s.contigs.iter().map(|c| c.seq.clone()).collect() };
        assert_eq!(seqs(&pruned), seqs(&pruned2));
    }

    #[test]
    fn contig_set_is_schedule_independent() {
        let genome = lcg_genome(2000, 33);
        let a = assemble(&genome, Topology::new(1, 1));
        let b = assemble(&genome, Topology::new(7, 3));
        let c = assemble(&genome, Topology::new(16, 4));
        let seqs =
            |s: &ContigSet| -> Vec<Vec<u8>> { s.contigs.iter().map(|c| c.seq.clone()).collect() };
        assert_eq!(seqs(&a), seqs(&b));
        assert_eq!(seqs(&a), seqs(&c));
    }

    #[test]
    fn cooperative_matches_deterministic() {
        let genome = lcg_genome(2500, 55);
        let team = Team::new(Topology::new(4, 2));
        let reads = perfect_reads(&genome, 80, 4);
        let (spectrum, _) = analyze_kmers(&team, &reads, &KmerAnalysisConfig::new(21));
        let det = endpoint_contigs(&team, &spectrum);
        let coop = assemble(&genome, Topology::new(4, 2));
        let seqs =
            |s: &ContigSet| -> Vec<Vec<u8>> { s.contigs.iter().map(|c| c.seq.clone()).collect() };
        assert_eq!(seqs(&det), seqs(&coop));
    }

    /// A contig set with every linearized cycle (one period plus the k-1
    /// wrap bases) rotated to its smallest rotation over both strands — a
    /// cycle's start depends on claim order, its content does not.
    fn rotation_free(set: &ContigSet, k: usize) -> Vec<Vec<u8>> {
        let mut seqs: Vec<Vec<u8>> = set
            .contigs
            .iter()
            .map(|c| {
                let seq = &c.seq;
                if seq.len() < 2 * k || seq[..k - 1] != seq[seq.len() - (k - 1)..] {
                    return seq.clone();
                }
                let period = seq.len() - (k - 1);
                let rc = hipmer_dna::revcomp(seq);
                [&seq[..], &rc[..]]
                    .into_iter()
                    .flat_map(|s| (0..period).map(move |r| [&s[r..period], &s[..r]].concat()))
                    .min()
                    .expect("period > 0")
            })
            .collect();
        seqs.sort();
        seqs
    }

    #[test]
    fn tiny_walk_caps_match_the_endpoint_walk() {
        // walk_cap 1..=3 makes most subcontigs one to three k-mers long,
        // so the chain merge joins single-k-mer subcontigs (both ends the
        // same key) everywhere: the orientation rule has to come from the
        // links, on paths, across a repeat and around a cycle.
        let k = 21;
        let linear = lcg_genome(1200, 21);
        let repeat = lcg_genome(60, 77);
        let broken = [
            lcg_genome(500, 1),
            repeat.clone(),
            lcg_genome(500, 2),
            repeat,
            lcg_genome(500, 3),
        ]
        .concat();
        let mut circular = lcg_genome(600, 9);
        circular.extend_from_within(..80);
        let team = Team::new(Topology::new(7, 3));
        for (what, genome) in [
            ("linear", linear),
            ("repeat", broken),
            ("circular", circular),
        ] {
            let reads = perfect_reads(&genome, 80, 4);
            let (spectrum, _) = analyze_kmers(&team, &reads, &KmerAnalysisConfig::new(k));
            let reference = endpoint_contigs(&team, &spectrum);
            assert!(!reference.is_empty());
            for walk_cap in [1, 2, 3] {
                let cfg = ContigConfig {
                    walk_cap,
                    ..ContigConfig::default()
                };
                let (set, _) = generate_contigs(&team, &spectrum, &cfg);
                assert_eq!(
                    rotation_free(&set, k),
                    rotation_free(&reference, k),
                    "{what} walk_cap={walk_cap}"
                );
            }
        }
    }

    #[test]
    fn claims_hold_on_real_threads() {
        // 32 ranks on up to 8 OS threads race their claim walks for real:
        // whatever the interleaving, every vertex is claimed and the
        // contigs are the reference's.
        let k = 21;
        let repeat = lcg_genome(60, 77);
        let broken = [
            lcg_genome(900, 4),
            repeat.clone(),
            lcg_genome(900, 5),
            repeat,
        ]
        .concat();
        let mut circular = lcg_genome(900, 8);
        circular.extend_from_within(..80);
        let topo = Topology::new(32, 8);
        for genome in [lcg_genome(3000, 3), broken, circular] {
            let reads = perfect_reads(&genome, 80, 4);
            let (spectrum, _) =
                analyze_kmers(&Team::new(topo), &reads, &KmerAnalysisConfig::new(k));
            let reference = rotation_free(&endpoint_contigs(&Team::new(topo), &spectrum), k);
            for (threads, walk_cap) in [1, 2, 4, 8].into_iter().flat_map(|t| [(t, 8), (t, 2048)]) {
                let team = Team::new(topo).with_os_threads(threads);
                let (graph, _) = crate::graph::build_graph(&team, &spectrum, None);
                let cfg = ContigConfig {
                    walk_cap,
                    ..ContigConfig::default()
                };
                let (set, _) = traverse_graph(&team, &graph, &cfg);
                let at = format!(
                    "{} bases, {threads} thread(s), cap {walk_cap}",
                    genome.len()
                );
                let visited = |(_, n): (&Kmer, &GraphNode)| n.visited.load(Ordering::Relaxed);
                assert!(graph.nodes.iter().all(visited), "unclaimed vertex: {at}");
                assert_eq!(rotation_free(&set, k), reference, "{at}");
            }
        }
    }

    #[test]
    fn repeat_breaks_contigs() {
        // genome: U1 R U2 R U3 — the repeat R (longer than k) must fork the
        // graph and split contigs.
        let r = lcg_genome(60, 77);
        let mut genome = lcg_genome(800, 1);
        genome.extend_from_slice(&r);
        genome.extend(lcg_genome(800, 2));
        genome.extend_from_slice(&r);
        genome.extend(lcg_genome(800, 3));
        let set = assemble(&genome, Topology::new(2, 2));
        assert!(
            set.len() >= 3,
            "repeat must split the assembly, got {} contigs",
            set.len()
        );
        // No contig may span across the repeat boundary of two unique
        // regions: every contig still aligns to the genome.
        let rc = hipmer_dna::revcomp(&genome);
        for c in &set.contigs {
            let hit = genome.windows(c.len()).any(|w| w == &c.seq[..])
                || rc.windows(c.len()).any(|w| w == &c.seq[..]);
            assert!(hit, "chimeric contig of length {}", c.len());
        }
    }

    #[test]
    fn circular_genome_is_recovered_by_cycle_pass() {
        // Build a perfectly circular coverage pattern: reads wrap around.
        let mut genome = lcg_genome(600, 9);
        let wrap = genome.clone();
        genome.extend_from_slice(&wrap[..80]); // linearized circle overlap
        let team = Team::new(Topology::new(2, 2));
        let reads = perfect_reads(&genome, 80, 4);
        let kcfg = KmerAnalysisConfig::new(21);
        let (spectrum, _) = analyze_kmers(&team, &reads, &kcfg);
        let (set, _) = generate_contigs(&team, &spectrum, &ContigConfig::default());
        // The wrapped genome has no endpoints at the junction, so without
        // the cycle pass part of it would vanish. Total assembled bases
        // must be close to the circle length.
        assert!(
            set.total_bases() + 150 > 600,
            "cycle pass lost sequence: {} bases",
            set.total_bases()
        );
    }

    #[test]
    fn oracle_placement_preserves_contigs_and_cuts_offnode_traffic() {
        let genome = lcg_genome(4000, 101);
        let topo = Topology::new(8, 2); // 4 nodes -> plenty of off-node
        let team = Team::new(topo);
        let reads = perfect_reads(&genome, 80, 4);
        let kcfg = KmerAnalysisConfig::new(21);
        let (spectrum, _) = analyze_kmers(&team, &reads, &kcfg);

        // Baseline.
        let ccfg = ContigConfig::default();
        let (base_set, base_reports) = generate_contigs(&team, &spectrum, &ccfg);

        // Oracle built from the baseline contigs.
        let oracle = crate::oracle_build::build_oracle(&base_set, &topo, 1 << 16);
        let ocfg = ContigConfig {
            oracle: Some(Arc::new(oracle)),
            ..ContigConfig::default()
        };
        let (oracle_set, oracle_reports) = generate_contigs(&team, &spectrum, &ocfg);

        let seqs =
            |s: &ContigSet| -> Vec<Vec<u8>> { s.contigs.iter().map(|c| c.seq.clone()).collect() };
        assert_eq!(seqs(&base_set), seqs(&oracle_set), "same contigs");

        let offnode = |reports: &[PhaseReport]| -> f64 {
            reports
                .iter()
                .find(|r| r.name.contains("traversal"))
                .unwrap()
                .offnode_fraction()
        };
        let base_frac = offnode(&base_reports);
        let oracle_frac = offnode(&oracle_reports);
        assert!(
            oracle_frac < base_frac * 0.5,
            "oracle must slash off-node lookups: {oracle_frac:.3} vs {base_frac:.3}"
        );
    }

    #[test]
    #[should_panic(expected = "odd k")]
    fn even_k_is_rejected() {
        let topo = Topology::new(1, 1);
        let team = Team::new(topo);
        let codec = hipmer_dna::KmerCodec::new(4);
        let graph = DebruijnGraph {
            nodes: hipmer_pgas::DistHashMap::new(topo).freeze(),
            codec,
        };
        let cfg = ContigConfig::default();
        let _ = traverse_graph(&team, &graph, &cfg);
    }
}
