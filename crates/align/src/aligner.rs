//! The seed-and-extend alignment driver.
//!
//! Communication structure (merAligner §4.4): each rank resolves its
//! reads' seeds in two batched gathers (stage 1), each one
//! [`FrozenMap::multi_get`] over the distinct keys the rank has not
//! resolved yet, remembered in a per-rank memo so that no key is fetched
//! twice. It then runs the candidate-clustering and extension logic per
//! read on the resolved entries (stage 2) with a [`SoftwareCache`] of contig
//! replicas. Both optimizations are result-transparent: alignments are
//! byte-identical to one `get` per seed and one contig fetch per
//! candidate, at fewer messages.
//!
//! Stage 1 resolves each read's *anchor*, its first stride seed, before any
//! other seed. A read whose anchor occurs once in the contig set, and which
//! equals that contig base for base over a window in which no seed is
//! shared ([`SeedIndex::shares_a_seed`]), takes the **exact-match
//! shortcut**: every one of its seeds would resolve to that one contig, on
//! that one diagonal, so full resolution would return exactly the
//! alignment the shortcut emits. Only the other reads resolve their
//! remaining seeds, in the second gather.
//!
//! Stage 2 goes block by block (`BLOCK` reads): *plan* each read's top
//! candidates up to the ungapped test, *batch* every gapped fallback of
//! the block through one [`banded_sw_batch_with`], sixteen alignments to
//! a SIMD pass, then *finish* each read with the candidate loop itself.
//! Only the finish touches the contig replica cache and charges compute,
//! in candidate order up to the read's last accepted alignment, so every
//! counter is what a read-at-a-time loop gives.
//!
//! [`FrozenMap::multi_get`]: hipmer_pgas::FrozenMap::multi_get

use crate::index::{build_seed_index, SeedEntry, SeedIndex};
use crate::sw::{banded_sw_batch_with, ungapped_matches, SwParams, SwResult, SwWorkspace};
use hipmer_contig::ContigSet;
use hipmer_dna::{complement_ascii, is_acgt, mix128, Kmer, KmerCodec, KmerHashMap};
use hipmer_pgas::{PhaseReport, RankCtx, SoftwareCache, Team};
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
/// stretch at the simulated 0.5 % substitution rate
/// (`ErrorModel::illumina`).
const SEED_STRIDE: usize = 4;
/// Minimum identity (matches / aligned length) to keep an alignment.
const MIN_IDENTITY: f64 = 0.92;
/// Minimum aligned length to keep an alignment (two seed lengths).
const MIN_ALIGNED: usize = 30;
/// Keep at most this many alignments per read (best first); twice as many
/// candidates are extended to find them.
const MAX_ALIGNMENTS_PER_READ: usize = 4;
/// Capacity of the per-rank contig replica cache: a few hundred KB per
/// rank.
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

/// One stride-selected seed of a read with its resolved index entry.
#[derive(Clone, Copy)]
struct ResolvedSeed<'a> {
    /// Seed position in the read (forward coordinates).
    rpos: u32,
    /// Canonical seed appears reverse-complemented in the read.
    read_rc: bool,
    /// Canonical seed k-mer (the index key).
    canon: Kmer,
    /// The index entry, once resolved (`None` = seed absent from the
    /// index).
    entry: Option<&'a SeedEntry>,
}

impl ResolvedSeed<'_> {
    fn new((rpos, km, canon): (usize, Kmer, Kmer)) -> Self {
        ResolvedSeed {
            rpos: rpos as u32,
            read_rc: canon != km,
            canon,
            entry: None,
        }
    }
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

/// Overwrite `out` with the reverse complement of `seq`.
fn revcomp_into(out: &mut Vec<u8>, seq: &[u8]) {
    out.clear();
    out.extend(seq.iter().rev().map(|&b| complement_ascii(b)));
}

/// Touch contig `id`'s replica through the per-rank cache. A miss fetches
/// the whole contig once from its owner (cyclic by id): one message of its
/// `len` bases plus the ⌈len/8⌉ bytes of its shared-seed bits. Every later
/// access is served from the local replica.
fn fetch_replica(ctx: &mut RankCtx, cache: &mut SoftwareCache<u32, ()>, id: u32, len: usize) {
    if cache.get(ctx, &id).is_none() {
        let owner = id as usize % ctx.topo().ranks();
        ctx.access(owner, (len + len.div_ceil(8)) as u64);
        cache.insert(id, ());
    }
}

/// The reads of a rank that stage 2 aligns, with their resolved stride
/// seeds stored flat, read after read.
struct Resolved<'a> {
    /// Read indices, ascending.
    ids: Vec<u32>,
    /// Every read's stride seeds, anchor first.
    seeds: Vec<ResolvedSeed<'a>>,
    /// `seeds[bounds[i]..bounds[i + 1]]` are `ids[i]`'s seeds.
    bounds: Vec<usize>,
}

impl<'a> Resolved<'a> {
    fn seeds_of(&self, i: usize) -> &[ResolvedSeed<'a>] {
        &self.seeds[self.bounds[i]..self.bounds[i + 1]]
    }
}

/// Stage 1: resolve the rank's reads (`read_ids`, indices into `reads`)
/// anchor first. Reads that take the exact-match shortcut append their one
/// alignment to `out`; the rest come back with every stride seed resolved.
///
/// Two [`Memo::gather`]s: every read's anchor, then the declined reads'
/// other seeds. Each fetches the distinct keys the rank has not resolved
/// yet with one [`FrozenMap::multi_get`], so seeds from different reads
/// that hash to the same owner share a message, and no key is fetched
/// twice. Results equal per-seed [`FrozenMap::get`]s; only the message
/// accounting differs. A resolved seed points into the frozen index: no
/// entry is copied.
///
/// [`FrozenMap::get`]: hipmer_pgas::FrozenMap::get
/// [`FrozenMap::multi_get`]: hipmer_pgas::FrozenMap::multi_get
fn resolve_seeds<'a>(
    ctx: &mut RankCtx,
    index: &'a SeedIndex,
    contigs: &ContigSet,
    reads: &[SeqRecord],
    read_ids: &[u32],
    contig_cache: &mut SoftwareCache<u32, ()>,
    out: &mut Vec<Alignment>,
) -> Resolved<'a> {
    let codec = &index.codec;
    let mut rc = Vec::new();
    let mut memo = Memo::default();

    let mut anchors: Vec<Option<ResolvedSeed>> = (read_ids.iter())
        .map(|&ri| {
            stride_seeds(codec, &reads[ri as usize].seq)
                .next()
                .map(ResolvedSeed::new)
        })
        .collect();
    let entries = memo.gather(ctx, index, anchors.iter().flatten().map(|a| a.canon));
    for (anchor, entry) in anchors.iter_mut().flatten().zip(entries) {
        anchor.entry = entry;
    }

    // The shortcut, read by read; a read it takes drops its anchor.
    for (&ri, slot) in read_ids.iter().zip(&mut anchors) {
        let Some(anchor) = slot else {
            continue;
        };
        let read = &reads[ri as usize];
        if let Some(a) =
            exact_shortcut(ctx, index, contigs, read, ri, anchor, contig_cache, &mut rc)
        {
            out.push(a);
            *slot = None;
        }
    }

    // Every other read with a seed resolves the rest of its seeds. A read
    // of length `len` has at most ⌈(len − k + 1) / SEED_STRIDE⌉ of them.
    let declined =
        || (read_ids.iter().zip(&anchors)).filter_map(|(&ri, a)| Some((ri, a.as_ref()?)));
    let bound = declined()
        .map(|(ri, _)| (reads[ri as usize].seq.len() + 1 - codec.k()).div_ceil(SEED_STRIDE))
        .sum();
    let mut rest = Resolved {
        ids: Vec::with_capacity(declined().count()),
        seeds: Vec::with_capacity(bound),
        bounds: vec![0],
    };
    for (ri, anchor) in declined() {
        rest.ids.push(ri);
        rest.seeds.push(*anchor);
        let others = stride_seeds(codec, &reads[ri as usize].seq).skip(1);
        rest.seeds.extend(others.map(ResolvedSeed::new));
        rest.bounds.push(rest.seeds.len());
    }
    let others = (rest.seeds.iter().enumerate()).filter(not_an_anchor(&rest.bounds));
    let entries = memo.gather(ctx, index, others.map(|(_, s)| s.canon));
    let others = (rest.seeds.iter_mut().enumerate()).filter(not_an_anchor(&rest.bounds));
    for ((_, seed), entry) in others.zip(entries) {
        seed.entry = entry;
    }
    rest
}

/// A filter over `(position, seed)` of [`Resolved::seeds`], visited in
/// order, that drops each read's anchor: the seed at its bound.
fn not_an_anchor<T>(bounds: &[usize]) -> impl FnMut(&(usize, T)) -> bool + '_ {
    let mut anchors = bounds.iter().copied().peekable();
    move |&(i, _)| anchors.next_if_eq(&i).is_none()
}

/// The seeds a rank has resolved in stage 1: each distinct key once, with
/// its index entry, absent seeds too. It lives for stage 1 only and holds at
/// most the rank's stride seeds, so it needs no capacity bound.
///
/// The keys sit in a `Vec` that is also the fetch list, reached through an
/// open-addressed table of `u32` positions: a rank holds tens of thousands
/// of distinct seeds, and a `KmerHashMap<Kmer, _>` entry pads to 32 bytes.
#[derive(Default)]
struct Memo<'a> {
    /// Linear probing, at most half full: 0 is empty, `i + 1` names
    /// `keys[i]`. The length is a power of two.
    slots: Vec<u32>,
    /// The distinct keys, in fetch order.
    keys: Vec<Kmer>,
    /// The index entries of `keys`.
    answers: Vec<Option<&'a SeedEntry>>,
}

impl<'a> Memo<'a> {
    /// One gather: the index entry of each of `keys`, in order. The keys the
    /// memo lacks are fetched, each once, with one [`FrozenMap::multi_get`]
    /// (one message per owner). A key the memo holds, or that this gather
    /// already fetches, is billed as a `cache_hits`; a fetched key as a
    /// `cache_misses`.
    ///
    /// [`FrozenMap::multi_get`]: hipmer_pgas::FrozenMap::multi_get
    fn gather(
        &mut self,
        ctx: &mut RankCtx,
        index: &'a SeedIndex,
        keys: impl Iterator<Item = Kmer>,
    ) -> impl Iterator<Item = Option<&'a SeedEntry>> + '_ {
        let known = self.keys.len();
        let at: Vec<u32> = keys
            .map(|key| {
                let (i, new) = self.find_or_add(key);
                if new {
                    ctx.stats.cache_misses += 1;
                } else {
                    ctx.stats.cache_hits += 1;
                }
                i
            })
            .collect();
        self.answers
            .extend(index.table.multi_get(ctx, &self.keys[known..]));
        at.into_iter().map(|i| self.answers[i as usize])
    }

    /// `key`'s position in `keys`, appended if absent, and whether it was.
    fn find_or_add(&mut self, key: Kmer) -> (u32, bool) {
        if 2 * (self.keys.len() + 1) > self.slots.len() {
            let mut slots = vec![0; (2 * self.slots.len()).max(1 << 10)];
            for (i, k) in self.keys.iter().enumerate() {
                let at = probe(&slots, &self.keys, *k);
                slots[at] = i as u32 + 1;
            }
            self.slots = slots;
        }
        let at = probe(&self.slots, &self.keys, key);
        match self.slots[at] {
            0 => {
                self.keys.push(key);
                self.slots[at] = self.keys.len() as u32;
                (self.slots[at] - 1, true)
            }
            i => (i - 1, false),
        }
    }
}

/// The slot of [`Memo::slots`] that holds `key`, or the empty one where it
/// would go.
fn probe(slots: &[u32], keys: &[Kmer], key: Kmer) -> usize {
    let mask = slots.len() - 1;
    let mut at = mix128(key.0) as usize & mask;
    while slots[at] != 0 && keys[slots[at] as usize - 1] != key {
        at = (at + 1) & mask;
    }
    at
}

/// The exact-match shortcut: the alignment full resolution gives `read`
/// if the read is all ACGT, its anchor occurs exactly once in the contig
/// set, and the read, oriented by that hit, equals contig C base for base
/// over a window `[c0, c0 + len)` in which no seed is shared. `None` means
/// resolve every seed.
///
/// Exact, not a heuristic: each stride seed of such a read is a k-mer of
/// C's window, found nowhere else, and points at C on the anchor's strand
/// and diagonal. So that is the read's only candidate; its overlap is the
/// whole read at identity 1, and full resolution emits the same one
/// alignment. C's replica is billed through `contig_cache` where the
/// bases are first read, and compute is charged for the compared span and,
/// when the shortcut is taken, for the anchor.
#[allow(clippy::too_many_arguments)]
fn exact_shortcut(
    ctx: &mut RankCtx,
    index: &SeedIndex,
    contigs: &ContigSet,
    read: &SeqRecord,
    read_idx: u32,
    anchor: &ResolvedSeed,
    contig_cache: &mut SoftwareCache<u32, ()>,
    rc_buf: &mut Vec<u8>,
) -> Option<Alignment> {
    let entry = anchor.entry.filter(|e| e.total == 1)?;
    let hit = index.hits(entry)[0];
    let len = read.seq.len();
    let k = index.codec.k();
    let rc = hit.rc != anchor.read_rc;
    // Where the read starts on C if the anchor is its first k bases, which
    // the all-ACGT test below makes sure of.
    let c0 = if rc {
        (hit.pos as usize + k).checked_sub(len)?
    } else {
        hit.pos as usize
    };
    let contig = &contigs.contigs[hit.contig as usize].seq;
    if len < MIN_ALIGNED
        || c0 + len > contig.len()
        || index.shares_a_seed(hit.contig, c0, c0 + len - k)
        || !read.seq.iter().all(|&b| is_acgt(b))
    {
        return None;
    }
    fetch_replica(ctx, contig_cache, hit.contig, contig.len());
    ctx.stats.compute(len as u64);
    let oriented = if rc {
        revcomp_into(rc_buf, &read.seq);
        &rc_buf[..]
    } else {
        &read.seq[..]
    };
    if ungapped_matches(oriented, &contig[c0..c0 + len]).0 != len {
        return None;
    }
    ctx.stats.compute(1);
    Some(Alignment {
        read: read_idx,
        contig: hit.contig,
        read_start: 0,
        read_end: len as u32,
        contig_start: c0 as u32,
        contig_end: (c0 + len) as u32,
        rc,
        matches: len as u32,
        read_len: len as u32,
    })
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

/// A read's stage-2 plan. Its buffers outlive the read: a rank keeps one
/// plan per slot of a block and refills it block after block.
#[derive(Default)]
struct ReadPlan {
    /// Resolved seeds found in the index: one compute op each.
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

/// A rank's stage-2 buffers, cleared per read instead of allocated per
/// read.
#[derive(Default)]
struct Scratch {
    /// A read's candidates and their support.
    candidates: KmerHashMap<Candidate, u32>,
    /// The same, best-supported first.
    ordered: Vec<(Candidate, u32)>,
    /// One plan per read of a block.
    plans: Vec<ReadPlan>,
}

/// Stage 2, plan: cluster one read's resolved seeds into candidates and
/// take each of the top `2 · MAX_ALIGNMENTS_PER_READ` as far as it goes
/// without the contig replica cache — orientation, clipping and the
/// ungapped diagonal — into `plan`. A gapped fallback the diagonal needs
/// gets the next index of `jobs`.
fn plan_read(
    index: &SeedIndex,
    contigs: &ContigSet,
    read: &SeqRecord,
    seeds: &[ResolvedSeed],
    jobs: &mut usize,
    (candidates, ordered): (&mut KmerHashMap<Candidate, u32>, &mut Vec<(Candidate, u32)>),
    plan: &mut ReadPlan,
) {
    // Sorted in full below, so the map's order, and with it the order of a
    // seed's hits, never reaches the output; drained there, so it starts
    // every read empty. A repeat seed has no hits.
    let codec = &index.codec;
    let mut listed_seeds = 0;
    for seed in seeds {
        let Some(entry) = seed.entry else {
            continue;
        };
        listed_seeds += 1;
        for hit in index.hits(entry) {
            // Strand of the read relative to the contig: the seed is RC'd
            // in the contig (hit.rc) and/or in the read (read_rc).
            let rc = hit.rc != seed.read_rc;
            let diag = if rc {
                // On the reverse strand the read position counts from the
                // read's end.
                hit.pos as i64 + (seed.rpos as usize + codec.k()) as i64
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
    ordered.clear();
    ordered.extend(candidates.drain());
    ordered.sort_by(|a, b| {
        b.1.cmp(&a.1).then_with(|| {
            let ka = (a.0.contig, a.0.rc as u8, a.0.diag);
            let kb = (b.0.contig, b.0.rc as u8, b.0.diag);
            ka.cmp(&kb)
        })
    });
    ordered.truncate(2 * MAX_ALIGNMENTS_PER_READ);

    plan.listed_seeds = listed_seeds;
    plan.rc.clear();
    plan.candidates.clear();
    if ordered.iter().any(|(cand, _)| cand.rc) {
        revcomp_into(&mut plan.rc, &read.seq);
    }
    for &(cand, _support) in ordered.iter() {
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
        fetch_replica(ctx, contig_cache, cand.contig, contig.seq.len());
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

/// Stage 2 over one block of a rank's reads (`block`, positions in
/// `resolved`): plan every read, align the block's gapped fallbacks in one
/// batch, then finish every read in order, appending to `out` read by
/// read.
#[allow(clippy::too_many_arguments)]
fn align_block(
    ctx: &mut RankCtx,
    index: &SeedIndex,
    contigs: &ContigSet,
    reads: &[SeqRecord],
    (resolved, block): (&Resolved, std::ops::Range<usize>),
    contig_cache: &mut SoftwareCache<u32, ()>,
    sw_ws: &mut SwWorkspace,
    scratch: &mut Scratch,
    out: &mut Vec<Alignment>,
) {
    let read_ids = &resolved.ids[block.clone()];
    let Scratch {
        candidates,
        ordered,
        plans,
    } = scratch;
    if plans.len() < read_ids.len() {
        plans.resize_with(read_ids.len(), ReadPlan::default);
    }
    let plans = &mut plans[..read_ids.len()];
    let mut n_jobs = 0;
    for ((i, &ri), plan) in block.zip(read_ids).zip(plans.iter_mut()) {
        let read = &reads[ri as usize];
        let seeds = resolved.seeds_of(i);
        plan_read(
            index,
            contigs,
            read,
            seeds,
            &mut n_jobs,
            (candidates, ordered),
            plan,
        );
    }
    let mut jobs: Vec<(&[u8], &[u8])> = Vec::with_capacity(n_jobs);
    for (&ri, plan) in read_ids.iter().zip(plans.iter()) {
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
    for (&ri, plan) in read_ids.iter().zip(plans.iter()) {
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
        let mut scratch = Scratch::default();
        let mut out = Vec::new();
        let read_ids = &subset[ctx.chunk(subset.len())];
        // Stage 1: every read's anchor, then the shortcut or the read's
        // other seeds, in two batched gathers.
        let resolved = resolve_seeds(
            ctx,
            &index,
            contigs,
            reads,
            read_ids,
            &mut contig_cache,
            &mut out,
        );
        // Stage 2: candidate clustering and extension on resolved seeds,
        // block by block, with contig replicas cached per rank.
        for lo in (0..resolved.ids.len()).step_by(BLOCK) {
            let block = lo..(lo + BLOCK).min(resolved.ids.len());
            align_block(
                ctx,
                &index,
                contigs,
                reads,
                (&resolved, block),
                &mut contig_cache,
                &mut sw_ws,
                &mut scratch,
                &mut out,
            );
        }
        // The rank's reads are one ascending range of `subset`, so its
        // sorted alignments are a run of the sorted whole.
        sort_alignments(&mut out);
        out
    });
    index.table.record_entries(&mut stats);
    let alignments = chunks.concat();
    debug_assert!(alignments.is_sorted_by_key(|a| a.read));
    (
        alignments,
        vec![
            index_report,
            PhaseReport::new("scaffold/meraligner-align", *team.topo(), stats),
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
        // Overlapping reads so seeds repeat across reads (memo fodder),
        // each with one substitution so that none takes the exact-match
        // shortcut and every seed goes through both gathers.
        let reads: Vec<SeqRecord> = (0..30)
            .map(|i| {
                let mut seq = genome[i * 20..i * 20 + 100].to_vec();
                seq[60] = if seq[60] == b'A' { b'C' } else { b'A' };
                read(&format!("r{i}"), seq)
            })
            .collect();
        let topo = Topology::new(6, 3);
        let team = Team::new(topo);
        let (alns, reports) = align_reads(&team, &contigs, &reads, &AlignConfig::new(15));
        let full = reports
            .iter()
            .find(|r| r.name == "scaffold/meraligner-align")
            .unwrap()
            .totals();
        assert_eq!(alns.len(), reads.len());

        // Exactly what one `get` per seed and one contig read per candidate
        // give.
        let (index, _) = build_seed_index(&team, &contigs, 15);
        let mut want: Vec<Alignment> = (0..reads.len() as u32)
            .flat_map(|ri| full_resolution(&index, &contigs, &reads, ri))
            .collect();
        sort_alignments(&mut want);
        assert_eq!(alns, want);

        // One `get` per seed would take one access per seed. Each rank's two
        // gathers ship at most one message per owner, and the memo and the
        // contig replica cache record their work.
        let codec = KmerCodec::new(15);
        let seeds: usize = reads
            .iter()
            .map(|r| stride_seeds(&codec, &r.seq).count())
            .sum();
        assert!(full.total_accesses() < seeds as u64);
        assert!(full.lookup_batches > 0);
        assert!(full.lookup_batches <= 2 * (topo.ranks() * topo.ranks()) as u64);
        assert!(full.cache_hits > 0);
        assert!(full.cache_misses > 0);
    }

    #[test]
    fn a_rank_fetches_each_distinct_seed_once() {
        // Ten copies of each of twelve overlapping windows, each copy with a
        // substitution of its own: no read takes the shortcut, and most
        // seeds recur within a gather and across the two.
        let genome = lcg(600, 53);
        let contigs = one_contig_set(genome.clone());
        let reads: Vec<SeqRecord> = (0..120)
            .map(|i| {
                let start = (i % 12) * 20;
                let mut seq = genome[start..start + 100].to_vec();
                let p = 20 + (i / 12) * 7;
                seq[p] = if seq[p] == b'A' { b'C' } else { b'A' };
                read(&format!("r{i}"), seq)
            })
            .collect();
        let team = Team::new(Topology::new(1, 1));
        let (alns, reports) = align_reads(&team, &contigs, &reads, &AlignConfig::new(15));
        assert_eq!(alns.len(), reads.len());
        let t = reports
            .iter()
            .find(|r| r.name == "scaffold/meraligner-align")
            .unwrap()
            .totals();

        let codec = KmerCodec::new(15);
        let seeds: Vec<Kmer> = (reads.iter())
            .flat_map(|r| stride_seeds(&codec, &r.seq).map(|(_, _, canon)| canon))
            .collect();
        let distinct: hipmer_dna::KmerHashSet<Kmer> = seeds.iter().copied().collect();
        assert!(distinct.len() * 4 < seeds.len());
        // The keys billed are the distinct keys, in one batch per gather;
        // the one other miss is the contig's replica.
        assert_eq!(t.cache_misses, distinct.len() as u64 + 1);
        assert_eq!(t.lookup_batches, 2);
    }

    /// Stage 1 and 2 for one read with every stride seed looked up: the
    /// full resolution the exact-match shortcut must agree with.
    fn full_resolution(
        index: &SeedIndex,
        contigs: &ContigSet,
        reads: &[SeqRecord],
        ri: u32,
    ) -> Vec<Alignment> {
        let mut ctx = RankCtx::new(0, Topology::new(1, 1));
        let seeds: Vec<ResolvedSeed> = stride_seeds(&index.codec, &reads[ri as usize].seq)
            .map(|s| {
                let mut seed = ResolvedSeed::new(s);
                seed.entry = index.table.get(&mut ctx, &seed.canon);
                seed
            })
            .collect();
        let resolved = Resolved {
            ids: vec![ri],
            bounds: vec![0, seeds.len()],
            seeds,
        };
        let mut out = Vec::new();
        align_block(
            &mut ctx,
            index,
            contigs,
            reads,
            (&resolved, 0..1),
            &mut SoftwareCache::new(CACHE_ENTRIES),
            &mut SwWorkspace::new(),
            &mut Scratch::default(),
            &mut out,
        );
        out
    }

    /// The shortcut's answer for one read: `None` if it declines (or the
    /// read has no seed).
    fn shortcut(
        index: &SeedIndex,
        contigs: &ContigSet,
        reads: &[SeqRecord],
        ri: u32,
    ) -> Option<Alignment> {
        let mut ctx = RankCtx::new(0, Topology::new(1, 1));
        let read = &reads[ri as usize];
        let mut anchor = ResolvedSeed::new(stride_seeds(&index.codec, &read.seq).next()?);
        anchor.entry = index.table.get(&mut ctx, &anchor.canon);
        let mut cache = SoftwareCache::new(CACHE_ENTRIES);
        exact_shortcut(
            &mut ctx,
            index,
            contigs,
            read,
            ri,
            &anchor,
            &mut cache,
            &mut Vec::new(),
        )
    }

    #[test]
    fn exact_read_in_a_unique_window_takes_the_shortcut() {
        let genome = lcg(500, 41);
        let contigs = one_contig_set(genome.clone());
        let team = Team::new(Topology::new(2, 2));
        let (index, _) = build_seed_index(&team, &contigs, 15);
        let reads = [
            read("fwd", genome[100..201].to_vec()),
            read("rev", revcomp(&genome[300..401])),
        ];
        for ri in 0..2 {
            let a = shortcut(&index, &contigs, &reads, ri).expect("shortcut taken");
            assert_eq!(full_resolution(&index, &contigs, &reads, ri), [a]);
            assert_eq!((a.read_start, a.read_end, a.matches), (0, 101, 101));
        }
        let (alns, _) = align_reads(&team, &contigs, &reads, &AlignConfig::new(15));
        assert_eq!(alns.len(), 2);
        assert_eq!((alns[1].contig_start, alns[1].rc), (300, true));
    }

    #[test]
    fn exact_read_sharing_one_seed_with_another_contig_is_resolved_in_full() {
        // Contig B carries one 15-mer of contig A's window [100, 200).
        let a = lcg(300, 43);
        let mut b = lcg(200, 47);
        b.splice(90..90, a[150..165].iter().copied());
        let contigs = ContigSet::from_sequences(KmerCodec::new(21), vec![a.clone(), b]);
        let team = Team::new(Topology::new(2, 2));
        let (index, _) = build_seed_index(&team, &contigs, 15);
        let reads = [read("r", a[100..200].to_vec())];
        assert_eq!(contigs.contigs[0].seq, a);
        assert!(index.shares_a_seed(0, 150, 150));
        assert!(index.shares_a_seed(0, 100, 185));
        assert!(!index.shares_a_seed(0, 100, 149));
        assert_eq!(shortcut(&index, &contigs, &reads, 0), None);
        // Full resolution still finds the read, once, full length.
        let full = full_resolution(&index, &contigs, &reads, 0);
        assert_eq!(full.len(), 1, "{full:?}");
        assert_eq!(
            (full[0].contig, full[0].contig_start, full[0].matches),
            (0, 100, 100)
        );
    }

    /// Draws `below(n)` from a splitmix64 stream.
    struct Draw(u64);

    impl Draw {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// Contigs with planted shared blocks: neighbours that overlap by
    /// k − 1 = 20 bases, a 40-base block copied into another contig, and a
    /// reverse-complemented 30-base block.
    fn planted_contigs(d: &mut Draw) -> Vec<Vec<u8>> {
        let n = 3 + d.below(4);
        let mut seqs: Vec<Vec<u8>> = (0..n)
            .map(|_| lcg(120 + d.below(300), d.below(1 << 30) as u64))
            .collect();
        for i in 1..n {
            if d.below(2) == 0 {
                let prev = &seqs[i - 1];
                let tail = prev[prev.len() - 20..].to_vec();
                seqs[i].splice(0..0, tail);
            }
        }
        let (from, to) = (d.below(n), d.below(n));
        let at = d.below(seqs[from].len() - 40);
        let block = seqs[from][at..at + 40].to_vec();
        let into = d.below(seqs[to].len());
        seqs[to].splice(into..into, block);
        let (from, to) = (d.below(n), d.below(n));
        let at = d.below(seqs[from].len() - 30);
        let block = revcomp(&seqs[from][at..at + 30]);
        let into = d.below(seqs[to].len());
        seqs[to].splice(into..into, block);
        seqs
    }

    proptest::proptest! {
        #[test]
        fn shortcut_agrees_with_full_resolution(
            seed in proptest::prelude::any::<u64>(),
            seed_len in proptest::prelude::prop::sample::select(&[15usize, 12][..]),
        ) {
            let mut d = Draw(seed);
            let contigs = ContigSet::from_sequences(KmerCodec::new(21), planted_contigs(&mut d));
            let team = Team::new(Topology::new(3, 2));
            let (index, _) = build_seed_index(&team, &contigs, seed_len);
            let codec = KmerCodec::new(seed_len);

            // The bits against a brute-force count; a seed that is its own
            // reverse complement counts once per strand.
            let mut counts: KmerHashMap<Kmer, u32> = KmerHashMap::default();
            for c in &contigs.contigs {
                for (_, km, canon) in codec.canonical_kmers(&c.seq) {
                    *counts.entry(canon).or_insert(0) += 1 + (codec.revcomp(km) == km) as u32;
                }
            }
            let shared_at = |c: usize, p: usize| {
                let seq = &contigs.contigs[c].seq;
                let km = codec.pack(&seq[p..p + seed_len]).unwrap();
                counts[&codec.canonical(km)] >= 2
            };
            for (c, contig) in contigs.contigs.iter().enumerate() {
                for p in 0..=contig.seq.len() - seed_len {
                    proptest::prop_assert_eq!(index.shares_a_seed(c as u32, p, p), shared_at(c, p));
                }
                let (lo, len) = (d.below(contig.seq.len() - seed_len), d.below(200));
                let hi = (lo + len).min(contig.seq.len() - seed_len);
                proptest::prop_assert_eq!(
                    index.shares_a_seed(c as u32, lo, hi),
                    (lo..=hi).any(|p| shared_at(c, p))
                );
            }

            // Reads: exact, one substitution, overhanging a contig end,
            // carrying an `N`; each on either strand.
            let mut reads = Vec::new();
            let mut unique_exact = Vec::new();
            for i in 0..24 {
                let c = d.below(contigs.len());
                let seq = &contigs.contigs[c].seq;
                let len = (30 + d.below(90)).min(seq.len());
                let start = d.below(seq.len() - len + 1);
                let mut r = seq[start..start + len].to_vec();
                let kind = d.below(4);
                match kind {
                    1 => {
                        let p = d.below(len);
                        r[p] = if r[p] == b'A' { b'G' } else { b'A' };
                    }
                    2 => {
                        let cut = d.below(len - 15);
                        r.truncate(len - cut);
                        r.extend(lcg(cut, d.below(1 << 30) as u64));
                    }
                    3 => r[d.below(len)] = b'N',
                    _ => {}
                }
                if kind == 0 && (start..=start + len - seed_len).all(|p| !shared_at(c, p)) {
                    unique_exact.push(i);
                }
                if d.below(2) == 1 {
                    r = revcomp(&r);
                }
                reads.push(read(&format!("r{i}"), r));
            }
            for ri in 0..reads.len() as u32 {
                let full = full_resolution(&index, &contigs, &reads, ri);
                match shortcut(&index, &contigs, &reads, ri) {
                    Some(a) => proptest::prop_assert_eq!(full, vec![a]),
                    None => proptest::prop_assert!(!unique_exact.contains(&ri)),
                }
            }
            // The pipeline's answer, shortcut and all, is full resolution's.
            let (alns, _) = align_reads(&team, &contigs, &reads, &AlignConfig::new(seed_len));
            let mut want: Vec<Alignment> = (0..reads.len() as u32)
                .flat_map(|ri| full_resolution(&index, &contigs, &reads, ri))
                .collect();
            sort_alignments(&mut want);
            proptest::prop_assert_eq!(alns, want);
        }
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
