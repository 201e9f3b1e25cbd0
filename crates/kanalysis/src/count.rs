//! Pass 2: exact counting with extension votes behind per-owner Bloom
//! filters, plus the heavy-hitter local-accumulation path, and the
//! finalization that turns the vote table into the spectrum.
//!
//! Every pass is generic over the vote table's key ([`KmerKey`]):
//! [`analyze_kmers`] runs them on [`Kmer64`] when k ≤ 32 and on
//! [`KmerPair`] otherwise, and `finalize` widens the survivors into the
//! `Kmer`-keyed spectrum. Either key hashes as its widened `Kmer`, so both
//! tables agree on every key's owner — what the shard-local merge into the
//! spectrum depends on.
//!
//! Every pass is generic over its input's records too (`R:
//! AsRef<SeqRecord>`): a multi-k round passes the reads and its
//! pseudo-reads as references instead of copying them.

use crate::config::KmerAnalysisConfig;
use crate::pass1::{sketch_pass, SketchResult};
use crate::spectrum::{KmerEntry, KmerSpectrum};
use hipmer_dna::{ExtCode, ExtVotes, Kmer, Kmer64, KmerCodec, KmerHashMap, KmerKey, KmerPair};
use hipmer_pgas::{DistHashMap, Exchange, FrozenMap, PhaseReport, Team};
use hipmer_seqio::SeqRecord;
use hipmer_sketch::BloomFilter;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Minimum exact count for a k-mer to be considered non-erroneous (§3.1:
/// "k-mers that appear fewer than two times are treated as erroneous").
pub const MIN_COUNT: u32 = 2;
/// Minimum Phred score for a neighboring base to cast an extension vote —
/// Meraculous' "high quality extensions" are quality ≥ 20.
pub const MIN_QUAL: u8 = 20;
/// Minimum votes for a base to be a high-quality extension candidate
/// (Meraculous convention, like [`MIN_COUNT`]: seen at least twice). A
/// `u8`, as the tally's saturating votes are: any threshold they can
/// decide exactly.
const MIN_VOTES: u8 = 2;
/// Bloom filter false-positive rate: a false positive only costs one table
/// entry that [`MIN_COUNT`] drops again, so the filter can be loose.
const BLOOM_FP_RATE: f64 = 0.05;

/// A vote digit: a base's 2-bit code if it may cast an extension vote,
/// else [`NO_VOTE`].
const NO_VOTE: u8 = 4;
/// The vote digit of each digit's complement base; "no vote" stays.
const COMPLEMENT: [u8; 5] = [3, 2, 1, 0, NO_VOTE];

/// Fill `digits` with one vote digit per base of `read`, between two
/// [`NO_VOTE`]s. A base may vote if it is ACGT and either its Phred
/// quality is at least [`MIN_QUAL`] or it has none (a record without
/// qualities, or past the end of a short quality string). The neighbours
/// of the occurrence at `off` are then `digits[off]` and
/// `digits[off + k + 1]`.
fn vote_digits(read: &SeqRecord, digits: &mut Vec<u8>) {
    let qual = read.qual.as_deref().unwrap_or_default();
    let (scored, unscored) = read.seq.split_at(qual.len().min(read.seq.len()));
    let digit = |b: u8| hipmer_dna::encode_base(b).unwrap_or(NO_VOTE);
    digits.clear();
    digits.push(NO_VOTE);
    digits.extend(scored.iter().zip(qual).map(|(&b, &q)| {
        let code = digit(b);
        if q.saturating_sub(33) >= MIN_QUAL {
            code
        } else {
            NO_VOTE
        }
    }));
    digits.extend(unscored.iter().map(|&b| digit(b)));
    digits.push(NO_VOTE);
}

/// Visit every k-mer occurrence of a read with the vote of its
/// quality-filtered neighbor bases, re-oriented to the canonical form: on
/// the reverse strand the sides swap and the bases complement. `digits` is
/// the caller's scratch buffer, refilled by [`vote_digits`] once per read.
fn for_each_occurrence<K, F>(codec: &KmerCodec, read: &SeqRecord, digits: &mut Vec<u8>, mut f: F)
where
    K: KmerKey,
    F: FnMut(K, ExtCode),
{
    let k = codec.k();
    vote_digits(read, digits);
    for (off, km, canon) in codec.canonical_keys::<K>(&read.seq) {
        let (left, right) = (digits[off], digits[off + k + 1]);
        // The strand is a coin flip per occurrence, which a branch would
        // mispredict half the time: form both codes and pick one.
        let forward = left * 5 + right;
        let reverse = COMPLEMENT[right as usize] * 5 + COMPLEMENT[left as usize];
        let byte = std::hint::select_unpredictable(km == canon, forward, reverse);
        f(canon, ExtCode::from_byte(byte));
    }
}

/// One owner's side of the count pass: its Bloom filter (none with the
/// filter off) and the first sightings the filter passed over, held until
/// every occurrence has arrived.
struct Owner<K> {
    bloom: Option<BloomFilter>,
    held: FirstSightings<K>,
}

impl<K: KmerKey> Owner<K> {
    /// Apply one batch of occurrences that arrived at owner `rank`, table
    /// first: an occurrence whose k-mer has an entry is recorded there and
    /// never asks the filter, which the entry's first occurrence already
    /// set. A miss inserts the k-mer into the filter: "maybe seen" creates
    /// the entry, a first sighting is held. Without a filter every miss
    /// creates its entry.
    fn arrive(
        &mut self,
        table: &DistHashMap<K, ExtVotes>,
        rank: usize,
        votes: &mut Vec<(K, ExtCode)>,
    ) {
        let Owner { bloom, held } = self;
        table.apply_batch(rank, votes.drain(..), ExtVotes::record_code, |&km, code| {
            let seen = bloom.as_mut().is_none_or(|b| {
                let wide: Kmer = km.into();
                b.insert(hipmer_dna::mix128(wide.bits()))
            });
            if !seen {
                held.push(km, code);
                return None;
            }
            let mut tally = ExtVotes::new();
            tally.record_code(code);
            Some(tally)
        });
    }

    /// Every occurrence is in: record the held sightings whose k-mer has an
    /// entry, drop the rest, and free the list and the filter. Returns how
    /// many were held and how many dropped (0 and 0 without a filter,
    /// which holds nothing).
    fn flush(&mut self, table: &DistHashMap<K, ExtVotes>, rank: usize) -> (u64, u64) {
        if self.bloom.take().is_none() {
            return (0, 0);
        }
        let held = self.held.len() as u64;
        let mut dropped = 0;
        table.apply_batch(rank, self.held.take(), ExtVotes::record_code, |_, _| {
            dropped += 1;
            None
        });
        (held, dropped)
    }
}

/// An owner's held first sightings, each its key packed at the codec's
/// wire width plus its vote byte: ⌈2k/8⌉ + 1 bytes (9 at k = 31) where a
/// `(K, ExtCode)` tuple takes 16 or 24.
struct FirstSightings<K> {
    bytes: Vec<u8>,
    key_bytes: usize,
    key: std::marker::PhantomData<K>,
}

impl<K: KmerKey> FirstSightings<K> {
    fn new(codec: &KmerCodec) -> Self {
        FirstSightings {
            bytes: Vec::new(),
            key_bytes: codec.wire_bytes() as usize,
            key: std::marker::PhantomData,
        }
    }

    fn len(&self) -> usize {
        self.bytes.len() / (self.key_bytes + 1)
    }

    fn push(&mut self, km: K, code: ExtCode) {
        let wide: Kmer = km.into();
        (self.bytes).extend_from_slice(&wide.bits().to_le_bytes()[..self.key_bytes]);
        self.bytes.push(code.to_byte());
    }

    /// Every held sighting in arrival order, and the list's memory with
    /// them. A key is read as one 16-byte little-endian load, masked to its
    /// width, wherever 16 bytes remain; only the last few records are
    /// copied out.
    fn take(&mut self) -> impl Iterator<Item = (K, ExtCode)> {
        let key_bytes = self.key_bytes;
        let mask = u128::MAX >> (128 - 8 * key_bytes);
        let bytes = std::mem::take(&mut self.bytes);
        (0..bytes.len() / (key_bytes + 1)).map(move |i| {
            let record = &bytes[i * (key_bytes + 1)..];
            let bits = match record.first_chunk::<16>() {
                Some(word) => u128::from_le_bytes(*word) & mask,
                None => {
                    let mut word = [0u8; 16];
                    word[..key_bytes].copy_from_slice(&record[..key_bytes]);
                    u128::from_le_bytes(word)
                }
            };
            (
                K::from_word(K::truncate(Kmer(bits))),
                ExtCode::from_byte(record[key_bytes]),
            )
        })
    }
}

/// The count pass: every (non-heavy) k-mer occurrence ships once, as its
/// k-mer plus one byte of votes, and its owner records it into the k-mer's
/// tally in place. Heavy hitters accumulate locally and reduce at the end.
///
/// The owner looks each occurrence up in its vote table first and records
/// it there if its k-mer has an entry. Otherwise it inserts the k-mer into
/// its Bloom filter: one the filter may have seen before creates the
/// entry at once, a first sighting is held. Once every occurrence has
/// arrived, the owner records its held sightings into the entries that
/// exist and drops the rest: the singletons — overwhelmingly sequencing
/// errors — never enter the table. A filter has no false negatives, so a
/// k-mer has at most one held occurrence, its first, and every occurrence
/// of a k-mer that has an entry is recorded exactly once. With the filter
/// off every occurrence is recorded at once.
///
/// Asking the table first changes no answer of the filter (DESIGN.md §1):
/// a k-mer with an entry is already in the filter, so the inserts it skips
/// would have set no bit.
///
/// Returns the phase's report and the first sightings held at its end,
/// summed over owners: their peak, since no owner's list shrinks before.
fn count_pass<K: KmerKey, R: AsRef<SeqRecord> + Sync>(
    team: &Team,
    reads: &[R],
    cfg: &KmerAnalysisConfig,
    sketch: &SketchResult<K>,
    table: &DistHashMap<K, ExtVotes>,
) -> (PhaseReport, u64) {
    count_pass_with(team, reads, cfg, sketch, table, Owner::arrive)
}

/// [`count_pass`] with `arrive` applying each batch at its owner.
fn count_pass_with<K, R, A>(
    team: &Team,
    reads: &[R],
    cfg: &KmerAnalysisConfig,
    sketch: &SketchResult<K>,
    table: &DistHashMap<K, ExtVotes>,
    arrive: A,
) -> (PhaseReport, u64)
where
    K: KmerKey,
    R: AsRef<SeqRecord> + Sync,
    A: Fn(&mut Owner<K>, &DistHashMap<K, ExtVotes>, usize, &mut Vec<(K, ExtCode)>) + Sync,
{
    let codec = KmerCodec::new(cfg.k);
    let topo = *team.topo();
    // Wire bytes: the packed 2k bits of the k-mer, not the in-memory key
    // word, plus what rides with it.
    let occurrences: Exchange<(K, ExtCode)> = Exchange::new(topo, cfg.agg_batch)
        .with_item_bytes(codec.wire_bytes() + ExtCode::WIRE_BYTES);
    // A rank's heavy-hitter partials go to each owner as one message.
    let partials: Exchange<(K, ExtVotes)> = Exchange::new(topo, usize::MAX >> 1)
        .with_item_bytes(codec.wire_bytes() + ExtVotes::WIRE_BYTES);
    let hh_local: Vec<Mutex<KmerHashMap<K, ExtVotes>>> =
        (0..topo.ranks()).map(|_| Mutex::default()).collect();
    // Per-owner Bloom filters sized from the cardinality estimate.
    let per_rank_items = ((sketch.cardinality / topo.ranks() as f64).ceil() as usize).max(1024);
    let owners: Vec<Mutex<Owner<K>>> = (0..topo.ranks())
        .map(|_| {
            Mutex::new(Owner {
                bloom: (cfg.use_bloom)
                    .then(|| BloomFilter::with_rate(per_rank_items, BLOOM_FP_RATE)),
                held: FirstSightings::new(&codec),
            })
        })
        .collect();
    let held_at_end = AtomicU64::new(0);

    let mut stats = team.run_supersteps("kmer-analysis/count", |ctx, step| {
        let rank = ctx.rank;
        let mut owner = owners[rank].lock();
        occurrences.deliver(rank, step, |_, votes| {
            arrive(&mut owner, table, rank, votes)
        });
        let all_arrived = occurrences.all_sent_before(step);
        if all_arrived {
            let (held, dropped) = owner.flush(table, rank);
            held_at_end.fetch_add(held, Ordering::Relaxed);
            // A dropped sighting is served here, as a recorded one is in
            // the table: one service op per delivered occurrence.
            ctx.stats.service_ops += dropped;
        }
        drop(owner);
        partials.deliver(rank, step, |_, tallies| {
            table.merge_batch(rank, tallies.drain(..), |a, b| a.merge(&b));
        });

        let mut hh_local = hh_local[rank].lock();
        let reads = &reads[ctx.chunk(reads.len())];
        let mut digits = Vec::new();
        let sent = occurrences.send(ctx, step, reads.len(), |ctx, i, post| {
            for_each_occurrence(&codec, reads[i].as_ref(), &mut digits, |canon: K, code| {
                ctx.stats.compute(1);
                if sketch.heavy_hitters.contains(&canon) {
                    // Local accumulation: no communication per occurrence.
                    hh_local.entry(canon).or_default().record_code(code);
                } else {
                    post.push(ctx, table.owner(&canon), (canon, code));
                }
            });
        });
        // Global reduction of heavy-hitter partials, once every occurrence
        // has shipped: one grouped message per owner holding this rank's
        // partial tallies (O(p) messages per heavy k-mer across the team
        // instead of O(count)).
        let reduced = occurrences.is_done(rank)
            && partials.send(ctx, step, 1, |ctx, _, post| {
                for (km, votes) in hh_local.drain() {
                    post.push(ctx, table.owner(&km), (km, votes));
                }
            });
        // Held sightings wait for the step in which every occurrence has
        // arrived, even if no rank posted in the step before it.
        sent || reduced || !all_arrived
    });
    table.drain_service_into(&mut stats);
    let report = PhaseReport::new("kmer-analysis/count", topo, stats);
    (report, held_at_end.into_inner())
}

/// Finalize: drop below-threshold k-mers, decide extensions, and build the
/// final spectrum (purely shard-local work) from the frozen vote table.
/// Each survivor is widened into the `Kmer` the spectrum is keyed by; it
/// hashes, and so is owned, as its vote-table key was.
fn finalize<K: KmerKey>(
    team: &Team,
    table: FrozenMap<K, ExtVotes>,
    final_table: &DistHashMap<Kmer, KmerEntry>,
) -> PhaseReport {
    let (_, mut stats) = team.run_named("kmer-analysis/finalize", |ctx| {
        let keep: Vec<(Kmer, KmerEntry)> = (table.scan_local(ctx))
            .filter(|(_, votes)| votes.count >= MIN_COUNT)
            .map(|(&km, votes)| {
                let exts = votes.decide(MIN_VOTES);
                let entry = KmerEntry {
                    count: votes.count,
                    exts,
                };
                (km.into(), entry)
            })
            .collect();
        // Same key, same placement: the batch lands in this rank's shard.
        final_table.merge_batch(ctx.rank, keep, |_a, _b| {});
    });
    final_table.drain_service_into(&mut stats);
    PhaseReport::new("kmer-analysis/finalize", *team.topo(), stats)
}

/// Run complete k-mer analysis over `reads`: sketch pass, count pass,
/// finalize. Returns the spectrum and one report per phase.
///
/// The passes key their tables by one machine word, [`Kmer64`], when k
/// fits it and by two, [`KmerPair`], otherwise; the spectrum is
/// `Kmer`-keyed either way, and nothing but memory and time tells the key
/// types apart. `reads` may hold the records or references to them.
pub fn analyze_kmers<R: AsRef<SeqRecord> + Sync>(
    team: &Team,
    reads: &[R],
    cfg: &KmerAnalysisConfig,
) -> (KmerSpectrum, Vec<PhaseReport>) {
    let (spectrum, reports, _) = analyze_narrow(team, reads, cfg);
    (spectrum, reports)
}

/// What the Bloom filter of §3.1 costs and saves, from one run of
/// [`analyze_kmers`]: the spectrum's distinct k-mers, the vote table's
/// entries after the count pass, and the first sightings its owners held
/// until the pass ended (their peak, summed over owners).
pub fn vote_table_census<R: AsRef<SeqRecord> + Sync>(
    team: &Team,
    reads: &[R],
    cfg: &KmerAnalysisConfig,
) -> (usize, u64, u64) {
    let (spectrum, reports, held) = analyze_narrow(team, reads, cfg);
    let count = reports.iter().find(|r| r.name == "kmer-analysis/count");
    (spectrum.distinct(), count.map_or(0, |r| r.table().0), held)
}

/// [`analyze_keyed`] on the narrowest key that holds k.
fn analyze_narrow<R: AsRef<SeqRecord> + Sync>(
    team: &Team,
    reads: &[R],
    cfg: &KmerAnalysisConfig,
) -> (KmerSpectrum, Vec<PhaseReport>, u64) {
    if cfg.k <= Kmer64::MAX_K {
        analyze_keyed::<Kmer64, _>(team, reads, cfg)
    } else {
        analyze_keyed::<KmerPair, _>(team, reads, cfg)
    }
}

/// [`analyze_kmers`] with vote-table keys of type `K`, and the first
/// sightings the count pass held.
fn analyze_keyed<K: KmerKey, R: AsRef<SeqRecord> + Sync>(
    team: &Team,
    reads: &[R],
    cfg: &KmerAnalysisConfig,
) -> (KmerSpectrum, Vec<PhaseReport>, u64) {
    let (sketch, sketch_report) = sketch_pass::<K, _>(team, reads, cfg);

    // Both tables are owned by `key_hash % ranks`: `finalize` moves entries
    // from the votes table into the final spectrum with a shard-local
    // merge, which is only correct because a `K` key hashes as its widened
    // `Kmer` and so has the same owner in both.
    let codec = KmerCodec::new(cfg.k);
    let votes_table: DistHashMap<K, ExtVotes> = DistHashMap::new(*team.topo());
    let (count_report, held) = count_pass(team, reads, cfg, &sketch, &votes_table);

    let final_table: DistHashMap<Kmer, KmerEntry> = DistHashMap::new(*team.topo());
    let finalize_report = finalize(team, votes_table.freeze(), &final_table);

    let spectrum = KmerSpectrum {
        codec,
        table: final_table.freeze(),
    };
    let reports = vec![sketch_report, count_report, finalize_report];
    (spectrum, reports, held)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass1::sketch_reads;
    use hipmer_dna::ExtChoice;
    use hipmer_pgas::{CommStats, RankCtx, Topology};

    /// Every `(k-mer, count)` of a spectrum, in ascending k-mer order.
    fn counts(spectrum: &KmerSpectrum) -> Vec<(Kmer, u32)> {
        let entries = spectrum.export_entries().into_iter();
        entries.map(|(km, e)| (km, e.count)).collect()
    }

    /// Reads tiling `genome` perfectly with `depth` copies.
    fn perfect_reads(genome: &[u8], read_len: usize, depth: usize) -> Vec<SeqRecord> {
        let mut out = Vec::new();
        let stride = (read_len / depth.max(1)).max(1);
        for d in 0..depth {
            let offset = d * stride / depth.max(1);
            let mut pos = offset;
            while pos + read_len <= genome.len() {
                out.push(SeqRecord::with_uniform_quality(
                    format!("r{d}_{pos}"),
                    genome[pos..pos + read_len].to_vec(),
                    35,
                ));
                pos += stride;
            }
        }
        out
    }

    fn lcg_genome(len: usize, seed: u64) -> Vec<u8> {
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

    /// Per-k-mer tallies the slow way: look at each read from both strands
    /// and count an occurrence on the strand where it reads as the
    /// canonical k-mer, so its neighbours need no re-orientation.
    fn brute_force_votes(
        reads: &[SeqRecord],
        k: usize,
        min_qual: u8,
    ) -> KmerHashMap<Kmer, ExtVotes> {
        let codec = KmerCodec::new(k);
        let mut truth: KmerHashMap<Kmer, ExtVotes> = KmerHashMap::default();
        for read in reads {
            let mut other = read.clone();
            other.seq = hipmer_dna::revcomp(&read.seq);
            other.qual.as_mut().unwrap().reverse();
            for strand in [read, &other] {
                let vote = |i: Option<usize>| {
                    let i = i.filter(|&i| i < strand.len() && strand.phred(i).unwrap() >= min_qual);
                    i.and_then(|i| hipmer_dna::encode_base(strand.seq[i]))
                };
                for off in 0..=strand.len() - k {
                    let km = codec.pack(&strand.seq[off..off + k]).unwrap();
                    if km == codec.canonical(km) {
                        let tally = truth.entry(km).or_default();
                        tally.record(vote(off.checked_sub(1)), vote(Some(off + k)));
                    }
                }
            }
        }
        truth
    }

    /// Run the count pass and finalize on `sketch` and check both against
    /// the brute-force `truth`: every vote-table entry holds its k-mer's
    /// full tally, every k-mer counted at least twice has one, and the
    /// spectrum is the truth's thresholded and decided. Returns the count
    /// pass's report and the first sightings it held.
    fn check_against_truth(
        what: &str,
        team: &Team,
        reads: &[SeqRecord],
        cfg: &KmerAnalysisConfig,
        sketch: &SketchResult,
        truth: &KmerHashMap<Kmer, ExtVotes>,
    ) -> (PhaseReport, u64) {
        let codec = KmerCodec::new(cfg.k);
        let table: DistHashMap<Kmer, ExtVotes> = DistHashMap::new(*team.topo());
        let (report, held) = count_pass(team, reads, cfg, sketch, &table);
        let table = table.freeze();
        for (km, votes) in table.iter() {
            assert_eq!(votes, &truth[km], "{what}: {}", codec.to_string(*km));
        }
        let present: hipmer_dna::KmerHashSet<Kmer> = table.iter().map(|(&km, _)| km).collect();
        for (km, t) in truth {
            let kept = present.contains(km);
            assert!(
                kept || (cfg.use_bloom && t.count < MIN_COUNT),
                "{what}: {}",
                codec.to_string(*km)
            );
        }

        let final_table: DistHashMap<Kmer, KmerEntry> = DistHashMap::new(*team.topo());
        finalize(team, table, &final_table);
        let spectrum = KmerSpectrum {
            codec,
            table: final_table.freeze(),
        };
        let mut want: Vec<(Kmer, KmerEntry)> = (truth.iter())
            .filter(|(_, t)| t.count >= MIN_COUNT)
            .map(|(km, t)| {
                let exts = t.decide(MIN_VOTES);
                let entry = KmerEntry {
                    count: t.count,
                    exts,
                };
                (*km, entry)
            })
            .collect();
        want.sort_by_key(|(km, _)| *km);
        assert_eq!(spectrum.export_entries(), want, "{what}: spectrum");
        (report, held)
    }

    #[test]
    fn exact_counts_match_brute_force() {
        // Unique flanks around a 25-base unit repeated 60 times: each of the
        // unit's k-mers occurs 720 times, above the heavy-hitter threshold
        // N/(16·P) = 643 of this 41,100-occurrence stream, so the heavy
        // path runs.
        let mut genome = lcg_genome(1000, 7);
        let unit = lcg_genome(25, 11);
        for _ in 0..60 {
            genome.extend_from_slice(&unit);
        }
        genome.extend(lcg_genome(1000, 13));
        let mut reads = perfect_reads(&genome, 80, 4);
        // Every third read comes from the other strand, and every fifth has
        // three bases below `min_qual`: its first, its last (neighbours of
        // the k-mers next to the read-end ones) and one in the middle.
        for (i, r) in reads.iter_mut().enumerate() {
            if i % 3 == 0 {
                r.seq = hipmer_dna::revcomp(&r.seq);
            }
            if i % 5 == 0 {
                for pos in [0, 40, 79] {
                    r.qual.as_mut().unwrap()[pos] = 33 + 5;
                }
            }
        }
        let k = 21;
        let codec = KmerCodec::new(k);
        let team = Team::new(Topology::new(4, 2));
        let topo = *team.topo();
        let mut cfg = KmerAnalysisConfig::new(k);
        let truth = brute_force_votes(&reads, k, MIN_QUAL);
        assert!(truth.values().any(|t| t.count == 1) && truth.values().any(|t| t.count > 4));

        for (use_bloom, use_hh) in [(true, false), (false, true), (true, true), (false, false)] {
            cfg.use_bloom = use_bloom;
            cfg.use_heavy_hitters = use_hh;
            let what = format!("bloom={use_bloom} hh={use_hh}");
            let (sketch, _) = sketch_reads(&team, &reads, &cfg);
            assert_eq!(sketch.heavy_hitters.is_empty(), !use_hh);
            let (report, held) = check_against_truth(&what, &team, &reads, &cfg, &sketch, &truth);
            // The filter holds each k-mer's first sighting, false positives
            // aside; without it nothing waits.
            let distinct = (truth.keys())
                .filter(|km| !sketch.heavy_hitters.contains(km))
                .count() as u64;
            if use_bloom {
                assert!(
                    held <= distinct && held * 10 > distinct * 9,
                    "{what}: {held}"
                );
            } else {
                assert_eq!(held, 0, "{what}");
            }

            // An occurrence is billed its packed k-mer plus one byte; only a
            // heavy hitter's per-rank partial carries a whole tally.
            let owner: DistHashMap<Kmer, ()> = DistHashMap::new(topo);
            let mut occurrences = 0u64;
            let mut remote_bytes = 0u64;
            for rank in 0..topo.ranks() {
                let mut partials: hipmer_dna::KmerHashSet<Kmer> = Default::default();
                for read in &reads[topo.chunk(reads.len(), rank)] {
                    for (_, _, canon) in codec.canonical_kmers(&read.seq) {
                        let item_bytes = if !sketch.heavy_hitters.contains(&canon) {
                            occurrences += 1;
                            codec.wire_bytes() + 1
                        } else if partials.insert(canon) {
                            codec.wire_bytes() + ExtVotes::WIRE_BYTES
                        } else {
                            continue;
                        };
                        if owner.owner(&canon) != rank {
                            remote_bytes += item_bytes;
                        }
                    }
                }
            }
            let totals = report.totals();
            assert_eq!(
                totals.onnode_bytes + totals.offnode_bytes,
                remote_bytes,
                "{what}"
            );
            // Each occurrence is applied once at its owner, held or not.
            if !use_hh {
                assert_eq!(totals.service_ops, occurrences, "{what}");
            }

            // And the entry point agrees with the pass run here.
            let (spectrum, _) = analyze_kmers(&team, &reads, &cfg);
            let mut want: Vec<(Kmer, u32)> = (truth.iter())
                .filter(|(_, t)| t.count >= MIN_COUNT)
                .map(|(km, t)| (*km, t.count))
                .collect();
            want.sort_unstable();
            assert_eq!(counts(&spectrum), want, "{what}");
        }
    }

    /// Reads tiling a random genome of `len` bases 4 deep, of which every
    /// third is from the other strand, every fourth has one substitution
    /// (its k-mers across it are singletons) and every fifth a low-quality
    /// base.
    fn substituted_reads(len: usize) -> Vec<SeqRecord> {
        let genome = lcg_genome(len, 31);
        let mut reads = perfect_reads(&genome, 80, 4);
        for (i, r) in reads.iter_mut().enumerate() {
            if i % 4 == 0 {
                let pos = 10 + i % 60;
                r.seq[pos] = if r.seq[pos] == b'A' { b'C' } else { b'A' };
            }
            if i % 5 == 0 {
                r.qual.as_mut().unwrap()[33] = 33 + 5;
            }
            if i % 3 == 0 {
                r.seq = hipmer_dna::revcomp(&r.seq);
            }
        }
        reads
    }

    #[test]
    fn exact_counts_survive_a_saturated_filter() {
        // A cardinality estimate of one sizes each owner's filter for 1,024
        // k-mers; each of the 4 owners here gets ~7,000, so its filter
        // fills up and calls almost every first sighting "maybe seen". The
        // early first sightings are held, the later ones create entries at
        // once, and singletons take entries they would not otherwise have:
        // counts and votes must come out exact all the same.
        let reads = substituted_reads(24_000);
        let k = 21;
        let team = Team::new(Topology::new(4, 2));
        let mut cfg = KmerAnalysisConfig::new(k);
        cfg.use_heavy_hitters = false;
        let truth = brute_force_votes(&reads, k, MIN_QUAL);
        let singletons = truth.values().filter(|t| t.count == 1).count() as u64;
        assert!(singletons > 10_000, "{singletons}");

        let (mut sketch, _) = sketch_reads(&team, &reads, &cfg);
        let (_, sized) = check_against_truth("sized", &team, &reads, &cfg, &sketch, &truth);
        sketch.cardinality = 1.0;
        let (report, held) = check_against_truth("saturated", &team, &reads, &cfg, &sketch, &truth);
        // Saturated: most first sightings were taken for repeats, so few
        // were held (a sized filter holds nearly all) and most singletons
        // got an entry that finalize drops.
        let distinct = truth.len() as u64;
        assert!(
            held * 2 < distinct && sized * 10 > distinct * 9,
            "{held} {sized} {distinct}"
        );
        let repeated = distinct - singletons;
        assert!(
            report.table().0 > repeated + singletons / 2,
            "{:?}",
            report.table()
        );
    }

    /// A genome with a 30-base unit repeated 80 times (its k-mers are heavy
    /// hitters at θ = 256 over 8 ranks: each stays above N/(16·8) after the
    /// summary's N/θ undercount), tiled by reads of which every third is
    /// reverse-complemented and every fifth has two low-quality bases, plus
    /// one stray read whose k-mers are singletons.
    fn differential_reads() -> Vec<SeqRecord> {
        let unit = lcg_genome(30, 3);
        let mut genome = lcg_genome(900, 23);
        for _ in 0..80 {
            genome.extend_from_slice(&unit);
        }
        genome.extend(lcg_genome(900, 29));
        let mut reads = perfect_reads(&genome, 80, 3);
        for (i, r) in reads.iter_mut().enumerate() {
            if i % 3 == 0 {
                r.seq = hipmer_dna::revcomp(&r.seq);
            }
            if i % 5 == 0 {
                for pos in [7, 50] {
                    r.qual.as_mut().unwrap()[pos] = 33 + 5;
                }
            }
        }
        reads.push(SeqRecord::with_uniform_quality(
            "stray",
            lcg_genome(80, 77),
            35,
        ));
        reads
    }

    /// Per phase: its name, hot keys and every rank's counted `CommStats` —
    /// all of a report that is not a host timing.
    type PhaseCounters = (String, Vec<(u64, u64)>, Vec<CommStats>);

    fn keyed_run<K: KmerKey>(
        team: &Team,
        reads: &[SeqRecord],
        cfg: &KmerAnalysisConfig,
    ) -> (Vec<(Kmer, KmerEntry)>, Vec<PhaseCounters>) {
        let (spectrum, reports, _) = analyze_keyed::<K, _>(team, reads, cfg);
        let counters = (reports.into_iter())
            .map(|r| {
                let counted = r.stats.iter().map(|s| s.counted()).collect();
                (r.name, r.hot_keys, counted)
            })
            .collect();
        (spectrum.export_entries(), counters)
    }

    #[test]
    fn narrow_and_wide_keys_give_identical_spectra_and_counters() {
        let reads = differential_reads();
        // Several OS threads: owners apply their mail in rank order, so
        // no counter depends on the threads.
        let team = Team::new(Topology::new(8, 4)).with_os_threads(4);
        for k in [15, 21, 31, 32, 33, 55] {
            for (use_bloom, use_hh) in [(true, true), (true, false), (false, true), (false, false)]
            {
                let mut cfg = KmerAnalysisConfig::new(k);
                cfg.theta = 256;
                cfg.use_bloom = use_bloom;
                cfg.use_heavy_hitters = use_hh;
                let what = format!("k={k} bloom={use_bloom} hh={use_hh}");
                let (sketch, _) = sketch_reads(&team, &reads, &cfg);
                assert_eq!(sketch.heavy_hitters.is_empty(), !use_hh, "{what}");
                // Every k runs on the `u128` reference key and on the key
                // the entry point picks: `Kmer64` up to 32, `KmerPair` above.
                let narrow = if k <= Kmer64::MAX_K {
                    keyed_run::<Kmer64>(&team, &reads, &cfg)
                } else {
                    keyed_run::<KmerPair>(&team, &reads, &cfg)
                };
                let wide = keyed_run::<Kmer>(&team, &reads, &cfg);
                assert!(narrow.0.len() > 1000, "{what}: {}", narrow.0.len());
                assert_eq!(narrow.0, wide.0, "{what}: spectrum");
                assert_eq!(narrow.1, wide.1, "{what}: phase counters");
                // Hot keys, equal across key types with the rest, come
                // from the sketch's summary, and only with heavy hitters on.
                for (phase, hot, _) in &narrow.1 {
                    let sketched = use_hh && phase == "kmer-analysis/sketch";
                    assert_eq!(!hot.is_empty(), sketched, "{what}: {phase}");
                }
                // And the entry point is the narrow instance.
                let (spectrum, _) = analyze_kmers(&team, &reads, &cfg);
                assert_eq!(spectrum.export_entries(), narrow.0, "{what}");
            }
        }
    }

    /// Whether a `K`-keyed and a `Kmer`-keyed table hash and route every
    /// canonical k-mer of `reads` at `k` alike.
    fn routes_as_wide<K: KmerKey>(reads: &[SeqRecord], k: usize) {
        let codec = KmerCodec::new(k);
        let topo = Topology::new(16, 8);
        let narrow: DistHashMap<K, ()> = DistHashMap::new(topo);
        let wide: DistHashMap<Kmer, ()> = DistHashMap::new(topo);
        for read in reads {
            for (_, _, canon) in codec.canonical_keys::<K>(&read.seq) {
                let widened: Kmer = canon.into();
                assert_eq!(narrow.key_hash(&canon), wide.key_hash(&widened), "k={k}");
                assert_eq!(narrow.owner(&canon), wide.owner(&widened), "k={k}");
            }
        }
    }

    #[test]
    fn narrow_keys_hash_and_route_as_wide_ones() {
        let reads = differential_reads();
        for k in [15, 21, 31, 32] {
            routes_as_wide::<Kmer64>(&reads, k);
        }
        for k in [33, 55] {
            routes_as_wide::<KmerPair>(&reads, k);
        }
    }

    #[test]
    fn k_33_takes_the_wide_path() {
        let reads = differential_reads();
        let team = Team::new(Topology::new(4, 2));
        let cfg = KmerAnalysisConfig::new(33);
        let (spectrum, _) = analyze_kmers(&team, &reads, &cfg);
        assert_eq!(
            spectrum.export_entries(),
            keyed_run::<Kmer>(&team, &reads, &cfg).0
        );
        // The narrow instance cannot hold a 33-mer: it refuses to start, so
        // the entry point above did not take it.
        let narrow = std::panic::catch_unwind(|| analyze_keyed::<Kmer64, _>(&team, &reads, &cfg));
        assert!(narrow.is_err());
    }

    #[test]
    fn singletons_are_dropped() {
        let genome = lcg_genome(3000, 11);
        let mut reads = perfect_reads(&genome, 90, 3);
        // One read from elsewhere: its interior k-mers appear once.
        let stray = lcg_genome(90, 999);
        reads.push(SeqRecord::with_uniform_quality("stray", stray.clone(), 35));
        let team = Team::new(Topology::new(3, 3));
        let cfg = KmerAnalysisConfig::new(21);
        let (spectrum, _) = analyze_kmers(&team, &reads, &cfg);

        let codec = KmerCodec::new(21);
        let mut ctx = RankCtx::new(0, *team.topo());
        // The stray's middle k-mer must be absent.
        let mid = codec.canonical(codec.pack(&stray[30..51]).unwrap());
        assert!(spectrum.table.get(&mut ctx, &mid).is_none());
    }

    #[test]
    fn extensions_are_unique_in_clean_sequence() {
        let genome = lcg_genome(1500, 13);
        let reads = perfect_reads(&genome, 100, 4);
        let team = Team::new(Topology::new(2, 2));
        let cfg = KmerAnalysisConfig::new(21);
        let (spectrum, _) = analyze_kmers(&team, &reads, &cfg);

        let mut uu = 0usize;
        let mut total = 0usize;
        for rank in 0..2 {
            let mut c = RankCtx::new(rank, *team.topo());
            for (_, e) in spectrum.table.scan_local(&mut c) {
                uu += usize::from(e.exts.is_uu());
                total += 1;
            }
        }
        assert!(total > 1000);
        // Interior k-mers of a non-repetitive genome are UU.
        assert!(
            uu as f64 / total as f64 > 0.95,
            "uu fraction {}",
            uu as f64 / total as f64
        );
    }

    #[test]
    fn low_quality_extensions_do_not_vote() {
        // Same sequence, depth 3, but the base after the first k-mer has
        // low quality in every copy -> right extension gets no votes at the
        // first k-mer... construct directly:
        let seq = b"ACGTTGCAAGGCTTAGCGTACGATCC".to_vec();
        let mut reads = Vec::new();
        for i in 0..3 {
            let mut r = SeqRecord::with_uniform_quality(format!("r{i}"), seq.clone(), 35);
            // Degrade quality of base at index 21 (right neighbor of the
            // k-mer at offset 0 with k=21).
            r.qual.as_mut().unwrap()[21] = 33 + 5;
            reads.push(r);
        }
        let team = Team::new(Topology::new(1, 1));
        let cfg = KmerAnalysisConfig::new(21);
        let (spectrum, _) = analyze_kmers(&team, &reads, &cfg);
        let codec = KmerCodec::new(21);
        let mut ctx = RankCtx::new(0, *team.topo());
        let first = codec.pack(&seq[..21]).unwrap();
        let entry = spectrum.get(&mut ctx, first).unwrap();
        assert_eq!(entry.count, 3);
        // Orient the check to the packed (forward) k-mer.
        let canon = codec.canonical(first);
        let exts = if canon == first {
            entry.exts
        } else {
            entry.exts.flip()
        };
        assert_eq!(
            exts.right,
            ExtChoice::None,
            "low-quality base must not vote"
        );
        assert_eq!(exts.left, ExtChoice::None, "no left neighbor at read start");
    }

    #[test]
    fn heavy_hitter_path_gives_identical_counts() {
        // A genome with a massive tandem repeat, whose 30 k-mers each hold
        // ~3 % of the stream, nearly twice the heavy-hitter threshold N/(16·P);
        // run with and without the heavy-hitter optimization and compare
        // tables exactly.
        let unit = lcg_genome(30, 3);
        let mut genome = lcg_genome(1000, 5);
        for _ in 0..400 {
            genome.extend_from_slice(&unit);
        }
        genome.extend(lcg_genome(1000, 6));
        let reads = perfect_reads(&genome, 100, 3);
        let team = Team::new(Topology::new(4, 2));

        let mut cfg_on = KmerAnalysisConfig::new(21);
        cfg_on.theta = 256;
        let (sketch, _) = sketch_reads(&team, &reads, &cfg_on);
        assert_eq!(sketch.heavy_hitters.len(), 30);
        let mut cfg_off = cfg_on.clone();
        cfg_off.use_heavy_hitters = false;

        let (spec_on, _) = analyze_kmers(&team, &reads, &cfg_on);
        let (spec_off, _) = analyze_kmers(&team, &reads, &cfg_off);

        assert_eq!(
            counts(&spec_on),
            counts(&spec_off),
            "HH optimization must not change results"
        );
    }

    #[test]
    fn heavy_hitters_rebalance_service_load() {
        // Service ops at the hottest rank must drop when the optimization
        // is on (Fig. 6's load-imbalance mechanism).
        let unit = lcg_genome(60, 3);
        let mut genome = Vec::new();
        for _ in 0..400 {
            genome.extend_from_slice(&unit);
        }
        genome.extend(lcg_genome(2000, 6));
        let reads = perfect_reads(&genome, 100, 4);
        let team = Team::new(Topology::new(8, 4));

        let hottest_service = |use_hh: bool| -> u64 {
            let mut cfg = KmerAnalysisConfig::new(21);
            cfg.theta = 256;
            cfg.use_heavy_hitters = use_hh;
            let (_, reports) = analyze_kmers(&team, &reads, &cfg);
            reports
                .iter()
                .filter(|r| r.name.contains("count"))
                .flat_map(|r| r.stats.iter().map(|s| s.service_ops))
                .max()
                .unwrap_or(0)
        };
        let with_hh = hottest_service(true);
        let without = hottest_service(false);
        assert!(
            with_hh * 2 < without,
            "HH must cut the hottest rank's service load: {with_hh} vs {without}"
        );
    }

    #[test]
    fn bloom_ablation_matches_counts_but_uses_more_entries() {
        let genome = lcg_genome(2000, 17);
        let mut reads = perfect_reads(&genome, 80, 3);
        reads.push(SeqRecord::with_uniform_quality(
            "stray",
            lcg_genome(80, 1234),
            35,
        ));
        let team = Team::new(Topology::new(2, 2));
        let mut cfg = KmerAnalysisConfig::new(21);
        cfg.use_bloom = false;
        let (spec_nb, _) = analyze_kmers(&team, &reads, &cfg);
        cfg.use_bloom = true;
        let (spec_b, _) = analyze_kmers(&team, &reads, &cfg);
        // Final spectra agree (both threshold at min_count)...
        assert_eq!(counts(&spec_nb), counts(&spec_b));
    }

    /// The sender's votes as they were read before the digit pass: per
    /// occurrence, a `phred` and an `encode_base` for each neighbour, then
    /// swapped and complemented on the reverse strand.
    fn phred_occurrences<K: KmerKey>(codec: &KmerCodec, read: &SeqRecord) -> Vec<(K, ExtCode)> {
        let k = codec.k();
        let vote = |i: usize| match read.phred(i) {
            Some(q) if q >= MIN_QUAL => hipmer_dna::encode_base(read.seq[i]),
            None => hipmer_dna::encode_base(read.seq[i]),
            _ => None,
        };
        let occurrences = codec.canonical_keys::<K>(&read.seq);
        occurrences
            .map(|(off, km, canon)| {
                let left = off.checked_sub(1).and_then(vote);
                let right = (off + k < read.seq.len()).then(|| vote(off + k)).flatten();
                let code = if km == canon {
                    ExtCode::new(left, right)
                } else {
                    ExtCode::new(right.map(|c| 3 - c), left.map(|c| 3 - c))
                };
                (canon, code)
            })
            .collect()
    }

    /// Random reads around length `k`: upper-case ACGT with lower-case
    /// bases and Ns, qualities on both sides of [`MIN_QUAL`] (low at both
    /// ends of every third read, one below the Phred+33 offset in every
    /// seventh), and every fifth record without qualities and every fifth
    /// with a quality string cut short. Every eighth read is k − 1 bases
    /// long and every eighth exactly k.
    fn vote_reads(k: usize, seed: u64) -> Vec<SeqRecord> {
        let mut x = seed;
        let mut next = |n: usize| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as usize % n
        };
        (0..400)
            .map(|i| {
                let len = match i % 8 {
                    0 => k - 1,
                    1 => k,
                    _ => k + next(2 * k + 40),
                };
                let seq: Vec<u8> = (0..len)
                    .map(|_| match next(64) {
                        0 => b'N',
                        c @ 1..=4 => b"acgt"[c - 1],
                        c => b"ACGT"[c % 4],
                    })
                    .collect();
                let mut qual: Vec<u8> = (0..len)
                    .map(|_| 33 + MIN_QUAL - 3 + next(7) as u8)
                    .collect();
                if i % 3 == 0 {
                    qual[0] = 33 + 2;
                    qual[len - 1] = 33 + 2;
                }
                if i % 7 == 0 {
                    qual[len / 2] = 20;
                }
                if i % 5 == 1 {
                    qual.truncate(next(len + 1));
                }
                let mut read = SeqRecord::new(format!("r{i}"), seq);
                read.qual = (i % 5 != 0).then_some(qual);
                read
            })
            .collect()
    }

    /// [`for_each_occurrence`] on `K` keys against [`phred_occurrences`];
    /// returns the occurrences compared.
    fn digits_match_phred<K: KmerKey + std::fmt::Debug>(k: usize, reads: &[SeqRecord]) -> usize {
        let codec = KmerCodec::new(k);
        let mut digits = Vec::new();
        let mut compared = 0;
        for read in reads {
            let mut got: Vec<(K, ExtCode)> = Vec::new();
            for_each_occurrence(&codec, read, &mut digits, |km, code| got.push((km, code)));
            assert_eq!(got, phred_occurrences::<K>(&codec, read), "k={k} {read:?}");
            compared += got.len();
        }
        compared
    }

    #[test]
    fn vote_digits_vote_as_the_per_occurrence_phred_path() {
        for k in [15, 21, 31, 32, 33, 55, 63] {
            let reads = vote_reads(k, k as u64);
            let compared = digits_match_phred::<KmerPair>(k, &reads);
            assert!(compared > 5_000, "k={k}: {compared}");
            if k <= Kmer64::MAX_K {
                assert_eq!(digits_match_phred::<Kmer64>(k, &reads), compared);
            }
            // Every kind of read is in the sample, and so is every vote.
            let codec = KmerCodec::new(k);
            let codes: std::collections::HashSet<u8> = (reads.iter())
                .flat_map(|r| phred_occurrences::<KmerPair>(&codec, r))
                .map(|(_, code)| code.to_byte())
                .collect();
            assert_eq!(codes.len(), 25, "k={k}");
            assert!(reads.iter().any(|r| r.qual.is_none()));
            assert!(reads
                .iter()
                .any(|r| r.qual.as_ref().is_some_and(|q| q.len() < r.len())));
        }
    }

    #[test]
    fn held_sightings_decode_as_pushed_at_every_width() {
        for k in [1, 4, 15, 21, 31, 32, 33, 55, 60, 63, 64] {
            let codec = KmerCodec::new(k);
            let mut x = k as u128;
            let pushed: Vec<(Kmer, ExtCode)> = (0..50u8)
                .map(|i| {
                    x = x.wrapping_mul(0x2545_f491_4f6c_dd1d_9e37_79b9_7f4a_7c15) + 1;
                    let bits = (x ^ (x >> 64)) & (u128::MAX >> (128 - 2 * k));
                    (Kmer(bits), ExtCode::from_byte(i % 25))
                })
                .collect();
            let mut held = FirstSightings::<Kmer>::new(&codec);
            for &(km, code) in &pushed {
                held.push(km, code);
            }
            assert_eq!(held.len(), pushed.len(), "k={k}");
            assert_eq!(held.take().collect::<Vec<_>>(), pushed, "k={k}");
            assert_eq!(held.len(), 0, "k={k}");
        }
    }

    /// The owner's order before it asked its table first: the filter over
    /// the whole batch, then the batch into the table.
    fn filter_first_arrive<K: KmerKey>(
        owner: &mut Owner<K>,
        table: &DistHashMap<K, ExtVotes>,
        rank: usize,
        votes: &mut Vec<(K, ExtCode)>,
    ) {
        let Owner { bloom, held } = owner;
        votes.retain(|&(km, code)| {
            let wide: Kmer = km.into();
            let hash = hipmer_dna::mix128(wide.bits());
            let seen = bloom.as_mut().is_none_or(|b| b.insert(hash));
            if !seen {
                held.push(km, code);
            }
            seen
        });
        table.apply_batch(rank, votes.drain(..), ExtVotes::record_code, |_, code| {
            let mut tally = ExtVotes::new();
            tally.record_code(code);
            Some(tally)
        });
    }

    /// A count pass with owner order `arrive`: the vote table's entries in
    /// each partition's iteration order, the first sightings held, and
    /// every rank's counters.
    type OwnerRun<K> = (Vec<(K, ExtVotes)>, u64, Vec<CommStats>);

    fn owner_run<K, A>(
        team: &Team,
        reads: &[SeqRecord],
        cfg: &KmerAnalysisConfig,
        sketch: &SketchResult<K>,
        arrive: A,
    ) -> OwnerRun<K>
    where
        K: KmerKey,
        A: Fn(&mut Owner<K>, &DistHashMap<K, ExtVotes>, usize, &mut Vec<(K, ExtCode)>) + Sync,
    {
        let table = DistHashMap::new(*team.topo());
        let (report, held) = count_pass_with(team, reads, cfg, sketch, &table, arrive);
        let entries = table.freeze().iter().map(|(&k, &v)| (k, v)).collect();
        (
            entries,
            held,
            report.stats.iter().map(|s| s.counted()).collect(),
        )
    }

    /// Table-first and filter-first owners over `reads` at `k` on `K`
    /// keys, with the filter sized, saturated and off and heavy hitters
    /// on and off. Returns whether any configuration had heavy hitters,
    /// and the singleton entries (false positives) a sized filter let in.
    fn owner_orders_agree<K: KmerKey + std::fmt::Debug>(
        reads: &[SeqRecord],
        k: usize,
    ) -> (bool, usize) {
        let team = Team::new(Topology::new(8, 4));
        let (mut any_heavy, mut sized_singletons) = (false, 0);
        for use_hh in [true, false] {
            for filter in ["sized", "saturated", "off"] {
                let mut cfg = KmerAnalysisConfig::new(k);
                cfg.theta = 256;
                cfg.use_heavy_hitters = use_hh;
                cfg.use_bloom = filter != "off";
                let (mut sketch, _) = sketch_pass::<K, _>(&team, reads, &cfg);
                if filter == "saturated" {
                    sketch.cardinality = 1.0;
                }
                any_heavy |= !sketch.heavy_hitters.is_empty();
                let what = format!("k={k} filter={filter} hh={use_hh}");
                let want = owner_run(&team, reads, &cfg, &sketch, filter_first_arrive);
                let got = owner_run(&team, reads, &cfg, &sketch, Owner::arrive);
                assert_eq!(got.1, want.1, "{what}: held");
                assert_eq!(got.2, want.2, "{what}: counters");
                assert!(got.0 == want.0, "{what}: vote table");
                assert_eq!(got.1 > 0, cfg.use_bloom, "{what}: held");
                if filter == "sized" {
                    sized_singletons += got.0.iter().filter(|(_, v)| v.count == 1).count();
                }
            }
        }
        (any_heavy, sized_singletons)
    }

    #[test]
    fn table_first_owner_matches_the_filter_first_order() {
        // The substituted reads have many singletons, of which a sized
        // filter passes some as false positives and a saturated one most;
        // the tandem repeat of `differential_reads` has heavy hitters.
        let (heavy, singletons) = owner_orders_agree::<Kmer64>(&substituted_reads(6_000), 21);
        assert!(!heavy && singletons > 0, "{singletons}");
        assert!(owner_orders_agree::<Kmer64>(&differential_reads(), 21).0);
        assert!(owner_orders_agree::<KmerPair>(&differential_reads(), 33).0);
    }
}
