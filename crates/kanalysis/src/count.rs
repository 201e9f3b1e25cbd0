//! Passes 2–3: Bloom-filtered table construction and exact counting with
//! extension votes, plus the heavy-hitter local-accumulation path.
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

/// The left/right extension bases of one k-mer occurrence, re-oriented to
/// the k-mer's canonical form. `left`/`right` are 2-bit codes of the
/// neighboring bases that passed the quality filter.
fn canonical_votes<K: PartialEq>(km: K, canon: K, left: Option<u8>, right: Option<u8>) -> ExtCode {
    if km == canon {
        ExtCode::new(left, right)
    } else {
        // Occurrence is the reverse complement of the canonical form: sides
        // swap and bases complement.
        ExtCode::new(right.map(|c| 3 - c), left.map(|c| 3 - c))
    }
}

/// Visit every k-mer occurrence of a read with the vote of its
/// quality-filtered neighbor bases (already re-oriented to canonical form).
fn for_each_occurrence<K, F>(codec: &KmerCodec, read: &SeqRecord, mut f: F)
where
    K: KmerKey,
    F: FnMut(K, ExtCode),
{
    let k = codec.k();
    for (off, km, canon) in codec.canonical_keys::<K>(&read.seq) {
        let left = if off > 0 {
            match read.phred(off - 1) {
                Some(q) if q >= MIN_QUAL => hipmer_dna::encode_base(read.seq[off - 1]),
                None => hipmer_dna::encode_base(read.seq[off - 1]),
                _ => None,
            }
        } else {
            None
        };
        let right = if off + k < read.seq.len() {
            match read.phred(off + k) {
                Some(q) if q >= MIN_QUAL => hipmer_dna::encode_base(read.seq[off + k]),
                None => hipmer_dna::encode_base(read.seq[off + k]),
                _ => None,
            }
        } else {
            None
        };
        f(canon, canonical_votes(km, canon, left, right));
    }
}

/// Pass 2: route every (non-heavy) k-mer occurrence to its owner, which
/// inserts it into its Bloom filter and creates a table entry the second
/// time it sees the key.
fn bloom_pass<K: KmerKey, R: AsRef<SeqRecord> + Sync>(
    team: &Team,
    reads: &[R],
    cfg: &KmerAnalysisConfig,
    sketch: &SketchResult<K>,
    table: &DistHashMap<K, ExtVotes>,
) -> PhaseReport {
    let codec = KmerCodec::new(cfg.k);
    let ranks = team.ranks();
    // Per-owner Bloom filters sized from the cardinality estimate; each is
    // only touched by its owner.
    let per_rank_items = ((sketch.cardinality / ranks as f64).ceil() as usize).max(1024);
    let blooms: Vec<Mutex<BloomFilter>> = (0..ranks)
        .map(|_| Mutex::new(BloomFilter::with_rate(per_rank_items, BLOOM_FP_RATE)))
        .collect();
    // Wire bytes: the packed 2k bits of the k-mer, not the in-memory key
    // word.
    let mail: Exchange<K> =
        Exchange::new(*team.topo(), cfg.agg_batch).with_item_bytes(codec.wire_bytes());

    let mut stats = team.run_supersteps("kmer-analysis/bloom", |ctx, step| {
        // Owner side: insert into this rank's Bloom filter and give the
        // keys it has now seen twice an (empty) entry, keeping the existing
        // one if the key already landed.
        let rank = ctx.rank;
        mail.deliver(rank, step, |_, kmers| {
            let mut bloom = blooms[rank].lock();
            kmers.retain(|&km| {
                let wide: Kmer = km.into();
                bloom.insert(hipmer_dna::mix128(wide.bits()))
            });
            let repeated = kmers.drain(..).map(|km| (km, ()));
            table.apply_batch(rank, repeated, |_, ()| {}, Some(|()| ExtVotes::new()));
        });
        let reads = &reads[ctx.chunk(reads.len())];
        mail.send(ctx, step, reads.len(), |ctx, i, post| {
            for (_, _, canon) in codec.canonical_keys::<K>(&reads[i].as_ref().seq) {
                ctx.stats.compute(1);
                if !sketch.heavy_hitters.contains(&canon) {
                    post.push(ctx, table.owner(&canon), canon);
                }
            }
        })
    });
    table.drain_service_into(&mut stats);
    PhaseReport::new("kmer-analysis/bloom", *team.topo(), stats)
}

/// Pass 3: exact counting with extension votes. Heavy hitters accumulate
/// locally and reduce at the end; every other occurrence ships as its k-mer
/// plus one byte of votes via aggregating stores, and the owner records it
/// into the k-mer's tally in place — into *existing* entries only under
/// Bloom semantics.
fn count_pass<K: KmerKey, R: AsRef<SeqRecord> + Sync>(
    team: &Team,
    reads: &[R],
    cfg: &KmerAnalysisConfig,
    sketch: &SketchResult<K>,
    table: &DistHashMap<K, ExtVotes>,
) -> PhaseReport {
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
    // Without the Bloom pass a k-mer's first vote creates its entry; with
    // it, a vote for a k-mer the filter kept out is dropped.
    let first_sighting = (!cfg.use_bloom).then_some(|code| {
        let mut tally = ExtVotes::new();
        tally.record_code(code);
        tally
    });

    let mut stats = team.run_supersteps("kmer-analysis/count", |ctx, step| {
        let rank = ctx.rank;
        occurrences.deliver(rank, step, |_, votes| {
            table.apply_batch(rank, votes.drain(..), ExtVotes::record_code, first_sighting);
        });
        partials.deliver(rank, step, |_, tallies| {
            table.merge_batch(rank, tallies.drain(..), |a, b| a.merge(&b));
        });

        let mut hh_local = hh_local[rank].lock();
        let reads = &reads[ctx.chunk(reads.len())];
        let sent = occurrences.send(ctx, step, reads.len(), |ctx, i, post| {
            for_each_occurrence(&codec, reads[i].as_ref(), |canon: K, code| {
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
        sent || reduced
    });
    table.drain_service_into(&mut stats);
    // Surface the most-hit keys of the vote table (only populated when
    // the team asks for them, e.g. under `--trace`).
    PhaseReport::new("kmer-analysis/count", *team.topo(), stats).with_hot_keys(table.hot_keys(16))
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

/// Run complete k-mer analysis over `reads`: sketch pass, Bloom pass,
/// count pass, finalize. Returns the spectrum and one report per phase.
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
    if cfg.k <= Kmer64::MAX_K {
        analyze_keyed::<Kmer64, _>(team, reads, cfg)
    } else {
        analyze_keyed::<KmerPair, _>(team, reads, cfg)
    }
}

/// [`analyze_kmers`] with vote-table keys of type `K`.
fn analyze_keyed<K: KmerKey, R: AsRef<SeqRecord> + Sync>(
    team: &Team,
    reads: &[R],
    cfg: &KmerAnalysisConfig,
) -> (KmerSpectrum, Vec<PhaseReport>) {
    let (sketch, sketch_report) = sketch_pass::<K, _>(team, reads, cfg);
    let mut reports = vec![sketch_report];

    // Both tables are owned by `key_hash % ranks`: `finalize` moves entries
    // from the votes table into the final spectrum with a shard-local
    // merge, which is only correct because a `K` key hashes as its widened
    // `Kmer` and so has the same owner in both.
    let codec = KmerCodec::new(cfg.k);
    let votes_table: DistHashMap<K, ExtVotes> =
        DistHashMap::new(*team.topo()).with_hot_keys(team.hot_key_capacity());
    if cfg.use_bloom {
        reports.push(bloom_pass(team, reads, cfg, &sketch, &votes_table));
    }
    reports.push(count_pass(team, reads, cfg, &sketch, &votes_table));

    let final_table: DistHashMap<Kmer, KmerEntry> = DistHashMap::new(*team.topo());
    reports.push(finalize(team, votes_table.freeze(), &final_table));

    (
        KmerSpectrum {
            codec,
            table: final_table.freeze(),
        },
        reports,
    )
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

            // The vote table after the count pass: full tallies, not only
            // the counts and decided extensions the spectrum keeps.
            let (sketch, _) = sketch_reads(&team, &reads, &cfg);
            assert_eq!(sketch.heavy_hitters.is_empty(), !use_hh);
            let table: DistHashMap<Kmer, ExtVotes> = DistHashMap::new(topo);
            if use_bloom {
                bloom_pass(&team, &reads, &cfg, &sketch, &table);
            }
            let report = count_pass(&team, &reads, &cfg, &sketch, &table);
            let table = table.freeze();
            let got: KmerHashMap<Kmer, &ExtVotes> = table.iter().map(|(&km, v)| (km, v)).collect();
            for (km, &votes) in &got {
                assert_eq!(votes, &truth[km], "{what}: {}", codec.to_string(*km));
            }
            // Without Bloom every k-mer has an entry; with it, every
            // repeated one (and whichever singletons the filter let in).
            for (km, t) in &truth {
                assert!(got.contains_key(km) || (use_bloom && t.count < 2), "{what}");
            }

            // An occurrence is billed its packed k-mer plus one byte; only a
            // heavy hitter's per-rank partial carries a whole tally.
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
                        if table.owner(&canon) != rank {
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
            if !use_hh {
                assert_eq!(totals.service_ops, occurrences, "{what}");
            }

            // And end to end: counts and decided extensions of the spectrum.
            let (spectrum, _) = analyze_kmers(&team, &reads, &cfg);
            let mut want: Vec<(Kmer, KmerEntry)> = truth
                .iter()
                .filter(|(_, t)| t.count >= MIN_COUNT)
                .map(|(km, t)| {
                    let exts = t.decide(MIN_VOTES);
                    (
                        *km,
                        KmerEntry {
                            count: t.count,
                            exts,
                        },
                    )
                })
                .collect();
            want.sort_by_key(|(km, _)| *km);
            let mut have = spectrum.export_entries();
            have.sort_by_key(|(km, _)| *km);
            assert_eq!(have, want, "{what}");
        }
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
        let (spectrum, reports) = analyze_keyed::<K, _>(team, reads, cfg);
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
        // even the hot-key summaries, which depend on the order batches
        // land in, do not depend on the threads.
        let team = Team::new(Topology::new(8, 4))
            .with_os_threads(4)
            .with_hot_keys(16);
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
                // The heavy-hitter path really ran: partials moved.
                let hot = &narrow
                    .1
                    .iter()
                    .find(|p| p.0 == "kmer-analysis/count")
                    .unwrap()
                    .2;
                assert!(!hot.is_empty(), "{what}");
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
}
