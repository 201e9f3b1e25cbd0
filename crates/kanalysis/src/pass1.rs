//! Pass 1: cardinality estimation + heavy-hitter identification (§3.1).

use crate::config::KmerAnalysisConfig;
use hipmer_dna::{Kmer, KmerCodec, KmerHashSet, KmerKey};
use hipmer_pgas::{PhaseReport, Team};
use hipmer_seqio::SeqRecord;
use hipmer_sketch::{HyperLogLog, MisraGries};
use std::sync::Mutex;

/// The merged result of the sketch pass, keyed as the pass was run
/// ([`Kmer`] unless k-mer analysis runs on [`hipmer_dna::Kmer64`]).
pub struct SketchResult<K = Kmer> {
    /// Estimated number of distinct canonical k-mers.
    pub cardinality: f64,
    /// K-mers flagged as heavy hitters (empty when the optimization is
    /// off). Shared read-only by all ranks in later passes.
    pub heavy_hitters: KmerHashSet<K>,
    /// Total k-mer occurrences streamed.
    pub stream_len: u64,
}

/// HyperLogLog precision: 2^14 registers, ~0.8% standard error.
const HLL_P: u8 = 14;

/// A k-mer is a heavy hitter when it holds at least `1 / OWNER_LOAD_SHARE`
/// of the mean owner load `N / P`: a k-mer that heavy can unbalance the
/// rank that owns it (Fig. 6), and one below it cannot, so shipping it as
/// one partial per rank would only cost.
const OWNER_LOAD_SHARE: u64 = 16;

/// Misra–Gries sees only the reads whose index in the input is a multiple
/// of this: a fixed sample of one read in 16, the same at every rank and
/// thread count. A heavy k-mer is spread over many reads, so its share of
/// the sample is its share of the stream; sampling by k-mer hash instead
/// could drop a heavy k-mer entirely.
const READ_SAMPLE: usize = 16;

/// Hot keys the sketch phase reports: the heaviest entries of its merged
/// Misra–Gries summary.
const HOT_KEYS: usize = 16;

/// The mean-owner-load share ⌈N / (16·P)⌉ of a stream of `stream_len`
/// occurrences over `ranks` owners: the occurrences that make a k-mer
/// heavy.
fn heavy_threshold(stream_len: u64, ranks: usize) -> u64 {
    stream_len.div_ceil(OWNER_LOAD_SHARE * ranks as u64).max(1)
}

/// The merged count in the one-in-[`READ_SAMPLE`] sample that makes a
/// k-mer heavy: [`heavy_threshold`] scaled down to the sample, ⌈T / 16⌉.
fn sampled_heavy_threshold(stream_len: u64, ranks: usize) -> u64 {
    heavy_threshold(stream_len, ranks).div_ceil(READ_SAMPLE as u64)
}

/// One rank's sketches, merged up the reduction tree: the HyperLogLog
/// registers and, with heavy hitters on, the Misra–Gries summary.
type Summary<K> = (HyperLogLog, Option<MisraGries<K>>);

/// Stream every rank's chunk of `reads` through the sketches and merge.
///
/// HyperLogLog and the stream length see every occurrence; Misra–Gries
/// sees the occurrences of every 16th read only, and a k-mer
/// is heavy when its merged sampled count reaches ⌈T / 16⌉ for the
/// full-stream share T = ⌈N / (16·P)⌉.
///
/// The reduction is a binomial tree inside the phase: in superstep `s`,
/// rank `r` with `r mod 2^s = 0` merges the summary of rank `r + 2^(s-1)`,
/// which ships it as one message of summary size (θ entries + the HLL
/// registers) — the mergeable-summaries parallelization of
/// Cafaro–Tempesta, ⌈log₂ P⌉ merges deep.
pub fn sketch_reads<R: AsRef<SeqRecord> + Sync>(
    team: &Team,
    reads: &[R],
    cfg: &KmerAnalysisConfig,
) -> (SketchResult, PhaseReport) {
    sketch_pass(team, reads, cfg)
}

/// [`sketch_reads`] over keys of type `K`: the same sketches, fed the same
/// hashes, so the heavy hitters are the same k-mers in either key type.
pub(crate) fn sketch_pass<K: KmerKey, R: AsRef<SeqRecord> + Sync>(
    team: &Team,
    reads: &[R],
    cfg: &KmerAnalysisConfig,
) -> (SketchResult<K>, PhaseReport) {
    let codec = KmerCodec::new(cfg.k);
    let ranks = team.ranks();
    let summary_bytes = (cfg.theta * 24 + (1usize << HLL_P)) as u64;
    let summaries: Vec<Mutex<Option<Summary<K>>>> = (0..ranks).map(|_| Mutex::new(None)).collect();

    let stats = team.run_supersteps("kmer-analysis/sketch", |ctx, step| {
        let rank = ctx.rank;
        if step == 0 {
            let mut hll = HyperLogLog::new(HLL_P);
            let mut mg = cfg.use_heavy_hitters.then(|| MisraGries::new(cfg.theta));
            for i in ctx.chunk(reads.len()) {
                let mut sampled = mg.as_mut().filter(|_| i % READ_SAMPLE == 0);
                for (_, _, canon) in codec.canonical_keys::<K>(&reads[i].as_ref().seq) {
                    let wide: Kmer = canon.into();
                    // The k-mer hasher of a key is `mix128` of its bits.
                    let hash = hipmer_dna::mix128(wide.bits());
                    hll.observe(hash);
                    if let Some(mg) = sampled.as_mut() {
                        mg.observe_hashed(canon, hash);
                    }
                    ctx.stats.compute(1);
                }
            }
            *summaries[rank].lock().unwrap() = Some((hll, mg));
        } else {
            let stride = 1 << (step - 1);
            if rank % (2 * stride) == stride {
                ctx.access(rank - stride, summary_bytes);
            } else if rank % (2 * stride) == 0 && rank + stride < ranks {
                let (h, m) = summaries[rank + stride]
                    .lock()
                    .unwrap()
                    .take()
                    .expect("sent");
                let mut mine = summaries[rank].lock().unwrap();
                let (hll, mg) = mine.as_mut().expect("own summary");
                hll.merge(&h);
                if let (Some(mg), Some(m)) = (mg, m) {
                    mg.merge(&m);
                }
            }
        }
        (1 << step) < ranks
    });

    let (hll, mg) = summaries
        .into_iter()
        .next()
        .and_then(|root| root.into_inner().unwrap())
        .expect("at least one rank");
    // One compute op per occurrence streamed.
    let stream_len = stats.iter().map(|s| s.compute_ops).sum();
    let (heavy_hitters, hot_keys) = mg.map_or_else(Default::default, |mg| {
        let heavy = mg.heavy_hitters(sampled_heavy_threshold(stream_len, ranks));
        (heavy.into_iter().map(|(k, _)| k).collect(), hot_keys(&mg))
    });

    let result = SketchResult {
        cardinality: hll.estimate(),
        heavy_hitters,
        stream_len,
    };
    let report =
        PhaseReport::new("kmer-analysis/sketch", *team.topo(), stats).with_hot_keys(hot_keys);
    (result, report)
}

/// The [`HOT_KEYS`] heaviest k-mers of the merged summary that stand above
/// its noise (a sampled count over the N/θ it may undercount by), as
/// `(key_hash, sampled count × READ_SAMPLE)`: heaviest first, ties by
/// hash, so every key type reports the same list. The hash is the one the
/// sketch fed the summary, `mix128` of the widened bits, which is also the
/// k-mer's `DistHashMap::key_hash`.
fn hot_keys<K: KmerKey>(mg: &MisraGries<K>) -> Vec<(u64, u64)> {
    let noise = mg.error_bound();
    let mut hot: Vec<(u64, u64)> = (mg.items())
        .filter(|&(_, count)| count > noise)
        .map(|(k, count)| (MisraGries::item_hash(k), count * READ_SAMPLE as u64))
        .collect();
    let heaviest_first = |a: &(u64, u64), b: &(u64, u64)| b.1.cmp(&a.1).then(a.0.cmp(&b.0));
    if hot.len() > HOT_KEYS {
        hot.select_nth_unstable_by(HOT_KEYS - 1, heaviest_first);
        hot.truncate(HOT_KEYS);
    }
    hot.sort_unstable_by(heaviest_first);
    hot
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipmer_pgas::Topology;

    fn reads_from(seqs: &[&[u8]]) -> Vec<SeqRecord> {
        seqs.iter()
            .enumerate()
            .map(|(i, s)| SeqRecord::with_uniform_quality(format!("r{i}"), s.to_vec(), 35))
            .collect()
    }

    #[test]
    fn cardinality_close_to_truth() {
        // A long random-ish sequence: distinct 21-mers ≈ length - k + 1.
        let mut seq = Vec::new();
        let mut x: u64 = 12345;
        for _ in 0..50_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seq.push(b"ACGT"[(x >> 60) as usize % 4]);
        }
        let reads = reads_from(&[&seq]);
        let team = Team::new(Topology::new(4, 2));
        let cfg = KmerAnalysisConfig::new(21);
        let (res, report) = sketch_reads(&team, &reads, &cfg);
        // Its ~50,000 distinct k-mers overfill θ = 32,000 counters: each
        // count the summary keeps is noise, and no key is reported hot.
        assert!(report.hot_keys.is_empty(), "{:?}", report.hot_keys);
        let truth = {
            let codec = KmerCodec::new(21);
            let set: KmerHashSet<Kmer> = codec
                .kmers(&seq)
                .map(|(_, km)| codec.canonical(km))
                .collect();
            set.len() as f64
        };
        let err = (res.cardinality - truth).abs() / truth;
        assert!(err < 0.05, "cardinality {} vs {truth}", res.cardinality);
    }

    #[test]
    fn heavy_hitters_found_in_skewed_stream() {
        // One 31-mer repeated thousands of times amid unique sequence.
        let unit = b"ACGTTGCAAGGCTTAGCGTACGATCCAGGTA"; // 31 bases
        let mut seqs: Vec<Vec<u8>> = Vec::new();
        for _ in 0..2000 {
            seqs.push(unit.to_vec());
        }
        let mut x: u64 = 99;
        for _ in 0..200 {
            let mut s = Vec::new();
            for _ in 0..100 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                s.push(b"ACGT"[(x >> 60) as usize % 4]);
            }
            seqs.push(s);
        }
        let reads: Vec<SeqRecord> = seqs
            .iter()
            .enumerate()
            .map(|(i, s)| SeqRecord::with_uniform_quality(format!("r{i}"), s.clone(), 35))
            .collect();
        let team = Team::new(Topology::new(3, 3));
        let mut cfg = KmerAnalysisConfig::new(31);
        cfg.theta = 512;
        let (res, report) = sketch_reads(&team, &reads, &cfg);
        // 2,000 of 16,000 occurrences, T = ⌈N/(16·3)⌉ = 334. The sample
        // holds 125 tandem reads and 13 background ones (1,035
        // occurrences): far above ⌈T/16⌉ = 21 even after the summary's
        // N/θ = 2 undercount.
        assert_eq!(res.stream_len, 16_000);
        assert_eq!(heavy_threshold(res.stream_len, 3), 334);
        assert_eq!(sampled_heavy_threshold(res.stream_len, 3), 21);
        let codec = KmerCodec::new(31);
        let hot = codec.canonical(codec.pack(unit).unwrap());
        assert!(
            res.heavy_hitters.contains(&hot),
            "the tandem k-mer must be flagged"
        );
        // The unique background must not flood the set.
        assert!(res.heavy_hitters.len() < 10, "{}", res.heavy_hitters.len());
        // The report names it first, by the hash its vote-table owner is
        // chosen by, at its sampled count (125 less at most N/θ = 2)
        // scaled back to the stream.
        let (hash, count) = report.hot_keys[0];
        assert_eq!(hash, hipmer_dna::mix128(hot.bits()));
        assert!((123 * 16..=125 * 16).contains(&count), "{count}");
    }

    #[test]
    fn heavy_means_a_sixteenth_of_the_mean_owner_load() {
        // Two 21-mers (one-k-mer reads) amid unique background at four
        // ranks, N = 6,000: T = ⌈N/64⌉ = 94, and the sample's threshold is
        // ⌈T/16⌉ = 6. Each k-mer also fills 88 reads outside the sample;
        // only the sampled reads decide: `hot` sits in exactly 6 of them,
        // `warm` in 5. θ exceeds the distinct sampled k-mers, so the
        // summary counts exactly.
        let hot = b"ACGTTGCAAGGCTTAGCGTAC";
        let warm = b"TTGCAAGGCTTAGCGTACGAT";
        let mut x: u64 = 7;
        let mut seqs: Vec<Vec<u8>> = (0..6_000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (0..21)
                    .map(|i| b"ACGT"[(x >> (2 * i)) as usize % 4])
                    .collect()
            })
            .collect();
        for j in 0..88 {
            seqs[READ_SAMPLE * j + 1] = hot.to_vec();
            seqs[READ_SAMPLE * j + 2] = warm.to_vec();
        }
        for j in 0..6 {
            seqs[READ_SAMPLE * j] = hot.to_vec();
        }
        for j in 6..11 {
            seqs[READ_SAMPLE * j] = warm.to_vec();
        }
        let reads = reads_from(&seqs.iter().map(|s| &s[..]).collect::<Vec<_>>());
        let team = Team::new(Topology::new(4, 2));
        let mut cfg = KmerAnalysisConfig::new(21);
        cfg.theta = 8_192;
        let (res, _) = sketch_reads(&team, &reads, &cfg);
        assert_eq!(res.stream_len, 6_000);
        assert_eq!(heavy_threshold(res.stream_len, 4), 94);
        assert_eq!(sampled_heavy_threshold(res.stream_len, 4), 6);
        let codec = KmerCodec::new(21);
        let key = |s: &[u8]| codec.canonical(codec.pack(s).unwrap());
        assert!(res.heavy_hitters.contains(&key(hot)));
        assert!(!res.heavy_hitters.contains(&key(warm)));
        // The sample is fixed by read index, not by the machine shape.
        for topo in [Topology::new(1, 1), Topology::new(7, 3)] {
            let (other, _) = sketch_reads(&Team::new(topo), &reads, &cfg);
            let want = sampled_heavy_threshold(6_000, topo.ranks());
            let sampled = |s: &[u8]| (0..11).filter(|&j| seqs[READ_SAMPLE * j] == s).count();
            for s in [&hot[..], &warm[..]] {
                let heavy = other.heavy_hitters.contains(&key(s));
                assert_eq!(heavy, sampled(s) as u64 >= want, "{topo:?}");
            }
        }
    }

    #[test]
    fn disabled_heavy_hitters_yields_empty_set() {
        let reads = reads_from(&[b"ACGTACGTACGTACGTACGTACGTACGTACGTACGT"]);
        let team = Team::new(Topology::new(2, 2));
        let mut cfg = KmerAnalysisConfig::new(21);
        cfg.use_heavy_hitters = false;
        let (res, report) = sketch_reads(&team, &reads, &cfg);
        assert!(res.heavy_hitters.is_empty());
        assert!(report.hot_keys.is_empty());
        assert!(res.stream_len > 0);
    }
}
