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

/// A k-mer is a heavy hitter when its merged Misra–Gries count is at least
/// `1 / OWNER_LOAD_SHARE` of the mean owner load `N / P`: a k-mer that
/// heavy can unbalance the rank that owns it (Fig. 6), and one below it
/// cannot, so shipping it as one partial per rank would only cost.
const OWNER_LOAD_SHARE: u64 = 16;

/// The smallest merged count that makes a k-mer heavy in a stream of
/// `stream_len` occurrences over `ranks` owners: ⌈N / (16·P)⌉.
fn heavy_threshold(stream_len: u64, ranks: usize) -> u64 {
    stream_len.div_ceil(OWNER_LOAD_SHARE * ranks as u64).max(1)
}

/// One rank's sketches, merged up the reduction tree: the HyperLogLog
/// registers and, with heavy hitters on, the Misra–Gries summary.
type Summary<K> = (HyperLogLog, Option<MisraGries<K>>);

/// Stream every rank's chunk of `reads` through the sketches and merge.
///
/// The reduction is a binomial tree inside the phase: in superstep `s`,
/// rank `r` with `r mod 2^s = 0` merges the summary of rank `r + 2^(s-1)`,
/// which ships it as one message of summary size (θ entries + the HLL
/// registers) — the mergeable-summaries parallelization of
/// Cafaro–Tempesta, ⌈log₂ P⌉ merges deep.
pub fn sketch_reads(
    team: &Team,
    reads: &[SeqRecord],
    cfg: &KmerAnalysisConfig,
) -> (SketchResult, PhaseReport) {
    sketch_pass(team, reads, cfg)
}

/// [`sketch_reads`] over keys of type `K`: the same sketches, fed the same
/// hashes, so the heavy hitters are the same k-mers in either key type.
pub(crate) fn sketch_pass<K: KmerKey>(
    team: &Team,
    reads: &[SeqRecord],
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
            let chunk = ctx.chunk(reads.len());
            for read in &reads[chunk] {
                for (_, _, canon) in codec.canonical_keys::<K>(&read.seq) {
                    let wide: Kmer = canon.into();
                    // The k-mer hasher of a key is `mix128` of its bits.
                    let hash = hipmer_dna::mix128(wide.bits());
                    hll.observe(hash);
                    if let Some(mg) = &mut mg {
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
    let heavy = mg.map_or_else(Vec::new, |mg| {
        mg.heavy_hitters(heavy_threshold(stream_len, ranks))
    });
    let heavy_hitters: KmerHashSet<K> = heavy.into_iter().map(|(k, _)| k).collect();

    let result = SketchResult {
        cardinality: hll.estimate(),
        heavy_hitters,
        stream_len,
    };
    let report = PhaseReport::new("kmer-analysis/sketch", *team.topo(), stats);
    (result, report)
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
        let (res, _) = sketch_reads(&team, &reads, &cfg);
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
        let (res, _) = sketch_reads(&team, &reads, &cfg);
        // 2,000 of 16,000 occurrences: far above N/(16·3) = 334 even after
        // the summary's N/θ = 31 undercount.
        assert_eq!(res.stream_len, 16_000);
        assert_eq!(heavy_threshold(res.stream_len, 3), 334);
        let codec = KmerCodec::new(31);
        let hot = codec.canonical(codec.pack(unit).unwrap());
        assert!(
            res.heavy_hitters.contains(&hot),
            "the tandem k-mer must be flagged"
        );
        // The unique background must not flood the set.
        assert!(res.heavy_hitters.len() < 10, "{}", res.heavy_hitters.len());
    }

    #[test]
    fn heavy_means_a_sixteenth_of_the_mean_owner_load() {
        // Two 21-mers (one-k-mer reads) amid unique background at four
        // ranks: one at exactly ⌈N/64⌉ occurrences, one just short of it.
        // θ exceeds the distinct k-mers, so the summary counts exactly.
        let hot = b"ACGTTGCAAGGCTTAGCGTAC";
        let warm = b"TTGCAAGGCTTAGCGTACGAT";
        let mut seqs: Vec<Vec<u8>> = vec![hot.to_vec(); 94];
        seqs.extend(vec![warm.to_vec(); 93]);
        let mut x: u64 = 7;
        for _ in 0..5_813 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            seqs.push(
                (0..21)
                    .map(|i| b"ACGT"[(x >> (2 * i)) as usize % 4])
                    .collect(),
            );
        }
        let reads = reads_from(&seqs.iter().map(|s| &s[..]).collect::<Vec<_>>());
        let team = Team::new(Topology::new(4, 2));
        let mut cfg = KmerAnalysisConfig::new(21);
        cfg.theta = 8_192;
        let (res, _) = sketch_reads(&team, &reads, &cfg);
        assert_eq!(res.stream_len, 6_000);
        assert_eq!(heavy_threshold(res.stream_len, 4), 94);
        let codec = KmerCodec::new(21);
        let key = |s: &[u8]| codec.canonical(codec.pack(s).unwrap());
        assert!(res.heavy_hitters.contains(&key(hot)));
        assert!(!res.heavy_hitters.contains(&key(warm)));
    }

    #[test]
    fn disabled_heavy_hitters_yields_empty_set() {
        let reads = reads_from(&[b"ACGTACGTACGTACGTACGTACGTACGTACGTACGT"]);
        let team = Team::new(Topology::new(2, 2));
        let mut cfg = KmerAnalysisConfig::new(21);
        cfg.use_heavy_hitters = false;
        let (res, _) = sketch_reads(&team, &reads, &cfg);
        assert!(res.heavy_hitters.is_empty());
        assert!(res.stream_len > 0);
    }
}
