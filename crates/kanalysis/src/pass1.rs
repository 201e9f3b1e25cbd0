//! Pass 1: cardinality estimation + heavy-hitter identification (§3.1).

use crate::config::KmerAnalysisConfig;
use hipmer_dna::{Kmer, KmerCodec, KmerHashSet, KmerKey};
use hipmer_pgas::{PhaseReport, Team};
use hipmer_seqio::SeqRecord;
use hipmer_sketch::{HyperLogLog, MisraGries};

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

/// Stream every rank's chunk of `reads` through the sketches and merge.
///
/// The reduction is modeled as each rank shipping its summary to rank 0
/// (size: θ entries + the HLL registers), which is how the
/// mergeable-summaries parallelization of Cafaro–Tempesta behaves.
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

    let (partials, mut stats) = team.run_named("kmer-analysis/sketch", |ctx| {
        let mut hll = HyperLogLog::new(HLL_P);
        let mut mg: MisraGries<K> = MisraGries::new(cfg.theta);
        let chunk = ctx.chunk(reads.len());
        for read in &reads[chunk] {
            for (_, _, canon) in codec.canonical_keys::<K>(&read.seq) {
                let wide: Kmer = canon.into();
                hll.observe(hipmer_dna::mix128(wide.bits()));
                if cfg.use_heavy_hitters {
                    mg.observe(canon);
                }
                ctx.stats.compute(1);
            }
        }
        // Ship the summary to the reduction root: one message of summary
        // size (the tree reduction's higher levels are asymptotically
        // negligible; the barrier term prices the log-depth sync).
        let summary_bytes = (cfg.theta * 24 + (1usize << HLL_P)) as u64;
        ctx.access(0, summary_bytes);
        (hll, mg)
    });

    // Merge on the "root".
    let mut iter = partials.into_iter();
    let (mut hll, mut mg) = iter.next().expect("at least one rank");
    for (h, m) in iter {
        hll.merge(&h);
        mg.merge(&m);
    }

    let heavy_hitters: KmerHashSet<K> = if cfg.use_heavy_hitters {
        mg.heavy_hitters(cfg.hh_min_reported)
            .into_iter()
            .map(|(k, _)| k)
            .collect()
    } else {
        KmerHashSet::default()
    };

    // Attribute the reads' I/O-equivalent compute: already counted above.
    for s in stats.iter_mut() {
        s.barriers += 1; // reduction sync
    }

    let result = SketchResult {
        cardinality: hll.estimate(),
        heavy_hitters,
        stream_len: mg.stream_len().max(
            // When MG is disabled the stream length comes from compute ops.
            stats.iter().map(|s| s.compute_ops).sum(),
        ),
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
        cfg.hh_min_reported = 100;
        let (res, _) = sketch_reads(&team, &reads, &cfg);
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
