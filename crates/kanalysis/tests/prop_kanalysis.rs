//! Property tests for k-mer analysis: counts must match a serial
//! reference implementation for arbitrary read sets, and the optimization
//! toggles must never change results.

use hipmer_dna::{Kmer, KmerCodec, KmerHashMap, BASES};
use hipmer_kanalysis::{analyze_kmers, KmerAnalysisConfig};
use hipmer_pgas::{Team, Topology};
use hipmer_seqio::SeqRecord;
use proptest::prelude::*;

fn reads_strategy() -> impl Strategy<Value = Vec<SeqRecord>> {
    prop::collection::vec(
        prop::collection::vec(prop::sample::select(&BASES[..]), 25..120),
        1..40,
    )
    .prop_map(|seqs| {
        // Duplicate every sequence so interior k-mers clear min_count=2.
        seqs.into_iter()
            .enumerate()
            .flat_map(|(i, s)| {
                vec![
                    SeqRecord::with_uniform_quality(format!("r{i}a"), s.clone(), 35),
                    SeqRecord::with_uniform_quality(format!("r{i}b"), s, 35),
                ]
            })
            .collect()
    })
}

fn reference_counts(reads: &[SeqRecord], k: usize, min: u32) -> KmerHashMap<Kmer, u32> {
    let codec = KmerCodec::new(k);
    let mut m: KmerHashMap<Kmer, u32> = KmerHashMap::default();
    for r in reads {
        for (_, km) in codec.kmers(&r.seq) {
            *m.entry(codec.canonical(km)).or_insert(0) += 1;
        }
    }
    m.retain(|_, c| *c >= min);
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn counts_match_serial_reference(reads in reads_strategy(), ranks in 1usize..12) {
        let k = 21;
        let team = Team::new(Topology::new(ranks, 4));
        let cfg = KmerAnalysisConfig::new(k);
        let (spectrum, _) = analyze_kmers(&team, &reads, &cfg);
        let reference = reference_counts(&reads, k, hipmer_kanalysis::count::MIN_COUNT);
        prop_assert_eq!(spectrum.distinct(), reference.len());
        let got: KmerHashMap<Kmer, u32> = spectrum
            .table
            .into_entries()
            .into_iter()
            .map(|(km, e)| (km, e.count))
            .collect();
        prop_assert_eq!(got, reference);
    }

    #[test]
    fn toggles_do_not_change_results(
        reads in reads_strategy(),
        use_bloom in any::<bool>(),
        use_hh in any::<bool>(),
        batch in 1usize..512,
    ) {
        let team = Team::new(Topology::new(5, 3));
        let base = KmerAnalysisConfig::new(21);
        let mut varied = base.clone();
        varied.use_bloom = use_bloom;
        varied.use_heavy_hitters = use_hh;
        varied.agg_batch = batch;
        varied.theta = 128;
        varied.hh_min_reported = 2;
        let (s1, _) = analyze_kmers(&team, &reads, &base);
        let (s2, _) = analyze_kmers(&team, &reads, &varied);
        let mut a: Vec<(Kmer, u32)> = s1.table.into_entries().into_iter().map(|(k, e)| (k, e.count)).collect();
        let mut b: Vec<(Kmer, u32)> = s2.table.into_entries().into_iter().map(|(k, e)| (k, e.count)).collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }
}
