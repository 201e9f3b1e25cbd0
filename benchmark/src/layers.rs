//! Layer microbenches: each times one public call of one layer, at 1 and
//! 2 OS threads where the layer is threaded. They run in the parent during
//! a `--trace 1` run and feed the per-layer metrics; none of them is an
//! end-to-end number (README, "How the metrics interact", says which
//! end-to-end metric each should move).

use crate::workloads::{splitmix64, RANKS, RANKS_PER_NODE};
use hipmer::checkpoint::{decode_spectrum, encode_spectrum};
use hipmer_align::{banded_sw_with, SwParams, SwWorkspace};
use hipmer_dna::{Kmer, KmerCodec};
use hipmer_kanalysis::{analyze_kmers, KmerAnalysisConfig};
use hipmer_pgas::{AggregatingStores, DistHashMap, PartitionScheme, Team, Topology};
use hipmer_seqio::parse_fastq;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Keys each rank merges / looks up per timed phase.
const KEYS_PER_RANK: usize = 8_192;
/// `Team::run_named` calls per empty-phase sample.
const EMPTY_PHASES: usize = 2_000;
/// Reads of the first library the checkpoint codec's spectrum is built from.
const SPECTRUM_READS: usize = 30_000;

/// Median seconds of one call of `f`, sampled for about `budget`
/// (at least three calls, after one untimed warm-up call).
fn median_seconds(budget: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || start.elapsed() < budget {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    crate::stats::median(&samples)
}

fn lcg_bases(len: usize, mut x: u64) -> Vec<u8> {
    (0..len)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(9);
            b"ACGT"[(x >> 60) as usize % 4]
        })
        .collect()
}

fn team(threads: usize) -> Team {
    Team::new(Topology::new(RANKS, RANKS_PER_NODE)).with_os_threads(threads)
}

/// Run every microbench; `seconds` is the run's `--seconds`, of which each
/// microbench gets a fiftieth (0.5 s at the benchmark's 25 s).
pub fn measure(first_fastq: &Path, seconds: u64) -> Result<Vec<(String, f64)>, String> {
    let budget = Duration::from_secs_f64(seconds as f64 / 50.0);
    let mut out: Vec<(String, f64)> = Vec::new();
    let topo = Topology::new(RANKS, RANKS_PER_NODE);

    // Per-rank key sets, and the same keys grouped by owner the way an
    // aggregated message arrives.
    let table: DistHashMap<Kmer, u32> = DistHashMap::new(topo);
    let keys: Vec<Vec<Kmer>> = (0..RANKS)
        .map(|r| {
            (0..KEYS_PER_RANK)
                .map(|i| Kmer(splitmix64((r * KEYS_PER_RANK + i) as u64) as u128))
                .collect()
        })
        .collect();
    let grouped: Vec<Vec<Vec<(Kmer, u32)>>> = keys
        .iter()
        .map(|mine| {
            let mut by_owner = vec![Vec::new(); RANKS];
            for &k in mine {
                by_owner[table.owner(&k)].push((k, 1u32));
            }
            by_owner
        })
        .collect();
    let ops = (RANKS * KEYS_PER_RANK) as f64;

    for threads in [1usize, 2] {
        let team = team(threads);

        // The per-phase cost of `Team::run_named`: thread spawn + join +
        // the implicit barrier, with no work inside.
        let s = median_seconds(budget, || {
            for _ in 0..EMPTY_PHASES {
                black_box(team.run_named("bench/empty", |ctx| ctx.rank));
            }
        });
        out.push((
            format!("pgas.team.empty_phase_us_t{threads}"),
            s / EMPTY_PHASES as f64 * 1e6,
        ));

        // Write-mostly DHT use: one aggregated batch per owner per rank.
        let s = median_seconds(budget, || {
            team.run_named("bench/merge", |ctx| {
                for (dest, batch) in grouped[ctx.rank].iter().enumerate() {
                    table.merge_batch(dest, batch.clone(), |a, b| *a += b);
                }
            });
        });
        out.push((format!("pgas.dht.merge_mops_t{threads}"), ops / s / 1e6));

        // Read-mostly DHT use: one multi-get per rank over its keys.
        let s = median_seconds(budget, || {
            team.run_named("bench/multi-get", |ctx| {
                black_box(table.multi_get(ctx, &keys[ctx.rank]));
            });
        });
        out.push((format!("pgas.dht.multi_get_mops_t{threads}"), ops / s / 1e6));
    }

    // The aggregation layer above the DHT: push → buffer → ship → merge.
    let team2 = team(2);
    let s = median_seconds(budget, || {
        team2.run_named("bench/agg-push", |ctx| {
            let mut agg = AggregatingStores::new(&table, |a: &mut u32, b: u32| *a += b);
            for &k in &keys[ctx.rank] {
                agg.push(ctx, k, 1);
            }
            agg.finish(ctx);
        });
    });
    out.push(("pgas.agg.push_mitems_t2".to_string(), ops / s / 1e6));

    // Kernels, single-threaded.
    let codec = KmerCodec::new(31);
    let seq = lcg_bases(1_000_000, 1);
    let s = median_seconds(budget, || {
        let mut acc = 0u64;
        for (_, _, canon) in codec.canonical_kmers(&seq) {
            acc ^= canon.bits() as u64;
        }
        black_box(acc);
    });
    out.push((
        "dna.canonical_kmers_mkmers_per_s".to_string(),
        (seq.len() - 30) as f64 / s / 1e6,
    ));

    // Banded Smith–Waterman on a 200 bp read with two substitutions and an
    // indel (the general banded path, not the perfect-diagonal shortcut).
    // Cells are computed from the band, not counted: 200 rows × (2·band+1).
    let a = lcg_bases(200, 3);
    let mut b = a.clone();
    b[50] = if b[50] == b'A' { b'C' } else { b'A' };
    b[150] = if b[150] == b'G' { b'T' } else { b'G' };
    b.remove(100);
    let params = SwParams::default();
    let mut ws = SwWorkspace::new();
    const SW_CALLS: usize = 2_000;
    let s = median_seconds(budget, || {
        for _ in 0..SW_CALLS {
            black_box(banded_sw_with(
                &mut ws,
                black_box(&a),
                black_box(&b),
                &params,
            ));
        }
    });
    let cells = (SW_CALLS * a.len() * (2 * params.band + 1)) as f64;
    out.push(("align.sw_mcells_per_s".to_string(), cells / s / 1e6));

    // FASTQ parsing of the workload's own first library, from memory.
    let fastq =
        std::fs::read(first_fastq).map_err(|e| format!("{}: {e}", first_fastq.display()))?;
    let s = median_seconds(budget, || {
        black_box(parse_fastq(&fastq).map(|(records, _)| records.len()).ok());
    });
    out.push((
        "seqio.parse_fastq_mb_per_s".to_string(),
        fastq.len() as f64 / 1e6 / s,
    ));

    // The checkpoint codec, on the k = 31 spectrum of the library's first
    // reads.
    let (mut reads, _) = parse_fastq(&fastq)?;
    reads.truncate(SPECTRUM_READS);
    let (spectrum, _) = analyze_kmers(&team2, &reads, &KmerAnalysisConfig::new(31));
    let encoded = encode_spectrum(&spectrum);
    let s = median_seconds(budget, || {
        black_box(encode_spectrum(&spectrum));
    });
    out.push((
        "hipmer.checkpoint.encode_mb_per_s".to_string(),
        encoded.len() as f64 / 1e6 / s,
    ));
    decode_spectrum(&encoded, topo, PartitionScheme::Uniform)
        .map_err(|e| format!("checkpoint decode: {e}"))?;
    let s = median_seconds(budget, || {
        black_box(decode_spectrum(&encoded, topo, PartitionScheme::Uniform).is_ok());
    });
    out.push((
        "hipmer.checkpoint.decode_mb_per_s".to_string(),
        encoded.len() as f64 / 1e6 / s,
    ));

    Ok(out)
}
