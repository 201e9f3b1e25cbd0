//! Scheduling ablation: static vs dynamic work dealing on deliberately
//! skewed workloads (the tentpole experiment for the dynamic scheduler).
//!
//! Two skew-prone stages are driven at P ∈ {4, 16, 64} under both
//! schedules, and the per-stage modeled **imbalance** (max over ranks of
//! priced seconds / mean) is recorded to `BENCH_scaling.json`:
//!
//! 1. **Cooperative traversal** under oracle placement of a long-tail
//!    contig population: one contig covers ~60% of the genome, so the
//!    oracle co-locates most of the graph on one rank. Static local-bucket
//!    seeding makes that rank walk its whole region alone; the dynamic
//!    schedule pools all seeds and deals them as guided chunks, so every
//!    rank walks a fair share (at the price of remote claims — the
//!    locality/balance trade-off is visible in the modeled seconds, which
//!    this bench records but does not gate on).
//!
//! 2. **Gap closing** on a gap population whose closure costs are
//!    long-tailed (a few junctions attract two orders of magnitude more
//!    candidate reads) *and* periodic: a heavy gap recurs every 16th
//!    junction, so static round-robin dealing resonates with the rank
//!    count and piles the heavy gaps onto few ranks. The dynamic schedule
//!    deals gaps as guided chunks weighted by flanking contig length (the
//!    locally computable cost proxy) and is immune to the resonance.
//!
//! Both stages must produce **byte-identical** output under the two
//! schedules — asserted here, at every concurrency. At P = 16 the dynamic
//! schedule must cut the modeled imbalance of both stages (asserted with
//! margin; these are the regression gates CI runs in fast mode).

use hipmer_bench::{banner, fast, model, scaled};
use hipmer_contig::{build_graph, build_oracle, traverse_graph, ContigConfig, ContigSet};
use hipmer_kanalysis::{analyze_kmers, KmerAnalysisConfig};
use hipmer_pgas::json::Value;
use hipmer_pgas::{Schedule, Team, Topology};
use hipmer_scaffold::{close_gaps, GapCloseConfig, Scaffold, ScaffoldMember};
use hipmer_seqio::SeqRecord;
use std::sync::Arc;

fn lcg_seq(len: usize, seed: u64) -> Vec<u8> {
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

/// Tile a fragment with perfect reads (two offset passes ~ depth 4).
fn tile_reads(fragment: &[u8], read_len: usize, tag: &str, out: &mut Vec<SeqRecord>) {
    for off in [0usize, read_len / 2] {
        let mut pos = off;
        while pos + read_len <= fragment.len() {
            out.push(SeqRecord::with_uniform_quality(
                format!("{tag}_{pos}"),
                fragment[pos..pos + read_len].to_vec(),
                35,
            ));
            pos += read_len / 2;
        }
    }
}

struct Row {
    stage: &'static str,
    ranks: usize,
    schedule: Schedule,
    imbalance: f64,
    steal_ops: u64,
    modeled_seconds: f64,
}

fn row_json(r: &Row) -> Value {
    let mut v = Value::obj();
    v.set("stage", r.stage)
        .set("ranks", r.ranks)
        .set("schedule", r.schedule.to_string())
        .set("imbalance", r.imbalance)
        .set("steal_ops", r.steal_ops)
        .set("modeled_seconds", r.modeled_seconds);
    v
}

/// Traversal section: long-tail contigs + oracle placement.
fn traversal_rows(concurrencies: &[usize], rows: &mut Vec<Row>) {
    let m = model();
    let total = scaled(80_000);
    let giant_len = total * 60 / 100;
    let n_small = 32;
    let small_len = (total - giant_len) / n_small;

    // Long-tail fragment population: one giant + many small. Fragments
    // are unrelated random sequences, so each assembles into its own
    // contig and the oracle places each contig wholly on one rank.
    let mut fragments: Vec<Vec<u8>> = vec![lcg_seq(giant_len, 4242)];
    for i in 0..n_small {
        fragments.push(lcg_seq(small_len, 9000 + i as u64));
    }
    let mut reads = Vec::new();
    for (i, f) in fragments.iter().enumerate() {
        tile_reads(f, 100, &format!("f{i}"), &mut reads);
    }
    let k = 31;
    println!(
        "traversal workload: {} bp in {} fragments (giant = {} bp, {:.0}%), {} reads",
        total,
        fragments.len(),
        giant_len,
        100.0 * giant_len as f64 / total as f64,
        reads.len()
    );
    println!(
        "\n{:>7} {:>14} {:>14} {:>12} {:>14} {:>14}",
        "cores", "static imb", "dynamic imb", "steals", "static (s)", "dynamic (s)"
    );

    for &ranks in concurrencies {
        let topo = Topology::edison(ranks);
        let team = Team::new(topo);
        let (spectrum, _) = analyze_kmers(&team, &reads, &KmerAnalysisConfig::new(k));

        // Draft assembly (cyclic) feeds the oracle, exactly as the oracle
        // benches do; the oracle then co-locates whole contigs.
        let cfg = ContigConfig::default();
        let (draft_graph, _) = build_graph(&team, &spectrum, None);
        let (draft, _) = traverse_graph(&team, &draft_graph, &cfg);
        let oracle = Arc::new(build_oracle(&draft, &topo, (total / 2).next_power_of_two()));

        let mut sets: Vec<ContigSet> = Vec::new();
        let mut imb = [0.0f64; 2];
        let mut secs = [0.0f64; 2];
        let mut steals = 0u64;
        for (i, schedule) in [Schedule::Static, Schedule::Dynamic]
            .into_iter()
            .enumerate()
        {
            let ocfg = ContigConfig {
                oracle: Some(oracle.clone()),
                schedule,
                ..ContigConfig::default()
            };
            let (graph, _) = build_graph(&team, &spectrum, ocfg.oracle.clone());
            let (set, report) = traverse_graph(&team, &graph, &ocfg);
            imb[i] = report.imbalance(&m);
            secs[i] = report.modeled(&m).total();
            if schedule == Schedule::Dynamic {
                steals = report.totals().steal_ops;
            }
            rows.push(Row {
                stage: "contig/traversal",
                ranks,
                schedule,
                imbalance: imb[i],
                steal_ops: report.totals().steal_ops,
                modeled_seconds: secs[i],
            });
            sets.push(set);
        }
        let seqs =
            |s: &ContigSet| -> Vec<Vec<u8>> { s.contigs.iter().map(|c| c.seq.clone()).collect() };
        assert_eq!(
            seqs(&sets[0]),
            seqs(&sets[1]),
            "schedules must emit identical contigs at P={ranks}"
        );
        println!(
            "{:>7} {:>14.2} {:>14.2} {:>12} {:>14.4} {:>14.4}",
            ranks, imb[0], imb[1], steals, secs[0], secs[1]
        );
        if ranks == 16 {
            assert!(
                imb[1] < imb[0] * 0.6,
                "dynamic must cut traversal imbalance at P=16: {:.2} vs {:.2}",
                imb[1],
                imb[0]
            );
        }
    }
}

/// One junction of the gap-closing workload: two flanking contigs with a
/// 300 bp gap, tiled with reads whose density sets the closure cost.
#[allow(clippy::too_many_arguments)]
fn make_junction(
    a_len: usize,
    b_len: usize,
    read_step: usize,
    seed: u64,
    contig_seqs: &mut Vec<Vec<u8>>,
    members: &mut Vec<(usize, usize, i64)>,
    reads: &mut Vec<SeqRecord>,
    alignments: &mut Vec<(usize, u32, u32, u32, u32, u32)>,
) {
    const GAP: usize = 300;
    const READ_LEN: usize = 90;
    let a = lcg_seq(a_len, seed);
    let b = lcg_seq(b_len, seed.wrapping_mul(31) + 7);
    let mut genome = a.clone();
    genome.extend_from_slice(&lcg_seq(GAP, seed.wrapping_mul(17) + 3));
    genome.extend_from_slice(&b);

    let a_id = contig_seqs.len();
    contig_seqs.push(a);
    let b_id = contig_seqs.len();
    contig_seqs.push(b);
    members.push((a_id, b_id, GAP as i64));

    // Reads tile the junction region; denser tiling means more candidate
    // reads per gap and therefore a costlier closure.
    let lo = a_len.saturating_sub(200);
    let hi = a_len + GAP + 200.min(b_len) - READ_LEN;
    let mut pos = lo;
    while pos + READ_LEN <= hi + READ_LEN && pos + READ_LEN <= genome.len() {
        let idx = reads.len() as u32;
        reads.push(SeqRecord::with_uniform_quality(
            format!("j{seed}_{pos}"),
            genome[pos..pos + READ_LEN].to_vec(),
            35,
        ));
        // Alignment wherever the read overlaps a flanking contig.
        if pos < a_len {
            let ce = a_len.min(pos + READ_LEN);
            alignments.push((a_id, idx, 0, (ce - pos) as u32, pos as u32, ce as u32));
        }
        let b_start = a_len + GAP;
        if pos + READ_LEN > b_start {
            let rs = b_start.saturating_sub(pos);
            alignments.push((
                b_id,
                idx,
                rs as u32,
                READ_LEN as u32,
                (pos + rs - b_start) as u32,
                (pos + READ_LEN - b_start) as u32,
            ));
        }
        pos += read_step;
    }
}

/// Gap-closing section: long-tail closure costs with a heavy gap every
/// 16th junction (round-robin resonance).
fn gapclose_rows(concurrencies: &[usize], rows: &mut Vec<Row>) {
    use hipmer_align::Alignment;
    use hipmer_dna::KmerCodec;

    let m = model();
    const N_GAPS: usize = 80;
    const HEAVY_PERIOD: usize = 16;

    let mut contig_seqs: Vec<Vec<u8>> = Vec::new();
    let mut members: Vec<(usize, usize, i64)> = Vec::new();
    let mut reads: Vec<SeqRecord> = Vec::new();
    let mut raw_alns: Vec<(usize, u32, u32, u32, u32, u32)> = Vec::new();
    let mut n_heavy = 0usize;
    for j in 0..N_GAPS {
        let heavy = j % HEAVY_PERIOD == 0;
        n_heavy += heavy as usize;
        // Heavy junctions: 20 kb flanks, read every 2 bp (hundreds of
        // candidates). Light junctions: 1 kb flanks, read every 150 bp.
        let (len, step) = if heavy { (20_000, 2) } else { (1_000, 150) };
        make_junction(
            len,
            len,
            step,
            1000 + j as u64,
            &mut contig_seqs,
            &mut members,
            &mut reads,
            &mut raw_alns,
        );
    }
    println!(
        "\ngap-closing workload: {} gaps ({} heavy, one every {}th), {} reads",
        N_GAPS,
        n_heavy,
        HEAVY_PERIOD,
        reads.len()
    );

    // Assemble the pieces into the scaffolder's data model. `ContigSet`
    // keeps sequences as given, so ids can be resolved by equality.
    let contigs = ContigSet::from_sequences(KmerCodec::new(21), contig_seqs.clone());
    let id_of = |seq: &Vec<u8>| -> u32 {
        contigs.contigs.iter().position(|c| &c.seq == seq).unwrap() as u32
    };
    let scaffolds: Vec<Scaffold> = members
        .iter()
        .map(|&(a, b, gap)| Scaffold {
            members: vec![
                ScaffoldMember {
                    contig: id_of(&contig_seqs[a]),
                    reversed: false,
                    gap_before: 0,
                },
                ScaffoldMember {
                    contig: id_of(&contig_seqs[b]),
                    reversed: false,
                    gap_before: gap,
                },
            ],
        })
        .collect();
    let mut alignments: Vec<Alignment> = raw_alns
        .iter()
        .map(|&(cid, read, rs, re, cs, ce)| Alignment {
            read,
            contig: id_of(&contig_seqs[cid]),
            read_start: rs,
            read_end: re,
            contig_start: cs,
            contig_end: ce,
            rc: false,
            matches: re - rs,
            read_len: 90,
        })
        .collect();
    alignments.sort_by_key(|a| (a.read, a.contig, a.contig_start));

    println!(
        "{:>7} {:>14} {:>14} {:>12} {:>14} {:>14}",
        "cores", "static imb", "dynamic imb", "steals", "static (s)", "dynamic (s)"
    );
    for &ranks in concurrencies {
        let team = Team::new(Topology::edison(ranks));
        let mut outputs: Vec<Vec<Vec<u8>>> = Vec::new();
        let mut imb = [0.0f64; 2];
        let mut secs = [0.0f64; 2];
        let mut steals = 0u64;
        for (i, schedule) in [Schedule::Static, Schedule::Dynamic]
            .into_iter()
            .enumerate()
        {
            let cfg = GapCloseConfig {
                schedule,
                ..Default::default()
            };
            let (set, _, report) =
                close_gaps(&team, &contigs, &scaffolds, &alignments, &reads, &cfg);
            imb[i] = report.imbalance(&m);
            secs[i] = report.modeled(&m).total();
            if schedule == Schedule::Dynamic {
                steals = report.totals().steal_ops;
            }
            rows.push(Row {
                stage: "scaffold/gap-closing",
                ranks,
                schedule,
                imbalance: imb[i],
                steal_ops: report.totals().steal_ops,
                modeled_seconds: secs[i],
            });
            outputs.push(set.sequences);
        }
        assert_eq!(
            outputs[0], outputs[1],
            "schedules must emit identical scaffolds at P={ranks}"
        );
        println!(
            "{:>7} {:>14.2} {:>14.2} {:>12} {:>14.4} {:>14.4}",
            ranks, imb[0], imb[1], steals, secs[0], secs[1]
        );
        if ranks == 16 {
            assert!(
                imb[1] < imb[0] * 0.8,
                "dynamic must cut gap-closing imbalance at P=16: {:.2} vs {:.2}",
                imb[1],
                imb[0]
            );
        }
    }
}

fn main() {
    banner(
        "Scheduling ablation",
        "static vs dynamic work dealing on skewed traversal + gap closing",
    );
    let concurrencies: Vec<usize> = if fast() { vec![16] } else { vec![4, 16, 64] };

    let mut rows: Vec<Row> = Vec::new();
    traversal_rows(&concurrencies, &mut rows);
    gapclose_rows(&concurrencies, &mut rows);

    let mut doc = Value::obj();
    doc.set("schema_version", 1u64)
        .set("bench", "scaling_schedule");
    hipmer_bench::stamp(&mut doc);
    doc.set(
        "rows",
        Value::Arr(rows.iter().map(row_json).collect::<Vec<_>>()),
    );
    std::fs::write("BENCH_scaling.json", doc.to_json()).unwrap();
    println!(
        "\n(identical outputs under both schedules at every concurrency; wrote BENCH_scaling.json)"
    );
}
