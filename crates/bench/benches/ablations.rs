//! Ablations of the design choices DESIGN.md calls out.
//!
//! 1. Aggregating stores on/off — message counts in k-mer counting (§4.1's
//!    "aggregating stores" optimization).
//! 2. Bloom filter on/off — k-mer table entries created (the §3.1 memory
//!    claim: up to 85% fewer entries for single genomes, much less for
//!    metagenome-like flat spectra).
//! 3. Misra–Gries θ sweep 1K–64K — runtime sensitivity (<10% in §5.1).
//! 4. Oracle vector size sweep — collision rate vs memory (§3.2), plus
//!    the node-level coarsening refinement.
//! 5. Round-robin vs blocked gap distribution — gap-closing load balance
//!    (§4.8).
//! 9. Fault-tolerance overhead — checkpoint-interval × retry-budget sweep
//!    under seeded transient faults and a hard rank failure, with results
//!    recorded to `BENCH_fault_overhead.json`. All variants must produce
//!    byte-identical assemblies.
//!
//! Numbers 6, 7 and 8 are unused: what they compared is gone, and
//! EXPERIMENTS.md keeps their results.

use hipmer_bench::{banner, model, scaled};
use hipmer_contig::{build_graph, build_oracle, generate_contigs, traverse_graph, ContigConfig};
use hipmer_kanalysis::{analyze_kmers, KmerAnalysisConfig};
use hipmer_pgas::{Team, Topology};
use hipmer_readsim::{human_like_dataset, metagenome_dataset, wheat_like_dataset};
use hipmer_scaffold::{close_gaps, GapCloseConfig};
use std::sync::Arc;

fn main() {
    let k = 31;
    let ranks = 480;
    let team = Team::new(Topology::edison(ranks));
    let m = model();

    // ------------------------------------------------------------------
    banner(
        "Ablation 1",
        "aggregating stores: remote messages in k-mer counting",
    );
    let human = human_like_dataset(scaled(150_000), 12.0, true, 1001);
    let reads = human.all_reads();
    println!(
        "{:>10} {:>16} {:>14}",
        "batch", "remote msgs", "modeled (s)"
    );
    for batch in [1usize, 16, 256, 1024] {
        let mut cfg = KmerAnalysisConfig::new(k);
        cfg.agg_batch = batch;
        let (_, reports) = analyze_kmers(&team, &reads, &cfg);
        let msgs: u64 = reports.iter().map(|r| r.totals().remote_msgs()).sum();
        let secs: f64 = reports.iter().map(|r| r.modeled(&m).total()).sum();
        println!("{:>10} {:>16} {:>14.4}", batch, msgs, secs);
    }
    println!("(batch=1 is the no-aggregation baseline; messages drop ~linearly in batch)");

    // ------------------------------------------------------------------
    banner(
        "Ablation 2",
        "Bloom filter: k-mer table construction traffic",
    );
    for (label, dataset) in [
        (
            "human-like",
            human_like_dataset(scaled(150_000), 12.0, true, 1002),
        ),
        (
            "metagenome",
            metagenome_dataset(scaled(150_000), 40, 8.0, true, 1003),
        ),
    ] {
        let reads = dataset.all_reads();
        let mut survived = [0usize; 2];
        let mut service = [0u64; 2];
        for (i, use_bloom) in [true, false].into_iter().enumerate() {
            let mut cfg = KmerAnalysisConfig::new(k);
            cfg.use_bloom = use_bloom;
            let (spectrum, reports) = analyze_kmers(&team, &reads, &cfg);
            survived[i] = spectrum.distinct();
            service[i] = reports.iter().map(|r| r.totals().service_ops).sum();
        }
        assert_eq!(survived[0], survived[1], "spectra must agree");
        println!(
            "{label:<12} final k-mers {:>9}; table service ops with bloom {:>10}, without {:>10} ({:.2}x)",
            survived[0],
            service[0],
            service[1],
            service[1] as f64 / service[0].max(1) as f64
        );
    }
    println!("(the paper reports up to 85% table-memory savings on single genomes,");
    println!(" and weaker savings on metagenomes whose spectra are flat)");

    // ------------------------------------------------------------------
    banner(
        "Ablation 3",
        "Misra-Gries theta sweep on wheat-like data (\u{03b8} = 1K..64K)",
    );
    // Runtime must dwarf the per-rank summary send for the paper's
    // insensitivity claim to be visible (their runs take minutes; a 64K
    // summary is 1.5 MB ~ 1.5 ms on Edison).
    let wheat = wheat_like_dataset(scaled(600_000), 12.0, true, 1004);
    let wreads = wheat.all_reads();
    let theta_team = Team::new(Topology::edison(48));
    let mut times = Vec::new();
    for theta in [1_000usize, 8_000, 32_000, 64_000] {
        let mut cfg = KmerAnalysisConfig::new(k);
        cfg.theta = theta;
        let (_, reports) = analyze_kmers(&theta_team, &wreads, &cfg);
        let secs: f64 = reports.iter().map(|r| r.modeled(&m).total()).sum();
        times.push((theta, secs));
        println!("theta {:>7}: {:.4} s", theta, secs);
    }
    let min = times.iter().map(|t| t.1).fold(f64::MAX, f64::min);
    let max = times.iter().map(|t| t.1).fold(0.0, f64::max);
    println!(
        "spread: {:.1}% (paper: <10% over the same range)",
        100.0 * (max - min) / min
    );

    // ------------------------------------------------------------------
    banner(
        "Ablation 4",
        "oracle vector size: memory vs collisions vs off-node lookups",
    );
    let base_reads = human.all_reads();
    let (spectrum, _) = analyze_kmers(&team, &base_reads, &KmerAnalysisConfig::new(k));
    let ccfg = ContigConfig::default();
    let (contigs, _) = generate_contigs(&team, &spectrum, &ccfg);
    println!(
        "{:>12} {:>12} {:>12} {:>12} {:>10}",
        "slots", "KB/rank", "collisions", "off-node %", "imbalance"
    );
    let topo = Topology::edison(ranks);
    for shift in [14u32, 16, 18, 20] {
        let slots = 1usize << shift;
        let oracle = Arc::new(build_oracle(&contigs, &topo, slots));
        let collisions = oracle.collisions();
        let kb = oracle.memory_bytes() / 1024;
        let (graph, _) = build_graph(&team, &spectrum, Some(oracle));
        let (_, traversal) = traverse_graph(&team, &graph, &ccfg);
        // A vector far smaller than the k-mer set funnels most k-mers onto
        // the first-written ranks: lookups turn local but the load
        // imbalance explodes — off-node % alone under-tells the story.
        println!(
            "{:>12} {:>12} {:>12} {:>11.1}% {:>9.1}x",
            slots,
            kb,
            collisions,
            100.0 * traversal.offnode_fraction(),
            traversal.imbalance(&m)
        );
    }
    // Node-level refinement.
    let slots = 1usize << 16;
    let mut oracle = build_oracle(&contigs, &topo, slots);
    oracle.coarsen_to_nodes(&topo);
    let (graph, _) = build_graph(&team, &spectrum, Some(Arc::new(oracle)));
    let (_, traversal) = traverse_graph(&team, &graph, &ccfg);
    let t = traversal.totals();
    println!(
        "node-level oracle (2^16 slots): off-node {:.1}%, on-node msgs {} (SMP refinement, \u{00a7}3.2)",
        100.0 * traversal.offnode_fraction(),
        t.onnode_msgs
    );

    // ------------------------------------------------------------------
    banner("Ablation 5", "gap distribution: round-robin vs blocked");
    // The paper's rationale: closure costs vary by orders of magnitude and
    // the gaps of one scaffold tend to cost alike. Build exactly that
    // workload: one scaffold whose every gap needs an expensive k-mer
    // walk, many scaffolds whose gaps are trivial overlap joins; blocked
    // distribution hands the expensive scaffold to a couple of ranks.
    {
        use hipmer_contig::ContigSet;
        use hipmer_dna::KmerCodec;
        use hipmer_scaffold::{Scaffold, ScaffoldMember};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut rng = StdRng::seed_from_u64(5005);
        let mut seqs: Vec<Vec<u8>> = Vec::new();
        let mut gap_regions: Vec<Vec<u8>> = Vec::new();
        let n_hard = 24usize; // contigs of the expensive scaffold
        let n_easy = 72usize;
        // Hard scaffold: 400bp contigs separated by 250bp gaps.
        for _ in 0..n_hard {
            seqs.push(hipmer_readsim::random_genome(400, 0.45, &mut rng));
            gap_regions.push(hipmer_readsim::random_genome(250, 0.45, &mut rng));
        }
        // Easy scaffolds: contig pairs overlapping by 30bp.
        for _ in 0..n_easy {
            let a = hipmer_readsim::random_genome(400, 0.45, &mut rng);
            let mut b = a[370..].to_vec();
            b.extend(hipmer_readsim::random_genome(370, 0.45, &mut rng));
            seqs.push(a);
            seqs.push(b);
        }
        let contig_set = ContigSet::from_sequences(KmerCodec::new(k), seqs.clone());
        let id_of = |seq: &Vec<u8>| -> u32 {
            contig_set
                .contigs
                .iter()
                .find(|c| &c.seq == seq || c.seq == hipmer_dna::revcomp(seq))
                .unwrap()
                .id as u32
        };
        // Reads tiling each hard gap (so the walks succeed but must work).
        let mut reads: Vec<hipmer_seqio::SeqRecord> = Vec::new();
        let mut alignments: Vec<hipmer_align::Alignment> = Vec::new();
        let mut scaffolds: Vec<Scaffold> = Vec::new();
        let mut hard_members = Vec::new();
        for (i, gap) in gap_regions.iter().enumerate() {
            let prev = &seqs[i];
            let next = &seqs[(i + 1) % n_hard];
            hard_members.push(ScaffoldMember {
                contig: id_of(prev),
                reversed: false,
                gap_before: if i == 0 { 0 } else { 250 },
            });
            // Junction sequence: prev tail + gap + next head, tiled by
            // 90bp reads; each read aligned to whichever contig it clips.
            let mut junction = prev[prev.len() - 120..].to_vec();
            junction.extend_from_slice(gap);
            junction.extend_from_slice(&next[..120]);
            // Paired reads 160bp apart: gap-interior reads are nominated
            // through their contig-aligned mates, as in the real pipeline.
            let pair_off = 160usize;
            let emit = |pos: usize,
                        reads: &mut Vec<hipmer_seqio::SeqRecord>,
                        alignments: &mut Vec<hipmer_align::Alignment>| {
                let ridx = reads.len() as u32;
                reads.push(hipmer_seqio::SeqRecord::with_uniform_quality(
                    format!("g{i}_{pos}_{ridx}"),
                    junction[pos..pos + 90].to_vec(),
                    35,
                ));
                if pos < 120 {
                    let span = (120 - pos).min(90);
                    alignments.push(hipmer_align::Alignment {
                        read: ridx,
                        contig: id_of(prev),
                        read_start: 0,
                        read_end: span as u32,
                        contig_start: (prev.len() - 120 + pos) as u32,
                        contig_end: (prev.len() - 120 + pos + span) as u32,
                        rc: false,
                        matches: span as u32,
                        read_len: 90,
                    });
                }
                let next_start = 120 + 250; // where `next` begins in junction
                if pos + 90 > next_start {
                    let rs = next_start.saturating_sub(pos);
                    alignments.push(hipmer_align::Alignment {
                        read: ridx,
                        contig: id_of(next),
                        read_start: rs as u32,
                        read_end: 90,
                        contig_start: (pos + rs - next_start) as u32,
                        contig_end: (pos + 90 - next_start) as u32,
                        rc: false,
                        matches: (90 - rs) as u32,
                        read_len: 90,
                    });
                }
            };
            let mut pos = 0usize;
            while pos + pair_off + 90 <= junction.len() {
                emit(pos, &mut reads, &mut alignments);
                emit(pos + pair_off, &mut reads, &mut alignments);
                pos += 11;
            }
        }
        // Fix the wrap-around member list into a simple chain.
        let hard_scaffold = Scaffold {
            members: hard_members,
        };
        scaffolds.push(hard_scaffold);
        for e in 0..n_easy {
            let a = id_of(&seqs[n_hard + 2 * e]);
            let b = id_of(&seqs[n_hard + 2 * e + 1]);
            scaffolds.push(Scaffold {
                members: vec![
                    ScaffoldMember {
                        contig: a,
                        reversed: false,
                        gap_before: 0,
                    },
                    ScaffoldMember {
                        contig: b,
                        reversed: false,
                        gap_before: -30,
                    },
                ],
            });
        }
        alignments.sort_by_key(|a| (a.read, a.contig, a.contig_start));
        let gap_team = Team::new(Topology::edison(24));
        for round_robin in [true, false] {
            let gcfg = GapCloseConfig { round_robin };
            let (_, stats, report) = close_gaps(
                &gap_team,
                &contig_set,
                &scaffolds,
                &alignments,
                &reads,
                &gcfg,
            );
            println!(
                "{}: modeled {:.4} s, imbalance {:.2} (closed {} of {} gaps)",
                if round_robin {
                    "round-robin"
                } else {
                    "blocked    "
                },
                report.modeled(&m).total(),
                report.imbalance(&m),
                stats.closed(),
                stats.total()
            );
        }
        println!("(one 24-gap scaffold needs k-mer walks; 72 scaffolds close by overlap —");
        println!(" blocked distribution serializes the expensive scaffold onto few ranks)");
    }

    // ------------------------------------------------------------------
    banner(
        "Ablation 9",
        "fault tolerance: checkpoint + retry overhead vs a fault-free run",
    );
    {
        use hipmer::{run_assembly, PipelineConfig, RunOptions};
        use hipmer_pgas::json::Value;
        use hipmer_pgas::FaultPlan;

        let dataset = human_like_dataset(scaled(60_000), 14.0, true, 1009);
        let reads = dataset.all_reads();
        let lib_ranges = dataset.lib_ranges();
        let cfg = PipelineConfig::new(k);
        let ft_topo = Topology::edison(96);
        let dir = std::env::temp_dir().join(format!("hipmer-ablation9-{}", std::process::id()));

        // variant label, checkpoint interval (0 = none), transient prob,
        // per-message retry budget, one-shot hard kill (rank, event).
        type FaultVariant = (&'static str, usize, f64, u32, Option<(usize, u64)>);
        let variants: [FaultVariant; 5] = [
            ("fault-free", 0, 0.0, 4, None),
            ("ckpt-every-stage", 1, 0.0, 4, None),
            ("ckpt-every-2nd", 2, 0.0, 4, None),
            ("transient-2e-3", 1, 2e-3, 4, None),
            ("kill+restart", 1, 2e-3, 4, Some((7, 500))),
        ];
        println!(
            "{:<16} {:>12} {:>10} {:>10} {:>12} {:>12}",
            "variant", "modeled (s)", "faults", "retries", "ckpt bytes", "re-execs"
        );
        let mut rows: Vec<Value> = Vec::new();
        let mut baseline_seqs: Option<Vec<Vec<u8>>> = None;
        let mut baseline_secs = 0.0f64;
        for (label, interval, transient, budget, kill) in variants {
            let team = if transient > 0.0 || kill.is_some() {
                let mut plan = FaultPlan::new(4242, ft_topo.ranks())
                    .with_transient(transient)
                    .with_max_retries(budget);
                if let Some((rank, event)) = kill {
                    plan = plan.with_rank_failure(rank, event);
                }
                Team::new(ft_topo).with_fault_plan(Arc::new(plan))
            } else {
                Team::new(ft_topo)
            };
            std::fs::remove_dir_all(&dir).ok();
            let opts = RunOptions {
                checkpoint_dir: (interval > 0).then(|| dir.clone()),
                checkpoint_interval: interval.max(1),
                stage_retries: 2,
                ..RunOptions::default()
            };
            let assembly = run_assembly(&team, &reads, &lib_ranges, &cfg, &opts)
                .expect("every variant must recover");
            // Fault tolerance must be result-transparent.
            match &baseline_seqs {
                None => baseline_seqs = Some(assembly.scaffolds.sequences.clone()),
                Some(base) => assert_eq!(
                    base, &assembly.scaffolds.sequences,
                    "assembly must be byte-identical under faults"
                ),
            }
            let secs = assembly.report.total_modeled(&m).total();
            if label == "fault-free" {
                baseline_secs = secs;
            }
            let totals: Vec<_> = assembly.report.phases.iter().map(|p| p.totals()).collect();
            let faults: u64 = totals.iter().map(|t| t.transient_faults).sum();
            let retries: u64 = totals.iter().map(|t| t.retries).sum();
            let ckpt_bytes: u64 = assembly
                .report
                .checkpoints
                .iter()
                .filter(|c| c.action == "save")
                .map(|c| c.bytes)
                .sum();
            let reexecs: u64 = assembly
                .report
                .stage_attempts
                .iter()
                .map(|a| a.executions.saturating_sub(1))
                .sum();
            println!(
                "{:<16} {:>12.4} {:>10} {:>10} {:>12} {:>12}",
                label, secs, faults, retries, ckpt_bytes, reexecs
            );
            let mut row = Value::obj();
            row.set("variant", label)
                .set("checkpoint_interval", interval)
                .set("transient_probability", transient)
                .set("retry_budget", budget as u64)
                .set("hard_kill", kill.is_some())
                .set("modeled_seconds", secs)
                .set("overhead_fraction", secs / baseline_secs - 1.0)
                .set("transient_faults", faults)
                .set("retries", retries)
                .set("checkpoint_bytes", ckpt_bytes)
                .set("stage_reexecutions", reexecs);
            rows.push(row);
        }
        std::fs::remove_dir_all(&dir).ok();
        let mut doc = Value::obj();
        doc.set("bench", "fault_overhead");
        hipmer_bench::stamp(&mut doc);
        doc.set("ranks", ft_topo.ranks())
            .set("k", k)
            .set("fault_seed", 4242u64)
            .set("rows", Value::Arr(rows));
        std::fs::write("BENCH_fault_overhead.json", doc.to_json()).unwrap();
        println!("(identical scaffolds in all five variants; wrote BENCH_fault_overhead.json)");
    }
}
