//! Competing-assembler models for §5.6 of the paper.
//!
//! The paper compares HipMer against Ray 2.3.0, ABySS 1.3.6, and the
//! original (serial-ish) Meraculous, and attributes the gaps to
//! *structural* differences it names explicitly:
//!
//! * **Meraculous** — the original Perl/serial pipeline: 23.8 hours for
//!   human vs HipMer's 8.4 minutes (~170×). Modeled here by running the
//!   identical pipeline on a single rank with single-node pricing.
//! * **Ray** — end-to-end MPI assembler, but two-sided messaging (message
//!   matching and synchronization HipMer's one-sided design avoids, §7)
//!   and "lack of parallel I/O support for reading and writing files".
//!   Modeled by running the real pipeline without aggregating stores,
//!   pricing remote accesses with a message-matching surcharge, and
//!   serializing file I/O. ~13× slower at 960 cores in the paper.
//! * **ABySS** — "only the first assembly step of contig generation is
//!   fully parallelized with MPI and the subsequent scaffolding steps
//!   must be performed on a single shared memory node". Modeled by running
//!   k-mer analysis + contig generation on the full team (two-sided
//!   pricing) and the whole scaffolding stage on one rank. ≥16× slower.
//!
//! Every baseline *actually assembles* the reads — the comparison is about
//! parallelization structure and communication pricing, not output.

use hipmer::{assemble, PipelineConfig, StageTimes};
use hipmer_pgas::{CostModel, Team, Topology};
use hipmer_seqio::SeqRecord;
use std::ops::Range;

/// A baseline run's outcome.
#[derive(Clone, Debug)]
pub struct BaselineResult {
    /// Assembler name.
    pub name: String,
    /// Modeled stage times under the assembler's own execution model.
    pub times: StageTimes,
    /// Scaffold N50 achieved (all baselines assemble for real).
    pub scaffold_n50: usize,
}

impl BaselineResult {
    /// Total modeled seconds.
    pub fn total(&self) -> f64 {
        self.times.total()
    }
}

/// A cost model with a two-sided (MPI send/recv) surcharge: every remote
/// access pays message matching on both sides.
fn two_sided_model() -> CostModel {
    let edison = CostModel::edison();
    CostModel {
        t_onnode: edison.t_onnode * 2.0,
        t_offnode: edison.t_offnode * 2.5,
        t_service: edison.t_service * 2.0,
        ..edison
    }
}

/// HipMer itself at the given concurrency (the reference row of the
/// comparison table).
pub fn hipmer_reference(
    ranks: usize,
    reads: &[SeqRecord],
    lib_ranges: &[Range<usize>],
    cfg: &PipelineConfig,
) -> BaselineResult {
    let team = Team::new(Topology::edison(ranks));
    let assembly = assemble(&team, reads, lib_ranges, cfg);
    BaselineResult {
        name: format!("HipMer ({ranks} cores)"),
        times: StageTimes::from_report(&assembly.report, &CostModel::edison()),
        scaffold_n50: assembly.stats.scaffold_n50,
    }
}

/// The original Meraculous: the same pipeline, one rank, single-node
/// machine pricing.
pub fn serial_meraculous(
    reads: &[SeqRecord],
    lib_ranges: &[Range<usize>],
    cfg: &PipelineConfig,
) -> BaselineResult {
    let team = Team::new(Topology::single_node(1));
    let assembly = assemble(&team, reads, lib_ranges, cfg);
    BaselineResult {
        name: "Meraculous (serial)".into(),
        times: StageTimes::from_report(&assembly.report, &CostModel::single_node()),
        scaffold_n50: assembly.stats.scaffold_n50,
    }
}

/// Ray-like: end-to-end parallel, but two-sided messaging, no aggregating
/// stores, and serial file I/O.
pub fn ray_like(
    ranks: usize,
    reads: &[SeqRecord],
    lib_ranges: &[Range<usize>],
    cfg: &PipelineConfig,
) -> BaselineResult {
    let mut cfg = cfg.clone();
    // No aggregating stores: fine-grained messages (batch of 1).
    cfg.kanalysis.agg_batch = 1;
    let team = Team::new(Topology::edison(ranks));
    let assembly = assemble(&team, reads, lib_ranges, &cfg);
    let model = CostModel {
        // Serial I/O: the aggregate cap equals one stream.
        io_bw_aggregate: CostModel::edison().io_bw_per_rank,
        ..two_sided_model()
    };
    BaselineResult {
        name: format!("Ray-like ({ranks} cores)"),
        times: StageTimes::from_report(&assembly.report, &model),
        scaffold_n50: assembly.stats.scaffold_n50,
    }
}

/// ABySS-like: contig generation parallel (two-sided), all scaffolding on
/// a single node/rank.
pub fn abyss_like(
    ranks: usize,
    reads: &[SeqRecord],
    lib_ranges: &[Range<usize>],
    cfg: &PipelineConfig,
) -> BaselineResult {
    // Parallel front half.
    let mut front_cfg = cfg.clone();
    front_cfg.scaffold.rounds = 0;
    let team = Team::new(Topology::edison(ranks));
    let front = assemble(&team, reads, lib_ranges, &front_cfg);
    let front_times = StageTimes::from_report(&front.report, &two_sided_model());

    // Serial back half (scaffolding only: run the full pipeline at one
    // rank and keep just its scaffolding stages).
    let serial_team = Team::new(Topology::single_node(1));
    let full = assemble(&serial_team, reads, lib_ranges, cfg);
    let serial_times = StageTimes::from_report(&full.report, &CostModel::single_node());

    let times = StageTimes {
        io: front_times.io,
        kmer_analysis: front_times.kmer_analysis,
        contig_generation: front_times.contig_generation,
        meraligner: serial_times.meraligner,
        gap_closing: serial_times.gap_closing,
        rest_scaffolding: serial_times.rest_scaffolding,
    };
    BaselineResult {
        name: format!("ABySS-like ({ranks} cores, serial scaffolding)"),
        times,
        scaffold_n50: full.stats.scaffold_n50,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipmer_readsim::human_like_dataset;

    fn dataset_and_ranges() -> (Vec<SeqRecord>, Vec<Range<usize>>) {
        let d = human_like_dataset(60_000, 16.0, false, 99);
        let reads = d.all_reads();
        (reads, d.lib_ranges())
    }

    #[test]
    fn hipmer_beats_all_baselines_at_scale() {
        let (reads, ranges) = dataset_and_ranges();
        let cfg = PipelineConfig::new(21);
        // At 96 ranks a 60 kbp genome still has meaningful per-rank work;
        // the full-size sweeps live in the bench harnesses.
        let ranks = 96;
        let hipmer = hipmer_reference(ranks, &reads, &ranges, &cfg);
        let serial = serial_meraculous(&reads, &ranges, &cfg);
        let ray = ray_like(ranks, &reads, &ranges, &cfg);
        let abyss = abyss_like(ranks, &reads, &ranges, &cfg);

        assert!(
            serial.total() > 5.0 * hipmer.total(),
            "serial {:.4} vs hipmer {:.4}",
            serial.total(),
            hipmer.total()
        );
        assert!(
            ray.total() > 1.5 * hipmer.total(),
            "ray {:.4} vs hipmer {:.4}",
            ray.total(),
            hipmer.total()
        );
        assert!(
            abyss.total() > 1.2 * hipmer.total(),
            "abyss {:.4} vs hipmer {:.4}",
            abyss.total(),
            hipmer.total()
        );
    }

    #[test]
    fn abyss_pays_serial_scaffolding_penalty() {
        // The paper's point: ABySS must scaffold on one node while HipMer
        // scaffolds on the full machine.
        let (reads, ranges) = dataset_and_ranges();
        let cfg = PipelineConfig::new(21);
        let abyss = abyss_like(96, &reads, &ranges, &cfg);
        let hipmer = hipmer_reference(96, &reads, &ranges, &cfg);
        // Tiny test genomes leave parallel scaffolding latency-bound, so
        // the margin here is conservative; the Mbp-scale benches show the
        // paper-sized gap.
        assert!(
            abyss.times.scaffolding() > 1.5 * hipmer.times.scaffolding(),
            "abyss scaffolding {:.4} vs hipmer {:.4}",
            abyss.times.scaffolding(),
            hipmer.times.scaffolding()
        );
    }

    #[test]
    fn all_baselines_produce_real_assemblies() {
        let (reads, ranges) = dataset_and_ranges();
        let cfg = PipelineConfig::new(21);
        let serial = serial_meraculous(&reads, &ranges, &cfg);
        let ray = ray_like(48, &reads, &ranges, &cfg);
        assert!(serial.scaffold_n50 > 1000);
        // Same algorithms, same input -> same assembly quality.
        assert_eq!(serial.scaffold_n50, ray.scaffold_n50);
    }
}
