//! Assembly statistics and stage-time grouping.

use hipmer_pgas::{CostModel, PipelineReport};
use hipmer_scaffold::GapCloseStats;

/// Headline numbers for a finished assembly.
#[derive(Clone, Copy, Debug, Default)]
pub struct AssemblyStats {
    /// Input reads.
    pub n_reads: usize,
    /// Input bases.
    pub read_bases: usize,
    /// Distinct non-erroneous k-mers.
    pub distinct_kmers: usize,
    /// Contigs out of the traversal (pre-bubble-merge).
    pub n_contigs: usize,
    /// Contig N50 (pre-bubble-merge).
    pub contig_n50: usize,
    /// Final scaffolds.
    pub n_scaffolds: usize,
    /// Scaffold N50 over final sequences.
    pub scaffold_n50: usize,
    /// Total scaffold bases.
    pub scaffold_bases: usize,
    /// Gap-closing outcome counters.
    pub gaps: GapCloseStats,
}

/// Modeled per-stage seconds, grouped the way Figs. 6–8 plot them.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StageTimes {
    /// FASTQ input time.
    pub io: f64,
    /// K-mer analysis (sketch + count + finalize).
    pub kmer_analysis: f64,
    /// Contig generation (graph build + traversal).
    pub contig_generation: f64,
    /// merAligner (index + align), within scaffolding.
    pub meraligner: f64,
    /// Gap closing, within scaffolding.
    pub gap_closing: f64,
    /// The remaining scaffolding modules (depths, bubbles, inserts,
    /// splints/spans, links, ties).
    pub rest_scaffolding: f64,
}

impl StageTimes {
    /// Total scaffolding time.
    pub fn scaffolding(&self) -> f64 {
        self.meraligner + self.gap_closing + self.rest_scaffolding
    }

    /// End-to-end total.
    pub fn total(&self) -> f64 {
        self.io + self.kmer_analysis + self.contig_generation + self.scaffolding()
    }

    /// Group a pipeline report's phases by name prefixes.
    pub fn from_report(report: &PipelineReport, model: &CostModel) -> StageTimes {
        let mut t = StageTimes::default();
        for phase in &report.phases {
            let secs = phase.modeled(model).total();
            let name = phase.name.as_str();
            if name.starts_with("io/") {
                t.io += secs;
            } else if name.starts_with("kmer-analysis/") {
                t.kmer_analysis += secs;
            } else if name.starts_with("contig/") {
                t.contig_generation += secs;
            } else if name.starts_with("scaffold/meraligner") {
                t.meraligner += secs;
            } else if name.starts_with("scaffold/gap-closing") {
                t.gap_closing += secs;
            } else if name.starts_with("scaffold/") {
                t.rest_scaffolding += secs;
            } else {
                // Unknown phases count toward the closest umbrella: rest.
                t.rest_scaffolding += secs;
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipmer_pgas::{CommStats, PhaseReport, Topology};

    #[test]
    fn stage_grouping() {
        let topo = Topology::new(2, 2);
        let mk = |name: &str, ops: u64| {
            let stats = vec![
                CommStats {
                    compute_ops: ops,
                    ..CommStats::default()
                };
                2
            ];
            PhaseReport::new(name, topo, stats)
        };
        let mut report = PipelineReport::new();
        report.push(mk("io/fastq", 1000));
        report.push(mk("kmer-analysis/count", 2000));
        report.push(mk("contig/traversal", 3000));
        report.push(mk("scaffold/meraligner-align", 4000));
        report.push(mk("scaffold/gap-closing", 5000));
        report.push(mk("scaffold/links", 6000));
        let model = CostModel::edison();
        let t = StageTimes::from_report(&report, &model);
        assert!(t.io > 0.0 && t.kmer_analysis > t.io);
        assert!(t.meraligner > t.contig_generation);
        assert!(t.rest_scaffolding > t.gap_closing);
        let sum = t.io + t.kmer_analysis + t.contig_generation + t.scaffolding();
        assert!((t.total() - sum).abs() < 1e-12);
    }
}
