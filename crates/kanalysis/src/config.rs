//! K-mer analysis configuration.

use hipmer_pgas::agg::DEFAULT_BATCH;

/// Tunables for k-mer analysis: what a caller turns. Defaults follow the
/// paper (k = 51 and θ = 32,000 for wheat; we default k lower because our
/// genomes are megabase-scale). The Meraculous conventions nobody varies
/// (count ≥ 2, quality ≥ 20, …) are constants in [`crate::count`].
#[derive(Clone, Debug)]
pub struct KmerAnalysisConfig {
    /// K-mer length.
    pub k: usize,
    /// Misra–Gries summary capacity (θ). The paper uses 32,000 and reports
    /// <10% sensitivity over 1K–64K. A merged count undershoots the truth
    /// by at most `n/θ` over the `n` occurrences the summary observes (the
    /// one read in 16 it samples).
    pub theta: usize,
    /// Master switch for the heavy-hitter optimization (Fig. 6's
    /// "Default" vs "Heavy Hitters"). A k-mer is heavy when it holds 1/16
    /// of the mean owner load `N/P` over `P` ranks, the share at which one
    /// k-mer can unbalance its owner, counted in Misra–Gries' one-in-16
    /// read sample.
    pub use_heavy_hitters: bool,
    /// Use Bloom filters to keep singletons out of the table (§3.1;
    /// ablation: without them every k-mer gets an entry).
    pub use_bloom: bool,
    /// Aggregating-stores batch size (Ablation 1 sweeps it).
    pub agg_batch: usize,
}

impl KmerAnalysisConfig {
    /// Defaults for a k of choice.
    pub fn new(k: usize) -> Self {
        KmerAnalysisConfig {
            k,
            theta: 32_000,
            use_heavy_hitters: true,
            use_bloom: true,
            agg_batch: DEFAULT_BATCH,
        }
    }
}

impl Default for KmerAnalysisConfig {
    fn default() -> Self {
        Self::new(31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_conventions() {
        let c = KmerAnalysisConfig::default();
        assert_eq!(crate::count::MIN_COUNT, 2);
        assert_eq!(crate::count::MIN_QUAL, 20);
        assert_eq!(c.theta, 32_000);
        assert!(c.use_heavy_hitters);
        assert!(c.use_bloom);
    }
}
