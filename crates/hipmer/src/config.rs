//! Whole-pipeline configuration.

use hipmer_contig::ContigConfig;
use hipmer_kanalysis::KmerAnalysisConfig;
use hipmer_pgas::{PartitionScheme, Schedule};
use hipmer_scaffold::ScaffoldConfig;

/// Configuration for a complete assembly run.
#[derive(Clone)]
pub struct PipelineConfig {
    /// The assembly k (de Bruijn graph k-mer length; must be odd).
    pub k: usize,
    /// Stage 1 settings.
    pub kanalysis: KmerAnalysisConfig,
    /// Stage 2 settings.
    pub contig: ContigConfig,
    /// Stage 3 settings.
    pub scaffold: ScaffoldConfig,
    /// MetaHipMer multi-k schedule: the strictly increasing k values for
    /// the iterative kanalysis → contig rounds (the SC18 follow-on's
    /// "Extreme Scale De Novo Metagenome Assembly" loop). Empty (the
    /// default) or a single value runs the classic single-k pipeline; with
    /// two or more values, each round re-analyzes the reads plus the
    /// previous round's contigs (injected as high-confidence pseudo-reads)
    /// and the final alignment + scaffolding pass runs at the largest k,
    /// which must equal [`Self::k`]. Set via [`Self::try_multi_k`].
    pub multi_k: Vec<usize>,
}

/// Depth floor for abundance-aware hair/tip pruning in the *non-final*
/// multi-k rounds: short dead-end contigs whose mean k-mer depth is below
/// this are dropped before they are fed forward as pseudo-reads, so later
/// rounds do not inherit error branches from low-abundance species. `2.5`
/// sits just above the k-mer analysis [`MIN_COUNT`] of 2, so hairs that
/// barely cleared the count filter are dropped while genuine low-coverage
/// contigs (mean depth ≥ 3) survive (tuned on the PR-10 multi-k community).
/// The final round (and the classic single-k path) never prunes, keeping
/// single-k output byte-identical to the pre-multi-k pipeline.
///
/// [`MIN_COUNT`]: hipmer_kanalysis::count::MIN_COUNT
pub const ROUND_PRUNE_DEPTH: f64 = 2.5;

impl PipelineConfig {
    /// Defaults for an assembly at the given (odd) k. The aligner seed
    /// length defaults to a shorter seed (better sensitivity on read
    /// tails) capped at k.
    ///
    /// Panics on an invalid k; the CLI path uses [`Self::try_new`].
    pub fn new(k: usize) -> Self {
        match Self::try_new(k) {
            Ok(cfg) => cfg,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible construction: rejects an even k or a k outside the packed
    /// k-mer range (`1..=MAX_K`) with a printable error.
    pub fn try_new(k: usize) -> Result<Self, String> {
        hipmer_dna::KmerCodec::try_new(k).map_err(|e| e.to_string())?;
        if k.is_multiple_of(2) {
            return Err(format!("assembly k must be odd, got {k}"));
        }
        let seed_len = 15.min(k);
        Ok(PipelineConfig {
            k,
            kanalysis: KmerAnalysisConfig::new(k),
            contig: ContigConfig::default(),
            scaffold: ScaffoldConfig::new(seed_len),
            multi_k: Vec::new(),
        })
    }

    /// The one request → config mapping, shared by `hipmer assemble` and the
    /// job service so the two cannot disagree about what a parameter
    /// means: assemble at `k` with `rounds` scaffolding rounds (none under
    /// `metagenome`, §5.4), `schedule` and `partition` applied to every
    /// stage, and — when `multi_k` is non-empty — the MetaHipMer round
    /// schedule of [`Self::try_multi_k`].
    pub fn from_spec(
        k: usize,
        rounds: usize,
        metagenome: bool,
        multi_k: &[usize],
        schedule: Schedule,
        partition: PartitionScheme,
    ) -> Result<Self, String> {
        let mut cfg = Self::try_new(k).map_err(|e| format!("k={k}: {e}"))?;
        cfg.scaffold.rounds = if metagenome { 0 } else { rounds };
        cfg = cfg.with_schedule(schedule).with_partition(partition);
        if multi_k.is_empty() {
            Ok(cfg)
        } else {
            cfg.try_multi_k(multi_k)
        }
    }

    /// Stage configs for one *non-final* multi-k round at `k`: the
    /// final-round configs ([`Self::kanalysis`]/[`Self::contig`], which the
    /// final round uses verbatim, pruning off) at another k, with hair/tip
    /// pruning armed at [`ROUND_PRUNE_DEPTH`].
    pub fn round_stage_configs(&self, k: usize) -> (KmerAnalysisConfig, ContigConfig) {
        let ka = KmerAnalysisConfig {
            k,
            ..self.kanalysis.clone()
        };
        let cc = ContigConfig {
            prune_depth_floor: ROUND_PRUNE_DEPTH,
            ..self.contig.clone()
        };
        (ka, cc)
    }

    /// Install a MetaHipMer multi-k round schedule (e.g. `[21, 33, 55]`).
    /// Every k must be valid for [`Self::try_new`], the list must be
    /// strictly increasing, and the final (largest) k must equal
    /// [`Self::k`] — the stage configs built for this `PipelineConfig` are
    /// the ones the final round and the scaffolding pass run with, so a
    /// mismatched final k would silently assemble at the wrong k. The CLI
    /// constructs the config *from* the last list element, so this only
    /// trips library misuse.
    pub fn try_multi_k(mut self, ks: &[usize]) -> Result<Self, String> {
        if ks.is_empty() {
            return Err("--multi-k needs at least one k value".into());
        }
        for &k in ks {
            Self::try_new(k)?;
        }
        for w in ks.windows(2) {
            if w[1] <= w[0] {
                return Err(format!(
                    "--multi-k values must be strictly increasing, got {} after {}",
                    w[1], w[0]
                ));
            }
        }
        let last = *ks.last().expect("non-empty");
        if last != self.k {
            return Err(format!(
                "--multi-k final value {last} must equal the assembly k {} \
                 (build the config from the largest k)",
                self.k
            ));
        }
        self.multi_k = ks.to_vec();
        Ok(self)
    }

    /// The multi-k round schedule when the MetaHipMer iterative path is
    /// active: two or more k values. A single-element (or empty) schedule
    /// is the classic single-k pipeline and returns `None` so callers
    /// cannot accidentally fork the code path — `--multi-k 21` must stay
    /// byte-identical to `-k 21`.
    pub fn multi_k_rounds(&self) -> Option<&[usize]> {
        (self.multi_k.len() >= 2).then_some(&self.multi_k[..])
    }

    /// Apply one [`Schedule`] to every skew-prone stage: the cooperative
    /// contig traversal, the aligner read loop, contig depths, bubble
    /// merging, and gap closing. [`Schedule::Dynamic`] deals each stage's
    /// work as guided chunks from a shared pool instead of fixed
    /// contiguous blocks; the assembled output is byte-identical either
    /// way, only the modeled load balance changes.
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.contig.schedule = schedule;
        self.scaffold = self.scaffold.with_schedule(schedule);
        self
    }

    /// Apply one [`PartitionScheme`] to every k-mer-keyed table in the
    /// pipeline: the k-mer analysis votes/final tables, the de Bruijn
    /// graph (under cyclic placement), and the merAligner seed index.
    /// [`PartitionScheme::Minimizer`] buckets each k-mer by its window
    /// minimizer so adjacent k-mers share an owner rank; the assembled
    /// output is byte-identical either way, only the off-node traffic
    /// changes.
    pub fn with_partition(mut self, partition: PartitionScheme) -> Self {
        self.kanalysis.partition = partition;
        self.contig.partition = partition;
        self.scaffold = self.scaffold.with_partition(partition);
        self
    }

    /// The partition scheme the pipeline's k-mer tables use (the stage
    /// configs carry their own copies; [`Self::with_partition`] keeps them
    /// in lock-step, and this reads the canonical one for reporting).
    pub fn partition(&self) -> PartitionScheme {
        self.kanalysis.partition
    }

    /// Preset matching the wheat runs: four scaffolding rounds (§5.3: "the
    /// wheat pipeline ... requires four rounds of scaffolding").
    pub fn wheat_preset(k: usize) -> Self {
        let mut cfg = Self::new(k);
        cfg.scaffold.rounds = 4;
        cfg
    }

    /// Preset for metagenomes: §5.4 runs HipMer only through contig
    /// generation ("single-genome logic may introduce errors in the
    /// scaffolding of a metagenome"), so scaffolding is marked skipped.
    pub fn metagenome_preset(k: usize) -> Self {
        let mut cfg = Self::new(k);
        cfg.scaffold.rounds = 0; // interpreted as "skip scaffolding"
        cfg
    }

    /// Whether scaffolding runs at all.
    pub fn scaffolding_enabled(&self) -> bool {
        self.scaffold.rounds > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        let d = PipelineConfig::new(31);
        assert_eq!(d.k, 31);
        assert!(d.scaffolding_enabled());
        assert_eq!(PipelineConfig::wheat_preset(31).scaffold.rounds, 4);
        assert!(!PipelineConfig::metagenome_preset(31).scaffolding_enabled());
    }

    #[test]
    fn with_schedule_reaches_every_stage() {
        let cfg = PipelineConfig::new(31).with_schedule(Schedule::Dynamic);
        assert_eq!(cfg.contig.schedule, Schedule::Dynamic);
        assert_eq!(cfg.scaffold.schedule, Schedule::Dynamic);
        assert_eq!(cfg.scaffold.align.schedule, Schedule::Dynamic);
        assert_eq!(cfg.scaffold.gap.schedule, Schedule::Dynamic);
    }

    #[test]
    fn with_partition_reaches_every_stage() {
        let cfg = PipelineConfig::new(31);
        assert_eq!(cfg.partition(), PartitionScheme::Uniform);
        let cfg = cfg.with_partition(PartitionScheme::Minimizer);
        assert_eq!(cfg.partition(), PartitionScheme::Minimizer);
        assert_eq!(cfg.kanalysis.partition, PartitionScheme::Minimizer);
        assert_eq!(cfg.contig.partition, PartitionScheme::Minimizer);
        assert_eq!(cfg.scaffold.align.partition, PartitionScheme::Minimizer);
    }

    #[test]
    fn from_spec_applies_every_parameter() {
        let (dynamic, minimizer) = (Schedule::Dynamic, PartitionScheme::Minimizer);
        let cfg = PipelineConfig::from_spec(33, 4, false, &[21, 33], dynamic, minimizer).unwrap();
        assert_eq!((cfg.k, cfg.scaffold.rounds), (33, 4));
        assert_eq!(cfg.multi_k_rounds(), Some(&[21, 33][..]));
        assert_eq!(cfg.contig.schedule, Schedule::Dynamic);
        assert_eq!(cfg.scaffold.align.schedule, Schedule::Dynamic);
        assert_eq!(cfg.partition(), PartitionScheme::Minimizer);
        assert_eq!(cfg.scaffold.align.partition, PartitionScheme::Minimizer);

        // `metagenome` wins over `rounds`; no multi-k list is the classic run.
        let meta = PipelineConfig::from_spec(31, 4, true, &[], dynamic, minimizer).unwrap();
        assert!(!meta.scaffolding_enabled());
        assert_eq!(meta.multi_k_rounds(), None);

        let (s, p) = Default::default();
        assert!(PipelineConfig::from_spec(32, 1, false, &[], s, p).is_err());
        assert!(PipelineConfig::from_spec(31, 1, false, &[21, 33], s, p).is_err());
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_k_rejected() {
        PipelineConfig::new(32);
    }

    #[test]
    fn multi_k_defaults_to_classic_single_k() {
        let cfg = PipelineConfig::new(31);
        assert!(cfg.multi_k.is_empty());
        assert_eq!(cfg.multi_k_rounds(), None);
        // A single-element schedule is also the classic path.
        let cfg = PipelineConfig::new(21).try_multi_k(&[21]).unwrap();
        assert_eq!(cfg.multi_k_rounds(), None);
    }

    #[test]
    fn multi_k_validation() {
        let cfg = PipelineConfig::new(55).try_multi_k(&[21, 33, 55]).unwrap();
        assert_eq!(cfg.multi_k_rounds(), Some(&[21, 33, 55][..]));

        // Final k must equal the assembly k.
        assert!(PipelineConfig::new(31).try_multi_k(&[21, 33]).is_err());
        // Strictly increasing.
        assert!(PipelineConfig::new(33).try_multi_k(&[33, 33]).is_err());
        assert!(PipelineConfig::new(21).try_multi_k(&[33, 21]).is_err());
        // Each k must itself be valid (odd, in packed range).
        assert!(PipelineConfig::new(33).try_multi_k(&[22, 33]).is_err());
        assert!(PipelineConfig::new(33).try_multi_k(&[]).is_err());
    }

    #[test]
    fn round_stage_configs_differ_only_in_k_and_pruning() {
        use hipmer_contig::TraversalMode;
        use hipmer_pgas::OracleVector;
        use std::sync::Arc;
        // Every field of the two stage configs at a non-default value.
        let mut cfg = PipelineConfig::new(55).try_multi_k(&[21, 55]).unwrap();
        cfg.kanalysis = KmerAnalysisConfig {
            k: 55,
            theta: 77,
            hh_min_reported: 9,
            use_heavy_hitters: false,
            use_bloom: false,
            agg_batch: 3,
            partition: PartitionScheme::Minimizer,
        };
        let oracle = Arc::new(OracleVector::new(64, 4));
        cfg.contig = ContigConfig {
            oracle: Some(Arc::clone(&oracle)),
            mode: TraversalMode::EndpointWalk,
            walk_cap: 5,
            schedule: Schedule::Dynamic,
            partition: PartitionScheme::Minimizer,
            prune_depth_floor: 0.0,
        };
        let (ka, cc) = cfg.round_stage_configs(21);
        // Destructured without `..`: a field added to either struct must be
        // added here, which is where it is checked to survive the rounds.
        let KmerAnalysisConfig {
            k,
            theta,
            hh_min_reported,
            use_heavy_hitters,
            use_bloom,
            agg_batch,
            partition,
        } = ka;
        assert_eq!(k, 21);
        assert_eq!((theta, hh_min_reported, agg_batch), (77, 9, 3));
        assert!(!use_heavy_hitters && !use_bloom);
        assert_eq!(partition, PartitionScheme::Minimizer);
        let ContigConfig {
            oracle: round_oracle,
            mode,
            walk_cap,
            schedule,
            partition,
            prune_depth_floor,
        } = cc;
        assert!(Arc::ptr_eq(&round_oracle.unwrap(), &oracle));
        assert_eq!(mode, TraversalMode::EndpointWalk);
        assert_eq!(walk_cap, 5);
        assert_eq!(schedule, Schedule::Dynamic);
        assert_eq!(partition, PartitionScheme::Minimizer);
        assert_eq!(prune_depth_floor, ROUND_PRUNE_DEPTH);
        // The final-round configs (cfg.contig) never prune.
        assert_eq!(cfg.contig.prune_depth_floor, 0.0);
    }

    /// The whole option surface: 24 independently settable values. Every
    /// struct is destructured without `..`, so a new field does not compile
    /// until it is listed here — and it belongs here only if two callers
    /// that are neither tests nor examples (a CLI flag, the job service, a
    /// `crates/bench` harness, `benchmark/`) need different values for it.
    /// With one value in use it is a `const` beside the code that reads it;
    /// if the code can work it out from its inputs, it is neither.
    #[test]
    fn option_surface_and_defaults() {
        use hipmer_align::AlignConfig;
        use hipmer_contig::TraversalMode;
        use hipmer_pgas::agg::DEFAULT_BATCH;
        use hipmer_scaffold::GapCloseConfig;
        let PipelineConfig {
            k,       // -k
            multi_k, // --multi-k
            kanalysis,
            contig,
            scaffold,
        } = PipelineConfig::new(31);
        assert_eq!(k, 31);
        assert!(multi_k.is_empty());
        let KmerAnalysisConfig {
            k: analysis_k,     // round_stage_configs
            theta,             // fig6_heavy_hitters
            hh_min_reported,   // small inputs reaching the heavy-hitter path
            use_heavy_hitters, // fig6_heavy_hitters, ablations
            use_bloom,         // ablations
            agg_batch,         // ablations
            partition,         // --partition
        } = kanalysis;
        assert_eq!(analysis_k, 31);
        assert_eq!(
            (theta, hh_min_reported, agg_batch),
            (32_000, 2, DEFAULT_BATCH)
        );
        assert!(use_heavy_hitters && use_bloom);
        assert_eq!(partition, PartitionScheme::Uniform);
        let ContigConfig {
            oracle,            // table1_oracle_traversal
            mode,              // ablations
            walk_cap,          // small inputs reaching the chain merge
            schedule,          // --schedule
            partition,         // --partition
            prune_depth_floor, // round_stage_configs
        } = contig;
        assert!(oracle.is_none());
        assert_eq!(mode, TraversalMode::Cooperative);
        assert_eq!(walk_cap, 2048);
        assert_eq!(schedule, Schedule::Static);
        assert_eq!(partition, PartitionScheme::Uniform);
        assert_eq!(prune_depth_floor, 0.0);
        let ScaffoldConfig {
            align,
            gap,
            rounds,   // --rounds, the wheat and metagenome presets
            schedule, // --schedule
        } = scaffold;
        assert_eq!((rounds, schedule), (1, Schedule::Static));
        let AlignConfig {
            seed_len,      // min(15, k)
            lookup_batch,  // ablations
            cache_entries, // ablations
            schedule,      // --schedule
            partition,     // --partition
        } = align;
        assert_eq!(
            (seed_len, lookup_batch, cache_entries),
            (15, DEFAULT_BATCH, 4096)
        );
        assert_eq!(schedule, Schedule::Static);
        assert_eq!(partition, PartitionScheme::Uniform);
        let GapCloseConfig {
            round_robin, // ablations
            schedule,    // --schedule, scaling_schedule
        } = gap;
        assert!(round_robin);
        assert_eq!(schedule, Schedule::Static);
    }

    #[test]
    fn try_new_rejects_bad_k_without_panicking() {
        assert!(PipelineConfig::try_new(31).is_ok());
        assert!(PipelineConfig::try_new(63).is_ok());
        for bad in [0usize, 32, 65, 1000] {
            let err = match PipelineConfig::try_new(bad) {
                Ok(_) => panic!("k={bad} must be rejected"),
                Err(e) => e,
            };
            assert!(err.contains(&bad.to_string()) || bad == 0, "k={bad}: {err}");
        }
    }
}
