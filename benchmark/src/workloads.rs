//! The four workloads: which dataset, which pipeline preset, how many OS
//! threads — and the quality floor each assembly must clear.

use hipmer::PipelineConfig;
use hipmer_readsim::{
    human_like_dataset, metagenome_repeats, simulate_library, wheat_scaffolding_dataset, Dataset,
    ErrorModel, Library,
};

/// Virtual ranks of every rep, fixed so the algorithmic work (hashing,
/// routing, per-rank chunks) is identical and only the OS-thread count
/// varies between `human_t1` and `human_t2`.
pub const RANKS: usize = 16;
/// Virtual ranks per simulated node.
pub const RANKS_PER_NODE: usize = 8;
/// k of the `hipmer::evaluate` anchors, fixed so workloads are comparable.
pub const EVAL_K: usize = 21;
/// Seed of every workload's genomes (see [`Preset::dataset`]).
const GENOME_SEED: u64 = 2015;

/// A dataset family together with the pipeline configuration it is
/// assembled with. `human_t1` and `human_t2` share one preset, hence one
/// set of input files for a given seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Preset {
    /// Diploid low-repeat genome, two libraries, k = 31, every stage.
    Human,
    /// Repetitive genome, four libraries, four scaffolding rounds.
    Wheat,
    /// 24-species community, multi-k contigging, no scaffolding.
    Meta,
}

impl Preset {
    /// The name the child process is told on its command line.
    pub fn name(self) -> &'static str {
        match self {
            Preset::Human => "human",
            Preset::Wheat => "wheat",
            Preset::Meta => "meta",
        }
    }

    /// Inverse of [`Preset::name`].
    pub fn parse(name: &str) -> Result<Self, String> {
        [Preset::Human, Preset::Wheat, Preset::Meta]
            .into_iter()
            .find(|p| p.name() == name)
            .ok_or_else(|| format!("unknown preset {name:?}"))
    }

    /// `PipelineConfig` defaults apart from the preset named.
    pub fn config(self) -> PipelineConfig {
        match self {
            Preset::Human => PipelineConfig::new(31),
            Preset::Wheat => PipelineConfig::wheat_preset(31),
            Preset::Meta => PipelineConfig::metagenome_preset(55)
                .try_multi_k(&[21, 33, 55])
                .expect("a strictly increasing schedule ending at the preset's k"),
        }
    }

    /// Generate the reads and reference genomes. The benchmark seed reaches
    /// the simulator only through here; the child sees files, never a seed.
    ///
    /// The genomes come from [`GENOME_SEED`] and only the reads are sampled
    /// from `seed`: a 120 kb repeat genome or a 24-species community is one
    /// draw from a wide distribution (genome fraction 76–96 %, rep time
    /// ±25 % from one wheat genome to the next), so a genome per seed would
    /// make runs on different seeds different workloads. The sequenced
    /// sample is what varies.
    pub fn dataset(self, seed: u64) -> Dataset {
        let seed = splitmix64(seed);
        let err = ErrorModel::illumina();
        match self {
            Preset::Human | Preset::Wheat => {
                // The simulator's canned dataset fixes the genome and the
                // libraries; its reads are replaced by this seed's.
                let mut d = if self == Preset::Human {
                    human_like_dataset(400_000, 20.0, true, GENOME_SEED)
                } else {
                    wheat_scaffolding_dataset(120_000, 20.0, true, GENOME_SEED)
                };
                d.reads_per_library = (0u64..)
                    .zip(&d.libraries)
                    .map(|(i, lib)| {
                        simulate_library(&d.genomes[0], lib, &err, seed.wrapping_add(i))
                    })
                    .collect();
                d
            }
            Preset::Meta => {
                // `metagenome_repeats_dataset`'s sampling model: one
                // short-insert library, per-species coverage proportional
                // to abundance and averaging 30×; species too scarce for a
                // couple of reads contribute none.
                let community = metagenome_repeats(240_000, 24, 30, 300, GENOME_SEED);
                let lib = Library::short_insert(30.0);
                let mut reads = Vec::new();
                let mut genomes = Vec::new();
                for (i, (g, abundance)) in (0u64..).zip(community) {
                    let species_lib = Library {
                        coverage: lib.coverage * abundance * 24.0,
                        ..lib.clone()
                    };
                    if species_lib.coverage * g.reference_len() as f64 >= 2.0 * lib.read_len as f64
                    {
                        reads.extend(simulate_library(
                            &g,
                            &species_lib,
                            &err,
                            seed.wrapping_add(i),
                        ));
                    }
                    genomes.push(g);
                }
                Dataset {
                    name: "metagenome-repeats".into(),
                    genomes,
                    libraries: vec![lib],
                    reads_per_library: vec![reads],
                }
            }
        }
    }

    /// The quality floor, fixed from the first measured runs with margin
    /// for other seeds (README, "Quality floors"): a "faster" change that
    /// drops below it has changed the assembly, not sped it up.
    pub fn floor(self) -> QualityFloor {
        match self {
            Preset::Human => QualityFloor {
                min_genome_fraction: 0.97,
                max_misassemblies: 5,
            },
            Preset::Wheat => QualityFloor {
                min_genome_fraction: 0.85,
                max_misassemblies: 16,
            },
            Preset::Meta => QualityFloor {
                min_genome_fraction: 0.80,
                max_misassemblies: 10,
            },
        }
    }
}

/// What `hipmer::evaluate` must report for a rep to count as correct.
#[derive(Clone, Copy, Debug)]
pub struct QualityFloor {
    /// Lowest acceptable fraction of reference k-mers in the assembly.
    pub min_genome_fraction: f64,
    /// Highest acceptable count of misassembled scaffolds.
    pub max_misassemblies: usize,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Dataset family and pipeline configuration.
    pub preset: Preset,
    /// OS threads multiplexing the 16 virtual ranks.
    pub threads: usize,
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "human_t2",
        preset: Preset::Human,
        threads: 2,
    },
    Workload {
        name: "human_t1",
        preset: Preset::Human,
        threads: 1,
    },
    Workload {
        name: "wheat_t2",
        preset: Preset::Wheat,
        threads: 2,
    },
    Workload {
        name: "meta_multik_t2",
        preset: Preset::Meta,
        threads: 2,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Result<Workload, String> {
    WORKLOADS
        .into_iter()
        .find(|w| w.name == name)
        .ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!(
                "unknown workload {name:?}; want one of {}",
                names.join(", ")
            )
        })
}

/// SplitMix64 finalizer: spreads nearby seeds (1, 2, 3, …) apart.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
