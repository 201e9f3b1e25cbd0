//! Canned datasets mirroring the paper's three evaluation workloads,
//! scaled to laptop size. The benchmark harnesses and integration tests
//! build these by name.

use crate::genome::{
    human_like, metagenome, metagenome_repeats, wheat_like, wheat_like_moderate, Genome,
};
use crate::reads::{simulate_library, ErrorModel, Library};
use hipmer_seqio::SeqRecord;

/// A ready-to-assemble dataset: genome(s), libraries, and simulated reads.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Dataset name ("human-like", "wheat-like", "metagenome").
    pub name: String,
    /// The source genomes (one for single organisms; many for communities).
    pub genomes: Vec<Genome>,
    /// The libraries that were sequenced.
    pub libraries: Vec<Library>,
    /// All reads, grouped per library in `libraries` order.
    pub reads_per_library: Vec<Vec<SeqRecord>>,
}

impl Dataset {
    /// All reads of all libraries, flattened (library order preserved).
    pub fn all_reads(&self) -> Vec<SeqRecord> {
        self.reads_per_library.iter().flatten().cloned().collect()
    }

    /// The index range each library occupies in [`Self::all_reads`] — the
    /// `lib_ranges` argument of the scaffolder and the pipeline.
    pub fn lib_ranges(&self) -> Vec<std::ops::Range<usize>> {
        let mut start = 0;
        (self.reads_per_library.iter())
            .map(|lib| {
                let range = start..start + lib.len();
                start = range.end;
                range
            })
            .collect()
    }

    /// Total read bases.
    pub fn total_read_bases(&self) -> usize {
        self.reads_per_library
            .iter()
            .flatten()
            .map(|r| r.len())
            .sum()
    }

    /// Total reference bases.
    pub fn total_genome_bases(&self) -> usize {
        self.genomes.iter().map(|g| g.reference_len()).sum()
    }
}

/// Human-like dataset: diploid genome, one short-insert library at
/// moderate coverage plus one long-insert (1 kbp-like, scaled) scaffolding
/// library. `genome_len` controls scale; the paper's is 3.2 Gbp.
pub fn human_like_dataset(genome_len: usize, coverage: f64, errors: bool, seed: u64) -> Dataset {
    let g = human_like(genome_len, seed);
    let err = if errors {
        ErrorModel::illumina()
    } else {
        ErrorModel::perfect()
    };
    let libs = vec![
        Library::short_insert(coverage * 0.8),
        Library::long_insert(1000, coverage * 0.2),
    ];
    let reads = libs
        .iter()
        .enumerate()
        .map(|(i, lib)| simulate_library(&g, lib, &err, seed.wrapping_add(1000 + i as u64)))
        .collect();
    Dataset {
        name: "human-like".into(),
        genomes: vec![g],
        libraries: libs,
        reads_per_library: reads,
    }
}

/// Wheat-like dataset on the *extreme* generator (ultra-hot tandem
/// k-mers): the workload for the heavy-hitter experiments (§5.1), where
/// only k-mer analysis runs. For scaffolding-stage experiments use
/// [`wheat_scaffolding_dataset`].
pub fn wheat_like_dataset(genome_len: usize, coverage: f64, errors: bool, seed: u64) -> Dataset {
    let g = wheat_like(genome_len, seed);
    wheat_dataset_from(g, coverage, errors, seed)
}

/// Wheat-like dataset on the *moderate* generator: fragmented by repeats
/// but assembleable — the workload for the wheat scaffolding and
/// end-to-end experiments (Figs. 7–8), with multiple insert libraries
/// (the paper uses five paired-end plus 1 kbp and 4.2 kbp long-insert
/// libraries for the wheat scaffolding rounds).
pub fn wheat_scaffolding_dataset(
    genome_len: usize,
    coverage: f64,
    errors: bool,
    seed: u64,
) -> Dataset {
    let g = wheat_like_moderate(genome_len, seed);
    wheat_dataset_from(g, coverage, errors, seed)
}

fn wheat_dataset_from(g: Genome, coverage: f64, errors: bool, seed: u64) -> Dataset {
    let err = if errors {
        ErrorModel::illumina()
    } else {
        ErrorModel::perfect()
    };
    let libs = vec![
        Library {
            name: "pe240".into(),
            read_len: 150,
            // Paper's smallest wheat insert is 240 bp with 150-250 bp
            // reads (overlapping mates); we keep 310 so two 150 bp mates
            // fit without overlap, which our splint detector still covers
            // via contig-end alignments.
            insert_mean: 310,
            insert_sd: 25.0,
            coverage: coverage * 0.5,
        },
        Library {
            name: "pe740".into(),
            read_len: 150,
            insert_mean: 740,
            insert_sd: 55.0,
            coverage: coverage * 0.3,
        },
        Library::long_insert(1000, coverage * 0.1),
        Library::long_insert(4200, coverage * 0.1),
    ];
    let reads = libs
        .iter()
        .enumerate()
        .map(|(i, lib)| simulate_library(&g, lib, &err, seed.wrapping_add(2000 + i as u64)))
        .collect();
    Dataset {
        name: "wheat-like".into(),
        genomes: vec![g],
        libraries: libs,
        reads_per_library: reads,
    }
}

/// Metagenome dataset: a community of `species` genomes with lognormal
/// abundances; one short-insert library whose per-species coverage is
/// proportional to abundance — low-abundance organisms stay below the
/// count threshold, flattening the k-mer spectrum (§5.4).
pub fn metagenome_dataset(
    total_len: usize,
    species: usize,
    mean_coverage: f64,
    errors: bool,
    seed: u64,
) -> Dataset {
    let community = metagenome(total_len, species, seed);
    community_dataset("metagenome", community, mean_coverage, errors, seed)
}

/// Metagenome dataset over a repeat-bearing community
/// ([`metagenome_repeats`]): same abundance-proportional coverage model as
/// [`metagenome_dataset`], but every species genome carries an intra-genome
/// exact repeat of `repeat_len` bp between ~`unique_block` bp unique blocks,
/// so assemblies at k below `repeat_len` fragment and rounds at larger k
/// can rejoin them (the multi-k bench's community).
pub fn metagenome_repeats_dataset(
    total_len: usize,
    species: usize,
    repeat_len: usize,
    unique_block: usize,
    mean_coverage: f64,
    errors: bool,
    seed: u64,
) -> Dataset {
    let community = metagenome_repeats(total_len, species, repeat_len, unique_block, seed);
    community_dataset("metagenome-repeats", community, mean_coverage, errors, seed)
}

/// Shared read-sampling model for metagenome communities: one short-insert
/// library whose per-species coverage is proportional to abundance
/// (normalized so the community-wide average is `mean_coverage`); species
/// too scarce to yield even a couple of reads contribute none.
fn community_dataset(
    name: &str,
    community: Vec<(Genome, f64)>,
    mean_coverage: f64,
    errors: bool,
    seed: u64,
) -> Dataset {
    let species = community.len();
    let err = if errors {
        ErrorModel::illumina()
    } else {
        ErrorModel::perfect()
    };
    let lib = Library::short_insert(mean_coverage);
    let mut all = Vec::new();
    let mut genomes = Vec::new();
    for (i, (g, abundance)) in community.into_iter().enumerate() {
        // Coverage proportional to abundance, normalized so the *average*
        // across the community is mean_coverage.
        let cov = mean_coverage * abundance * species as f64;
        let species_lib = Library {
            coverage: cov,
            ..lib.clone()
        };
        if species_lib.coverage * g.reference_len() as f64 >= 2.0 * lib.read_len as f64 {
            all.extend(simulate_library(
                &g,
                &species_lib,
                &err,
                seed.wrapping_add(3000 + i as u64),
            ));
        }
        genomes.push(g);
    }
    Dataset {
        name: name.into(),
        genomes,
        libraries: vec![lib],
        reads_per_library: vec![all],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_dataset_shape() {
        let d = human_like_dataset(60_000, 10.0, false, 1);
        assert_eq!(d.genomes.len(), 1);
        assert_eq!(d.libraries.len(), 2);
        assert_eq!(d.reads_per_library.len(), 2);
        let cov = d.total_read_bases() as f64 / d.total_genome_bases() as f64;
        // Diploid: reads sample both haplotypes but coverage is quoted per
        // haploid genome; the dataset divides genome bases across both.
        assert!(cov > 2.0, "coverage {cov}");
    }

    #[test]
    fn wheat_dataset_has_long_insert_libs() {
        let d = wheat_like_dataset(80_000, 8.0, false, 2);
        assert_eq!(d.libraries.len(), 4);
        assert!(d.libraries.iter().any(|l| l.insert_mean >= 4000));
        assert!(d.reads_per_library.iter().all(|r| !r.is_empty()));
    }

    #[test]
    fn metagenome_repeats_dataset_shape() {
        let d = metagenome_repeats_dataset(120_000, 12, 30, 300, 10.0, false, 9);
        assert_eq!(d.name, "metagenome-repeats");
        assert_eq!(d.genomes.len(), 12);
        assert_eq!(d.libraries.len(), 1);
        assert!(!d.reads_per_library[0].is_empty());
    }

    #[test]
    fn metagenome_coverage_is_skewed() {
        let d = metagenome_dataset(300_000, 25, 10.0, false, 3);
        assert_eq!(d.genomes.len(), 25);
        assert!(!d.reads_per_library[0].is_empty());
        // Some species should be sampled deeply, others barely — check read
        // id diversity.
        let mut per_species = std::collections::HashMap::new();
        for r in &d.reads_per_library[0] {
            let sp = r.id.split(':').next().unwrap().to_string();
            *per_species.entry(sp).or_insert(0usize) += 1;
        }
        let max = per_species.values().max().unwrap();
        let min = per_species.values().min().unwrap();
        assert!(max > &(min * 4), "abundances must be skewed: {min}..{max}");
    }

    #[test]
    fn datasets_deterministic() {
        let a = human_like_dataset(20_000, 4.0, true, 7);
        let b = human_like_dataset(20_000, 4.0, true, 7);
        assert_eq!(a.reads_per_library, b.reads_per_library);
    }
}
