//! Property-based tests for the checkpoint subsystem: every artifact
//! codec must round-trip arbitrary values exactly, the serialized form
//! must be canonical (re-encoding the decoded value reproduces the same
//! bytes), and a halt/resume cycle through the on-disk store must
//! reproduce the uninterrupted assembly byte for byte.

use hipmer::checkpoint::{
    self, decode_alignments, decode_contigs, decode_scaffold_state, decode_spectrum,
    encode_alignments, encode_contigs, encode_scaffold_state, encode_spectrum, ScaffoldState,
};
use hipmer::{assemble, run_assembly, PipelineConfig, PipelineError, RunOptions};
use hipmer_align::Alignment;
use hipmer_contig::{Contig, ContigSet};
use hipmer_dna::{ExtChoice, ExtensionPair, Kmer, KmerCodec};
use hipmer_kanalysis::{KmerEntry, KmerSpectrum};
use hipmer_pgas::{PartitionScheme, Team, Topology};
use hipmer_readsim::{simulate_library, ErrorModel, Genome, Library};
use hipmer_scaffold::{GapCloseStats, Scaffold, ScaffoldMember, ScaffoldSet};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn ext_of(code: u8) -> ExtChoice {
    match code {
        0..=3 => ExtChoice::Unique(code),
        4 => ExtChoice::Fork,
        _ => ExtChoice::None,
    }
}

fn arb_alignment() -> impl Strategy<Value = Alignment> {
    (
        (0u32..10_000, 0u32..1_000),
        (0u32..50, 50u32..150),
        (0u32..5_000, 0u32..5_000),
        (any::<bool>(), 0u32..150, 100u32..151),
    )
        .prop_map(
            |((read, contig), (rs, re), (cs, ce), (rc, matches, read_len))| Alignment {
                read,
                contig,
                read_start: rs,
                read_end: re,
                contig_start: cs,
                contig_end: ce,
                rc,
                matches,
                read_len,
            },
        )
}

fn arb_seq() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(proptest::sample::select(&b"ACGTN"[..]), 1..200)
}

/// A contig as the traversal emits one: `ACGT` only and at least one k-mer
/// long for every k the tests draw (k < 32).
fn arb_contig_seq() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(proptest::sample::select(&b"ACGT"[..]), 32..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn alignment_codec_round_trips(alns in proptest::collection::vec(arb_alignment(), 0..50)) {
        let bytes = encode_alignments(&alns);
        let back = decode_alignments(&bytes).unwrap();
        prop_assert_eq!(&alns, &back);
        // Canonical: re-encoding reproduces the same bytes.
        prop_assert_eq!(encode_alignments(&back), bytes);
    }

    #[test]
    fn contig_codec_round_trips(
        k in 15usize..32,
        seqs in proptest::collection::vec(arb_contig_seq(), 0..20),
        depths in proptest::collection::vec(0u64..100_000, 20),
    ) {
        let contigs = ContigSet {
            contigs: seqs
                .into_iter()
                .zip(depths)
                .enumerate()
                .map(|(id, (seq, depth))| Contig {
                    id,
                    seq,
                    depth: depth as f64 / 1000.0,
                })
                .collect(),
            codec: KmerCodec::new(k),
        };
        let bytes = encode_contigs(&contigs);
        let back = decode_contigs(&bytes).unwrap();
        prop_assert_eq!(back.codec.k(), k);
        prop_assert_eq!(&back.contigs, &contigs.contigs);
        prop_assert_eq!(encode_contigs(&back), bytes);
    }

    #[test]
    fn spectrum_codec_round_trips(
        raw in proptest::collection::vec((0u64..(1 << 42), 1u32..1000, 0u8..6, 0u8..6), 0..64),
        ranks in 1usize..9,
    ) {
        let topo = Topology::new(ranks, 2);
        // Dedup k-mers through a map (the table keys are unique by
        // construction in the real pipeline).
        let entries: Vec<(Kmer, KmerEntry)> = raw
            .into_iter()
            .map(|(bits, count, left, right)| {
                (
                    bits as u128,
                    KmerEntry {
                        count,
                        exts: ExtensionPair { left: ext_of(left), right: ext_of(right) },
                    },
                )
            })
            .collect::<BTreeMap<u128, KmerEntry>>()
            .into_iter()
            .map(|(bits, e)| (Kmer(bits), e))
            .collect();
        let spectrum = KmerSpectrum::from_entries(topo, 21, entries);
        let bytes = encode_spectrum(&spectrum);
        let back = decode_spectrum(&bytes, topo, PartitionScheme::Uniform).unwrap();
        // Export order is canonical (sorted by packed bits), so the
        // round-tripped spectrum exports the identical entry list and the
        // re-encoded artifact is byte-identical.
        prop_assert_eq!(back.export_entries(), spectrum.export_entries());
        prop_assert_eq!(encode_spectrum(&back), bytes);
    }

    #[test]
    fn scaffold_state_codec_round_trips(
        members in proptest::collection::vec(
            proptest::collection::vec(
                (0u32..500, any::<bool>(), -500i64..500, any::<u32>()),
                1..6,
            ),
            0..10,
        ),
        seqs in proptest::collection::vec(arb_seq(), 0..10),
        gaps in proptest::collection::vec(0usize..100, 5),
        means in proptest::collection::vec(50_000u64..5_000_000, 0..4),
    ) {
        let state = ScaffoldState {
            scaffolds: ScaffoldSet {
                scaffolds: members
                    .iter()
                    .map(|ms| Scaffold {
                        members: ms
                            .iter()
                            .map(|&(contig, reversed, gap_before, _)| ScaffoldMember {
                                contig,
                                reversed,
                                gap_before,
                            })
                            .collect(),
                    })
                    .collect(),
                sequences: seqs,
                offsets: members
                    .iter()
                    .map(|ms| ms.iter().map(|m| m.3).collect())
                    .collect(),
            },
            gap_stats: GapCloseStats {
                overlap_joined: gaps[0],
                spanned: gaps[1],
                walked: gaps[2],
                patched: gaps[3],
                nfilled: gaps[4],
            },
            insert_means: means.into_iter().map(|m| m as f64 / 1000.0).collect(),
        };
        let bytes = encode_scaffold_state(&state);
        let back = decode_scaffold_state(&bytes).unwrap();
        prop_assert_eq!(&back, &state);
        prop_assert_eq!(encode_scaffold_state(&back), bytes);
    }

    #[test]
    fn truncated_artifacts_never_decode(
        alns in proptest::collection::vec(arb_alignment(), 1..10),
        cut in 1usize..20,
    ) {
        let bytes = encode_alignments(&alns);
        let cut = cut.min(bytes.len() - 1);
        prop_assert!(decode_alignments(&bytes[..bytes.len() - cut]).is_err());
    }
}

/// All four decoders over the same bytes; how many accepted them. Returning
/// at all is the property: a decoder answers `Ok` or `Err`, it never unwinds
/// (a panic fails the test) and never sizes an allocation from a count the
/// bytes cannot back.
fn decode_all(bytes: &[u8]) -> usize {
    [
        decode_spectrum(bytes, Topology::new(3, 2), PartitionScheme::Uniform).is_ok(),
        decode_contigs(bytes).is_ok(),
        decode_alignments(bytes).is_ok(),
        decode_scaffold_state(bytes).is_ok(),
    ]
    .iter()
    .filter(|&&ok| ok)
    .count()
}

/// One small valid artifact per codec, with the byte offsets of its `u64`
/// count fields and, where it has one, of its `u32` k field. The header is
/// magic (4) + version (4) + tag (1) = 9 bytes.
fn valid_artifacts() -> Vec<(Vec<u8>, Vec<usize>, Option<usize>)> {
    let entry = KmerEntry {
        count: 3,
        exts: ExtensionPair {
            left: ExtChoice::Unique(1),
            right: ExtChoice::Fork,
        },
    };
    let spectrum = KmerSpectrum::from_entries(
        Topology::new(2, 2),
        21,
        vec![(Kmer(5), entry), (Kmer(77), entry)],
    );
    let contigs = ContigSet {
        contigs: vec![Contig {
            id: 0,
            seq: b"ACGTACGTACGTACGTACGTACGT".to_vec(),
            depth: 4.5,
        }],
        codec: KmerCodec::new(21),
    };
    let alignment = Alignment {
        read: 1,
        contig: 0,
        read_start: 0,
        read_end: 90,
        contig_start: 10,
        contig_end: 100,
        rc: true,
        matches: 88,
        read_len: 100,
    };
    let state = ScaffoldState {
        scaffolds: ScaffoldSet {
            scaffolds: vec![Scaffold {
                members: vec![ScaffoldMember {
                    contig: 0,
                    reversed: false,
                    gap_before: 0,
                }],
            }],
            sequences: vec![b"ACGT".to_vec()],
            offsets: vec![vec![0]],
        },
        gap_stats: GapCloseStats::default(),
        insert_means: vec![395.0],
    };
    vec![
        // k, entry count.
        (encode_spectrum(&spectrum), vec![13], Some(9)),
        // k, contig count, then id (8) + depth (8) before the sequence length.
        (encode_contigs(&contigs), vec![13, 37], Some(9)),
        (encode_alignments(&[alignment]), vec![9], None),
        // Scaffold count, member count, one 13-byte member, sequence count,
        // sequence length (4 bases), offset-list count, offset count (one
        // u32), five gap counters, insert-mean count.
        (
            encode_scaffold_state(&state),
            vec![9, 17, 38, 46, 58, 66, 74 + 5 * 8],
            None,
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // HMCP files cross a trust boundary (`--resume` reads whatever is in the
    // directory): arbitrary bytes, bare and behind a valid header so the
    // body parsers are reached, must be rejected without a panic.
    #[test]
    fn decoders_never_unwind_on_arbitrary_bytes(
        tag in 0u8..6,
        body in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        decode_all(&body);
        let mut framed = checkpoint::MAGIC.to_vec();
        framed.extend_from_slice(&checkpoint::FORMAT_VERSION.to_le_bytes());
        framed.push(tag);
        framed.extend_from_slice(&body);
        decode_all(&framed);
    }

    // A valid artifact with one count field or its k field overwritten: a
    // huge count used to reach `Vec::with_capacity` ("capacity overflow" or
    // an allocation abort) and an out-of-range k used to reach
    // `KmerCodec::new`.
    #[test]
    fn overwritten_count_or_k_fields_never_unwind(count in any::<u64>(), k in any::<u32>()) {
        for (bytes, count_offsets, k_offset) in valid_artifacts() {
            prop_assert_eq!(decode_all(&bytes), 1, "exactly its own codec accepts it");
            for &at in &count_offsets {
                for hostile in [count, u64::MAX, u64::MAX / 16, 1 << 40, 2] {
                    let mut bad = bytes.clone();
                    bad[at..at + 8].copy_from_slice(&hostile.to_le_bytes());
                    let accepted = decode_all(&bad);
                    // No count can be this large, so this also pins `at` to
                    // a real count field.
                    prop_assert!(hostile != u64::MAX || accepted == 0, "offset {}", at);
                }
            }
            if let Some(at) = k_offset {
                for hostile in [k, 0, 65, u32::MAX] {
                    let mut bad = bytes.clone();
                    bad[at..at + 4].copy_from_slice(&hostile.to_le_bytes());
                    let accepted = decode_all(&bad);
                    prop_assert!((1..=hipmer_dna::MAX_K as u32).contains(&hostile) || accepted == 0, "k = {}", hostile);
                }
            }
        }
    }
}

/// A contig set holding one sequence, framed by the real encoder.
fn encoded_contig(seq: &[u8]) -> Vec<u8> {
    encode_contigs(&ContigSet {
        contigs: vec![Contig {
            id: 0,
            seq: seq.to_vec(),
            depth: 0.0,
        }],
        codec: KmerCodec::new(21),
    })
}

// Well-formed, checksum-consistent artifacts whose *content* the stages
// downstream cannot take: `compute_depths` slices `seq[off..off + k]` and
// packs `seq[..k]` inside `Team::run_named`, where a panic is a process abort.
#[test]
fn contigs_the_scaffolder_cannot_read_are_rejected() {
    let good = b"ACGTTGCAACGTTGCAACGTTGCAAC";
    assert!(decode_contigs(&encoded_contig(good)).is_ok());
    let short = decode_contigs(&encoded_contig(b"ACGTA")).unwrap_err();
    assert_eq!(short.kind(), std::io::ErrorKind::InvalidData);
    let mut with_n = good.to_vec();
    with_n[3] = b'N';
    let n = decode_contigs(&encoded_contig(&with_n)).unwrap_err();
    assert_eq!(n.kind(), std::io::ErrorKind::InvalidData);
    // Ids index the set (`build_seed_index` looks contigs up by id).
    let mut sparse = encoded_contig(good);
    sparse[21..29].copy_from_slice(&7u64.to_le_bytes());
    assert!(decode_contigs(&sparse).is_err());
}

// An alignment artifact that decodes but names a contig the prepared set
// does not have: `--resume` must fail with an I/O error, not index
// `contigs.contigs[u32::MAX]` in gap closing.
#[test]
fn resume_rejects_alignments_that_name_missing_contigs() {
    let dataset = hipmer_readsim::human_like_dataset(8_000, 14.0, false, 5);
    let reads = dataset.all_reads();
    let ranges = dataset.lib_ranges();
    let cfg = PipelineConfig::new(21);
    let team = Team::new(Topology::new(4, 2));
    let dir = std::env::temp_dir().join(format!("hipmer-ckpt-badaln-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let opts = RunOptions {
        checkpoint_dir: Some(dir.clone()),
        halt_after: Some("alignment".to_string()),
        ..RunOptions::default()
    };
    let halted = run_assembly(&team, &reads, &ranges, &cfg, &opts);
    assert!(matches!(halted, Err(PipelineError::Halted { .. })));

    // Rewrite the artifact through the store, so manifest and checksum agree.
    let fingerprint = checkpoint::Fingerprint {
        k: 21,
        ranks: 4,
        ranks_per_node: 2,
        n_reads: reads.len(),
        read_bases: reads.iter().map(|r| r.len()).sum(),
        rounds: cfg.scaffold.rounds,
        multi_k: Vec::new(),
    };
    let mut store = checkpoint::CheckpointStore::open_for_resume(&dir, fingerprint).unwrap();
    let (payload, _, _) = store.load("alignment").unwrap();
    let mut alns = decode_alignments(&payload).unwrap();
    alns[0].contig = u32::MAX;
    store
        .save(3, "alignment", &encode_alignments(&alns))
        .unwrap();

    let resumed = run_assembly(
        &team,
        &reads,
        &ranges,
        &cfg,
        &RunOptions {
            checkpoint_dir: Some(dir.clone()),
            resume: true,
            ..RunOptions::default()
        },
    );
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        matches!(resumed, Err(PipelineError::Io(_))),
        "an out-of-range alignment must be an I/O error"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn halt_resume_reproduces_assembly(
        seed in 0u64..50,
        ranks in 2usize..10,
        halt_stage in proptest::sample::select(&[
            "kmer-analysis",
            "contig-generation",
            "scaffold-prep",
            "alignment",
        ][..]),
    ) {
        let genome = Genome::haploid(
            "g",
            hipmer_readsim::random_genome(
                9_000,
                0.45,
                &mut rand::SeedableRng::seed_from_u64(seed),
            ),
        );
        let reads = simulate_library(
            &genome,
            &Library::short_insert(16.0),
            &ErrorModel::perfect(),
            seed,
        );
        let lib_range = 0..reads.len();
        let ranges = std::slice::from_ref(&lib_range);
        let cfg = PipelineConfig::new(21);
        let team = Team::new(Topology::new(ranks, 4));

        let plain = assemble(&team, &reads, ranges, &cfg);

        let dir = std::env::temp_dir().join(format!(
            "hipmer-prop-ckpt-{}-{seed}-{ranks}-{halt_stage}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let halted = run_assembly(
            &team,
            &reads,
            ranges,
            &cfg,
            &RunOptions {
                checkpoint_dir: Some(dir.clone()),
                halt_after: Some(halt_stage.to_string()),
                ..RunOptions::default()
            },
        );
        prop_assert!(matches!(halted, Err(PipelineError::Halted { .. })));
        let resumed = run_assembly(
            &team,
            &reads,
            ranges,
            &cfg,
            &RunOptions {
                checkpoint_dir: Some(dir.clone()),
                resume: true,
                ..RunOptions::default()
            },
        )
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(plain.scaffolds.sequences, resumed.scaffolds.sequences);
        prop_assert!(resumed.report.stage_attempts.iter().any(|a| a.resumed));
    }
}

// FNV-1a must detect any single-byte corruption of an artifact (a
// deterministic check, but driven over arbitrary payloads).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn checksum_catches_single_byte_flips(
        payload in proptest::collection::vec(any::<u8>(), 1..512),
        at in 0usize..512,
        flip in 1u8..=255,
    ) {
        let at = at % payload.len();
        let mut corrupt = payload.clone();
        corrupt[at] ^= flip;
        prop_assert_ne!(checkpoint::fnv1a(&payload), checkpoint::fnv1a(&corrupt));
    }
}
