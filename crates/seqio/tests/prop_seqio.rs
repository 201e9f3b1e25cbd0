//! Property tests for sequence I/O: round-trips, the parallel reader's
//! exact-partition guarantee under arbitrary record shapes (and its
//! agreement with the sequential parse on ids, sequences and qualities
//! full of `@` and `+`), and FASTQ parsers that answer `Ok` or `Err` to
//! any bytes.

use hipmer_dna::BASES;
use hipmer_pgas::{Team, Topology};
use hipmer_seqio::fastq::parse_fastq_reference;
use hipmer_seqio::{
    parse_fasta, parse_fastq, parse_fastq_complete, read_fastq_parallel, write_fasta, write_fastq,
    SeqRecord,
};
use proptest::prelude::*;

fn record_strategy() -> impl Strategy<Value = SeqRecord> {
    (
        "[a-zA-Z0-9_/ .:-]{1,30}",
        prop::collection::vec(prop::sample::select(&BASES[..]), 1..200),
        2u8..41,
    )
        .prop_map(|(id, seq, q)| SeqRecord::with_uniform_quality(id, seq, q))
}

/// One FASTQ record's lines as `(id, lead roll, bases, separator tail,
/// qualities)`, drawn from alphabets that hold `@` and `+`: the id, the
/// tail after the separator's `+` and the qualities may hold them anywhere.
/// The test puts `@` or `+` before the bases when the roll is below its
/// odds; no valid file has such a sequence line.
fn marker_record_strategy() -> impl Strategy<Value = (Vec<u8>, u8, Vec<u8>, Vec<u8>, Vec<u8>)> {
    (
        prop::collection::vec(prop::sample::select(&b"@+a1"[..]), 0..4),
        0u8..64,
        prop::collection::vec(prop::sample::select(&b"ACGTN"[..]), 0..40),
        prop::collection::vec(prop::sample::select(&b"@+a"[..]), 0..4),
        prop::collection::vec(prop::sample::select(&b"@+I#"[..]), 41),
    )
}

/// Any byte value, with the FASTQ structural bytes (`@`, `+`, newline)
/// drawn about as often as all the others together, so that arbitrary
/// input often gets past the header check into the record grammar.
fn fastq_byte() -> impl Strategy<Value = u8> {
    let mut alphabet: Vec<u8> = (0..=255).collect();
    alphabet.extend(b"@+\n".repeat(85));
    prop::sample::select(&alphabet)
}

/// Write `bytes` as a FASTQ file and read it back on `ranks` ranks.
fn read_fastq_bytes(bytes: &[u8], ranks: usize, case: u64) -> std::io::Result<Vec<SeqRecord>> {
    let dir = std::env::temp_dir().join(format!("hipmer-prop-fastq-{}-{case}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("reads.fastq");
    std::fs::write(&path, bytes).unwrap();
    let team = Team::new(Topology::new(ranks, 2));
    let got = read_fastq_parallel(&team, &path);
    std::fs::remove_dir_all(&dir).ok();
    Ok(got?.0.into_iter().flatten().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fastq_readers_never_panic_on_arbitrary_bytes(
        buf in prop::collection::vec(fastq_byte(), 0..400),
        ranks in 1usize..8,
        case in any::<u64>(),
    ) {
        // Returning at all is the property; a streaming parse also owns up
        // to the prefix it consumed, which re-parses to the same records.
        if let Ok((records, consumed)) = parse_fastq(&buf) {
            prop_assert!(consumed <= buf.len());
            prop_assert_eq!(parse_fastq(&buf[..consumed]), Ok((records, consumed)));
        }
        let _ = parse_fastq_complete(&buf);
        let _ = read_fastq_bytes(&buf, ranks, case);
    }

    #[test]
    fn fastq_roundtrip(records in prop::collection::vec(record_strategy(), 0..40)) {
        let mut buf = Vec::new();
        write_fastq(&mut buf, &records).unwrap();
        let (parsed, consumed) = parse_fastq(&buf).unwrap();
        prop_assert_eq!(parsed, records);
        prop_assert_eq!(consumed, buf.len());
    }

    #[test]
    fn fasta_roundtrip(records in prop::collection::vec(record_strategy(), 0..40), width in 0usize..100) {
        // FASTA drops qualities.
        let plain: Vec<SeqRecord> = records
            .iter()
            .map(|r| SeqRecord::new(r.id.clone(), r.seq.clone()))
            .collect();
        let mut buf = Vec::new();
        write_fasta(&mut buf, &plain, width).unwrap();
        prop_assert_eq!(parse_fasta(&buf).unwrap(), plain);
    }

    #[test]
    fn optimized_fastq_parser_equals_reference_on_truncations(
        records in prop::collection::vec(record_strategy(), 0..12),
        cut_back in 0usize..64,
    ) {
        let mut buf = Vec::new();
        write_fastq(&mut buf, &records).unwrap();
        let cut = buf.len().saturating_sub(cut_back);
        prop_assert_eq!(parse_fastq(&buf[..cut]), parse_fastq_reference(&buf[..cut]));
    }

    #[test]
    fn optimized_fastq_parser_equals_reference_on_arbitrary_bytes(
        buf in prop::collection::vec(
            prop::sample::select(&b"@+ACGT\r\nI!x"[..]), 0..300),
    ) {
        prop_assert_eq!(parse_fastq(&buf), parse_fastq_reference(&buf));
    }

    #[test]
    fn complete_parse_agrees_with_streaming_on_whole_files(
        records in prop::collection::vec(record_strategy(), 0..12),
    ) {
        let mut buf = Vec::new();
        write_fastq(&mut buf, &records).unwrap();
        prop_assert_eq!(parse_fastq_complete(&buf).unwrap(), records);
    }

    #[test]
    fn parallel_reader_partitions_exactly(
        records in prop::collection::vec(record_strategy(), 1..60),
        ranks in 1usize..24,
        case in any::<u64>(),
    ) {
        let dir = std::env::temp_dir().join(format!(
            "hipmer-prop-seqio-{}-{case}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reads.fastq");
        let mut buf = Vec::new();
        write_fastq(&mut buf, &records).unwrap();
        std::fs::write(&path, &buf).unwrap();

        let team = Team::new(Topology::new(ranks, 4));
        let (per_rank, _) = read_fastq_parallel(&team, &path).unwrap();
        let got: Vec<SeqRecord> = per_rank.into_iter().flatten().collect();
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(got, records);
    }

    #[test]
    fn parallel_reader_agrees_with_the_sequential_parse(
        records in prop::collection::vec(marker_record_strategy(), 1..40),
        lead_odds in 0usize..3,
        case in any::<u64>(),
    ) {
        // A file has no marked sequence line, about one in sixteen, or one
        // in four.
        let odds = [0, 4, 16][lead_odds];
        let mut buf = Vec::new();
        for (id, roll, bases, tail, qual) in &records {
            let mut seq = bases.clone();
            if *roll < odds {
                seq.insert(0, b"@+"[*roll as usize % 2]);
            }
            let qual = &qual[..seq.len()];
            for line in [b"@", &id[..], b"\n", &seq, b"\n+", tail, b"\n", qual, b"\n"] {
                buf.extend_from_slice(line);
            }
        }
        let dir = std::env::temp_dir().join(format!(
            "hipmer-prop-seqio-markers-{}-{case}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reads.fastq");
        std::fs::write(&path, &buf).unwrap();

        let sequential = parse_fastq_complete(&buf);
        for ranks in 1usize..24 {
            let team = Team::new(Topology::new(ranks, 4));
            let parallel = read_fastq_parallel(&team, &path)
                .map(|(per_rank, _)| per_rank.into_iter().flatten().collect::<Vec<_>>());
            match (&sequential, &parallel) {
                (Ok(want), Ok(got)) => prop_assert_eq!(got, want, "ranks={}", ranks),
                (Err(_), Err(_)) => {}
                _ => prop_assert!(
                    false,
                    "ranks={ranks}: sequential {sequential:?}, parallel {parallel:?}"
                ),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
