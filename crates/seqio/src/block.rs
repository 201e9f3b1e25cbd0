//! The parallel block FASTQ reader (§3.3).
//!
//! Neither Ray nor ABySS had a scalable FASTQ reader; HipMer's samples the
//! file to estimate record lengths, derives per-rank byte split points,
//! fixes each split forward to the next true record boundary (a split can
//! land mid-record; the partial record belongs to the previous rank), and
//! then reads each range with large buffers, parsing in memory.
//!
//! Boundary detection cannot just look for `@` at line start — `@` is a
//! legal quality character (Phred 31). A candidate line is accepted as a
//! record header only if a whole well-formed record parses at it. Only true
//! line starts are candidates, and no sequence line may begin with `@` or
//! `+` (no base code is either), so the line after a quality line that
//! begins with `@` cannot pass for a sequence line: every accepted line is
//! a header in the sequential framing.

use crate::fastq::{parse_fastq, parse_fastq_complete};
use crate::record::SeqRecord;
use crate::scan::memchr_nl;
use hipmer_pgas::{CommStats, Team};
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::Path;

/// How many bytes each rank samples to estimate the record length.
const SAMPLE_BYTES: usize = 64 * 1024;

/// The byte range of the file one rank is responsible for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FastqSplit {
    /// First byte of this rank's range (at a record boundary).
    pub start: u64,
    /// One past the last byte (at a record boundary, or file end).
    pub end: u64,
}

/// Find the first record boundary at or after the start of `buf`, whose
/// first byte must start a line.
///
/// Scans line starts; a line is a header iff a complete, well-formed FASTQ
/// record parses there. Returns the offset *within `buf`*.
pub(crate) fn find_record_start(buf: &[u8]) -> Option<usize> {
    let mut line_start = 0usize;
    loop {
        if line_start >= buf.len() {
            return None;
        }
        if buf[line_start] == b'@' {
            if let Ok((records, _)) = parse_fastq(&buf[line_start..]) {
                if !records.is_empty() {
                    return Some(line_start);
                }
            }
        }
        match memchr_nl(&buf[line_start..]) {
            Some(nl) => line_start += nl + 1,
            None => return None,
        }
    }
}

/// Estimate the average record length (bytes) from a sample buffer.
fn estimate_record_len(sample: &[u8]) -> usize {
    match parse_fastq(sample) {
        Ok((records, consumed)) if !records.is_empty() => consumed / records.len(),
        _ => 512,
    }
}

/// Resolve the true boundary at or after byte `offset`: reads a window and
/// scans for the first parsable record start. `offset == 0` is always a
/// boundary. Returns `file_len` when no boundary exists past `offset`.
fn resolve_boundary(
    file: &mut File,
    file_len: u64,
    offset: u64,
    est_record_len: usize,
    io_bytes: &mut u64,
) -> io::Result<u64> {
    if offset == 0 {
        return Ok(0);
    }
    if offset >= file_len {
        return Ok(file_len);
    }
    // Window: a handful of records' worth, growing if nothing parses
    // (quality lines full of '@'s can defeat a too-small window). It starts
    // one byte early: a line starts at `offset` only if the byte before it
    // is a newline, so the scan begins after the window's first newline.
    let from = offset - 1;
    let mut window = (est_record_len * 8).max(4096);
    loop {
        let len = window.min((file_len - from) as usize);
        let mut buf = vec![0u8; len];
        file.seek(SeekFrom::Start(from))?;
        file.read_exact(&mut buf)?;
        *io_bytes += len as u64;
        if let Some(first) = memchr_nl(&buf).map(|nl| nl + 1) {
            if let Some(pos) = find_record_start(&buf[first..]) {
                return Ok(from + (first + pos) as u64);
            }
        }
        if len == (file_len - from) as usize {
            // Scanned to end of file without a boundary: previous rank owns
            // the tail.
            return Ok(file_len);
        }
        window *= 4;
    }
}

/// Read a FASTQ file in parallel: every rank of `team` reads and parses its
/// own byte range. Returns per-rank record vectors (indexed by rank) and
/// the per-rank I/O counters.
///
/// Guarantees: the union of all ranks' records is exactly the file's
/// records, in order, with no duplicates — split fix-up assigns a record
/// crossing a naive split point to the earlier rank (the paper's rule:
/// "the previous partial read is processed by the neighboring processor
/// p_{i−1}").
pub fn read_fastq_parallel(
    team: &Team,
    path: &Path,
) -> io::Result<(Vec<Vec<SeqRecord>>, Vec<CommStats>)> {
    let file_len = std::fs::metadata(path)?.len();
    let ranks = team.ranks() as u64;

    let (results, stats) = team.run_named("io/fastq", |ctx| -> io::Result<Vec<SeqRecord>> {
        let mut file = File::open(path)?;
        let mut io_bytes = 0u64;

        // Sampling pass: estimate the record length near this rank's naive
        // offset (the paper samples ~1M reads across ranks; proportionally
        // we take a fixed-size block).
        let naive_start = file_len * ctx.rank as u64 / ranks;
        let naive_end = file_len * (ctx.rank as u64 + 1) / ranks;
        let sample_len = SAMPLE_BYTES.min(file_len as usize);
        let mut sample = vec![0u8; sample_len];
        file.seek(SeekFrom::Start(0))?;
        file.read_exact(&mut sample)?;
        io_bytes += sample_len as u64;
        let est = estimate_record_len(&sample);
        drop(sample);

        // Fix both split points forward to true record boundaries. Both
        // neighbors compute the same function of the same naive offset, so
        // ranges tile the file exactly.
        let start = resolve_boundary(&mut file, file_len, naive_start, est, &mut io_bytes)?;
        let end = resolve_boundary(&mut file, file_len, naive_end, est, &mut io_bytes)?;

        let records = if start < end {
            // Large-buffer read of the whole range (MPI_File_read_at with
            // big buffers in the paper), parsed in memory. A record that
            // *starts* before `end` may finish after it, so read a little
            // past and keep only records starting in-range: simpler — since
            // `end` is itself a record boundary (or EOF), the range is
            // exactly whole records.
            let len = (end - start) as usize;
            let mut buf = vec![0u8; len];
            file.seek(SeekFrom::Start(start))?;
            file.read_exact(&mut buf)?;
            io_bytes += len as u64;
            // `end` is a record boundary (or EOF), so the range must parse
            // as whole records; `parse_fastq_complete` also tolerates a
            // final record with no trailing newline and names the failing
            // record on malformed input.
            parse_fastq_complete(&buf).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("rank {} range [{start},{end}): {e}", ctx.rank),
                )
            })?
        } else {
            Vec::new()
        };

        ctx.stats.io_read_bytes += io_bytes;
        Ok(records)
    });

    let mut per_rank = Vec::with_capacity(results.len());
    for r in results {
        per_rank.push(r?);
    }
    Ok((per_rank, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fastq::write_fastq;
    use hipmer_pgas::Topology;

    fn write_test_file(n: usize, dir: &std::path::Path) -> (std::path::PathBuf, Vec<SeqRecord>) {
        let records: Vec<SeqRecord> = (0..n)
            .map(|i| {
                let len = 50 + (i * 13) % 80; // variable lengths
                let seq: Vec<u8> = (0..len).map(|j| b"ACGT"[(i + j) % 4]).collect();
                SeqRecord::with_uniform_quality(format!("read{i}/1 lib=A"), seq, 35)
            })
            .collect();
        let path = dir.join("test.fastq");
        let mut buf = Vec::new();
        write_fastq(&mut buf, &records).unwrap();
        std::fs::write(&path, &buf).unwrap();
        (path, records)
    }

    fn tempdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hipmer-seqio-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn parallel_read_is_exact_partition() {
        let dir = tempdir();
        let (path, expect) = write_test_file(500, &dir);
        for ranks in [1usize, 2, 3, 7, 16] {
            let team = Team::new(Topology::new(ranks, 4));
            let (per_rank, stats) = read_fastq_parallel(&team, &path).unwrap();
            let got: Vec<SeqRecord> = per_rank.into_iter().flatten().collect();
            assert_eq!(got, expect, "ranks={ranks}");
            assert!(stats.iter().all(|s| s.io_read_bytes > 0));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn more_ranks_than_records() {
        let dir = tempdir();
        let (path, expect) = write_test_file(3, &dir);
        let team = Team::new(Topology::new(64, 8));
        let (per_rank, _) = read_fastq_parallel(&team, &path).unwrap();
        let got: Vec<SeqRecord> = per_rank.into_iter().flatten().collect();
        assert_eq!(got, expect);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn boundary_detection_survives_at_in_quality() {
        // Qualities made entirely of '@' (Phred 31) — a naive scanner
        // would misidentify them as headers.
        let txt = b"@r1\nACGTACGT\n+\n@@@@@@@@\n@r2\nTTTTAAAA\n+\n@@@@@@@@\n";
        // From offset 1 (inside r1's header) the next record start is r2's.
        let pos = find_record_start(&txt[1..]).unwrap();
        assert_eq!(&txt[1 + pos..1 + pos + 3], b"@r2");
    }

    #[test]
    fn at_signs_inside_headers_are_not_boundaries() {
        // A split landing inside `@sample@lane7` must not take `@lane7` for
        // a header: a window's first byte is not a line start.
        let dir = tempdir();
        let records: Vec<SeqRecord> = (0..40)
            .map(|i| {
                let seq: Vec<u8> = (0..30 + i % 7)
                    .map(|j| b"ACGT"[(i * j + j / 3) % 4])
                    .collect();
                SeqRecord::with_uniform_quality(format!("sample@lane{i}"), seq, 35)
            })
            .collect();
        let path = dir.join("at-ids.fastq");
        let mut buf = Vec::new();
        write_fastq(&mut buf, &records).unwrap();
        std::fs::write(&path, &buf).unwrap();
        for ranks in 1..=64 {
            let team = Team::new(Topology::new(ranks, 8));
            let (per_rank, _) = read_fastq_parallel(&team, &path).unwrap();
            let got: Vec<SeqRecord> = per_rank.into_iter().flatten().collect();
            assert_eq!(got, records, "ranks={ranks}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_sequence_line_starting_with_a_marker_is_an_error_at_every_rank_count() {
        // Framed from `@A`, the file's tail is one record (`@A`, `+ab`,
        // `+I`, `@r2`) plus three lines a window may cut off, so a split
        // landing on `@A` would take it for a header. No valid record has
        // such a sequence line, so both readers reject the file.
        let dir = tempdir();
        let txt = b"@r1\n@A\n+ab\n+I\n@r2\nAC\n+\nII\n";
        let path = dir.join("marker-seq.fastq");
        std::fs::write(&path, txt).unwrap();
        let err = crate::fastq::parse_fastq_complete(txt).unwrap_err();
        assert_eq!(err, "record 1: sequence line starts with '@'");
        for ranks in 1..=8 {
            let team = Team::new(Topology::new(ranks, 4));
            assert!(read_fastq_parallel(&team, &path).is_err(), "ranks={ranks}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn find_record_start_none_in_garbage() {
        assert_eq!(find_record_start(b"no fastq here\njust lines\n"), None);
    }

    #[test]
    fn io_bytes_accounted_per_rank() {
        let dir = tempdir();
        let (path, _) = write_test_file(200, &dir);
        let file_len = std::fs::metadata(&path).unwrap().len();
        let team = Team::new(Topology::new(4, 4));
        let (_, stats) = read_fastq_parallel(&team, &path).unwrap();
        let total: u64 = stats.iter().map(|s| s.io_read_bytes).sum();
        // At least every byte read once (plus sampling/boundary overhead).
        assert!(total >= file_len);
        std::fs::remove_dir_all(&dir).ok();
    }
}
