//! FASTQ parsing and writing.
//!
//! The strict 4-line flavor modern sequencers emit: `@id`, bases, `+`,
//! qualities. The parser is buffer-oriented (parse a whole `&[u8]` already
//! in memory) because the parallel block reader of §3.3 reads large chunks
//! with big buffered reads and parses in memory — that is the key to its
//! I/O performance.
//!
//! The hot path is [`FastqScanner`]: a zero-allocation scanner that yields
//! borrowed line slices found with SWAR (`u64`-block) newline search.
//! [`parse_fastq`] and [`parse_fastq_complete`] materialize owned
//! [`SeqRecord`]s from it only at the edge; [`parse_fastq_reference`] keeps
//! the original byte-loop parser as the executable specification for the
//! differential tests and the before/after benchmark.

use crate::record::SeqRecord;
use crate::scan::memchr_nl;
use std::io::{self, Write};

/// One FASTQ record as borrowed slices of the input buffer (no copies).
///
/// `id` has the leading `@` and any trailing CR removed; `seq`/`qual` have
/// trailing CRs removed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RawRecord<'a> {
    /// Record identifier.
    pub id: &'a [u8],
    /// Base line.
    pub seq: &'a [u8],
    /// Quality line (same length as `seq`).
    pub qual: &'a [u8],
}

/// Zero-allocation 4-line FASTQ scanner over an in-memory buffer.
///
/// Two termination modes: a *streaming* scanner (`new`) stops cleanly
/// before a trailing partial record so the caller can refill and resume at
/// [`consumed`](Self::consumed); a *complete* scanner (`new_complete`)
/// treats end-of-buffer as a line terminator and reports a trailing
/// partial record as a record-numbered error. Records are numbered from 1
/// in error messages.
pub struct FastqScanner<'a> {
    buf: &'a [u8],
    pos: usize,
    nrec: usize,
    consumed: usize,
    complete: bool,
}

impl<'a> FastqScanner<'a> {
    /// Streaming scanner: partial trailing records are left unconsumed.
    pub fn new(buf: &'a [u8]) -> Self {
        FastqScanner {
            buf,
            pos: 0,
            nrec: 0,
            consumed: 0,
            complete: false,
        }
    }

    /// Whole-buffer scanner: a partial trailing record is an error.
    pub fn new_complete(buf: &'a [u8]) -> Self {
        FastqScanner {
            complete: true,
            ..Self::new(buf)
        }
    }

    /// Byte offset one past the last complete record scanned so far.
    pub fn consumed(&self) -> usize {
        self.consumed
    }

    /// Records scanned so far.
    pub fn records(&self) -> usize {
        self.nrec
    }

    /// The next line (without `\n`), advancing past it; `None` at end of
    /// buffer, or — in streaming mode — when the final line is
    /// unterminated.
    #[inline]
    fn line(&mut self) -> Option<&'a [u8]> {
        if self.pos >= self.buf.len() {
            return None;
        }
        match memchr_nl(&self.buf[self.pos..]) {
            Some(nl) => {
                let line = &self.buf[self.pos..self.pos + nl];
                self.pos += nl + 1;
                Some(line)
            }
            None if self.complete => {
                let line = &self.buf[self.pos..];
                self.pos = self.buf.len();
                Some(line)
            }
            None => None,
        }
    }

    /// Scan the next record. `Ok(None)` at clean end of input.
    pub fn next_record(&mut self) -> Result<Option<RawRecord<'a>>, String> {
        let start = self.pos;
        let mut lines = [&[][..]; 4];
        for (i, slot) in lines.iter_mut().enumerate() {
            match self.line() {
                Some(l) => *slot = l,
                None if i == 0 || !self.complete => {
                    // Streaming: rewind so the caller can resume here.
                    self.pos = start;
                    return Ok(None);
                }
                None => {
                    return Err(format!(
                        "record {}: truncated final record ({} of 4 lines)",
                        self.nrec + 1,
                        i
                    ));
                }
            }
        }
        let [header, seq, plus, qual] = lines;
        if header.is_empty() || header[0] != b'@' {
            return Err(format!(
                "record {}: header does not start with '@'",
                self.nrec + 1
            ));
        }
        if plus.is_empty() || plus[0] != b'+' {
            return Err(format!(
                "record {}: separator does not start with '+'",
                self.nrec + 1
            ));
        }
        if let Some(&b @ (b'@' | b'+')) = seq.first() {
            return Err(format!(
                "record {}: sequence line starts with '{}'",
                self.nrec + 1,
                b as char
            ));
        }
        let seq = trim_cr(seq);
        let qual = trim_cr(qual);
        if seq.len() != qual.len() {
            return Err(format!(
                "record {}: sequence/quality length mismatch",
                self.nrec + 1
            ));
        }
        self.nrec += 1;
        self.consumed = self.pos;
        Ok(Some(RawRecord {
            id: trim_cr(&header[1..]),
            seq,
            qual,
        }))
    }
}

impl<'a> RawRecord<'a> {
    /// Materialize an owned record (the only allocations in a parse).
    fn to_owned_record(self) -> SeqRecord {
        SeqRecord {
            id: String::from_utf8_lossy(self.id).into_owned(),
            seq: self.seq.to_vec(),
            qual: Some(self.qual.to_vec()),
        }
    }
}

/// Parse every complete FASTQ record in `buf`.
///
/// Returns the records and the byte offset one past the last complete
/// record (callers feeding partial buffers can resume there). Malformed
/// input yields an error naming the offending record index.
pub fn parse_fastq(buf: &[u8]) -> Result<(Vec<SeqRecord>, usize), String> {
    let mut scanner = FastqScanner::new(buf);
    let mut records = Vec::new();
    while let Some(raw) = scanner.next_record()? {
        records.push(raw.to_owned_record());
    }
    Ok((records, scanner.consumed()))
}

/// Parse a buffer that must hold only whole records (a complete file, or a
/// rank's boundary-aligned block).
///
/// Unlike [`parse_fastq`], end-of-buffer terminates the final line (no
/// trailing newline needed) and a trailing partial record is an error
/// naming the record index, not silently-unconsumed input.
pub fn parse_fastq_complete(buf: &[u8]) -> Result<Vec<SeqRecord>, String> {
    let mut scanner = FastqScanner::new_complete(buf);
    let mut records = Vec::new();
    while let Some(raw) = scanner.next_record()? {
        records.push(raw.to_owned_record());
    }
    Ok(records)
}

/// The original byte-at-a-time parser: the executable specification
/// [`parse_fastq`] is pinned against (and the "before" half of the FASTQ
/// kernel benchmark). Not for production use.
#[doc(hidden)]
pub fn parse_fastq_reference(buf: &[u8]) -> Result<(Vec<SeqRecord>, usize), String> {
    fn next_line(buf: &[u8], from: usize) -> Option<std::ops::Range<usize>> {
        if from >= buf.len() {
            return None;
        }
        buf[from..]
            .iter()
            .position(|&b| b == b'\n')
            .map(|nl| from..from + nl)
    }

    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut consumed = 0usize;

    while pos < buf.len() {
        // A complete record needs four newline-terminated lines; each line
        // range excludes its terminating newline, so the next line starts
        // one past the end.
        let Some(l1) = next_line(buf, pos) else { break };
        let Some(l2) = next_line(buf, l1.end + 1) else {
            break;
        };
        let Some(l3) = next_line(buf, l2.end + 1) else {
            break;
        };
        let Some(l4) = next_line(buf, l3.end + 1) else {
            break;
        };

        let header = &buf[l1.clone()];
        if header.is_empty() || header[0] != b'@' {
            return Err(format!(
                "record {}: header does not start with '@'",
                records.len() + 1
            ));
        }
        let plus = &buf[l3.clone()];
        if plus.is_empty() || plus[0] != b'+' {
            return Err(format!(
                "record {}: separator does not start with '+'",
                records.len() + 1
            ));
        }
        if let Some(&b @ (b'@' | b'+')) = buf[l2.clone()].first() {
            return Err(format!(
                "record {}: sequence line starts with '{}'",
                records.len() + 1,
                b as char
            ));
        }
        let seq = trim_cr(&buf[l2.clone()]);
        let qual = trim_cr(&buf[l4.clone()]);
        if seq.len() != qual.len() {
            return Err(format!(
                "record {}: sequence/quality length mismatch",
                records.len() + 1
            ));
        }
        let id = String::from_utf8_lossy(trim_cr(&header[1..])).into_owned();
        records.push(SeqRecord {
            id,
            seq: seq.to_vec(),
            qual: Some(qual.to_vec()),
        });
        pos = l4.end + 1;
        consumed = pos;
    }
    Ok((records, consumed))
}

/// Strip a trailing `\r` (Windows line endings).
fn trim_cr(line: &[u8]) -> &[u8] {
    match line.last() {
        Some(b'\r') => &line[..line.len() - 1],
        _ => line,
    }
}

/// Write records in 4-line FASTQ. Records without qualities get `I`
/// (Phred 40) filler, so round-tripping stays well-formed.
pub fn write_fastq<W: Write>(w: &mut W, records: &[SeqRecord]) -> io::Result<()> {
    // Filler grows to the longest quality-less record and is reused.
    let mut filler: Vec<u8> = Vec::new();
    for r in records {
        w.write_all(b"@")?;
        w.write_all(r.id.as_bytes())?;
        w.write_all(b"\n")?;
        w.write_all(&r.seq)?;
        w.write_all(b"\n+\n")?;
        match &r.qual {
            Some(q) => w.write_all(q)?,
            None => {
                if filler.len() < r.seq.len() {
                    filler.resize(r.seq.len(), b'I');
                }
                w.write_all(&filler[..r.seq.len()])?
            }
        }
        w.write_all(b"\n")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<SeqRecord> {
        vec![
            SeqRecord::with_uniform_quality("read1/1", *b"ACGTACGT", 35),
            SeqRecord::with_uniform_quality("read1/2", *b"TTGGCCAA", 20),
        ]
    }

    #[test]
    fn roundtrip() {
        let mut buf = Vec::new();
        write_fastq(&mut buf, &sample()).unwrap();
        let (records, consumed) = parse_fastq(&buf).unwrap();
        assert_eq!(records, sample());
        assert_eq!(consumed, buf.len());
    }

    #[test]
    fn quality_less_records_get_filler() {
        let recs = vec![
            SeqRecord::new("a", *b"ACGTACGT"),
            SeqRecord::new("b", *b"AC"),
        ];
        let mut buf = Vec::new();
        write_fastq(&mut buf, &recs).unwrap();
        let (parsed, _) = parse_fastq(&buf).unwrap();
        assert_eq!(parsed[0].qual.as_deref(), Some(&b"IIIIIIII"[..]));
        assert_eq!(parsed[1].qual.as_deref(), Some(&b"II"[..]));
    }

    #[test]
    fn partial_record_left_unconsumed() {
        let mut buf = Vec::new();
        write_fastq(&mut buf, &sample()).unwrap();
        let cut = buf.len() - 5; // truncate inside the last record
        let (records, consumed) = parse_fastq(&buf[..cut]).unwrap();
        assert_eq!(records.len(), 1);
        assert!(consumed < cut);
        // Resuming from `consumed` with the full tail completes the parse.
        let (rest, _) = parse_fastq(&buf[consumed..]).unwrap();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0], sample()[1]);
    }

    #[test]
    fn complete_parse_flags_truncation_with_record_number() {
        // Second record cut off after its sequence line.
        let txt = b"@r1\nACGT\n+\nIIII\n@r2\nTTTT\n";
        let err = parse_fastq_complete(txt).unwrap_err();
        assert!(err.contains("record 2"), "got: {err}");
        assert!(err.contains("truncated"), "got: {err}");
        // A mid-line cut surfaces as a (still record-numbered) mismatch.
        let mut buf = Vec::new();
        write_fastq(&mut buf, &sample()).unwrap();
        let err = parse_fastq_complete(&buf[..buf.len() - 5]).unwrap_err();
        assert!(err.contains("record 2"), "got: {err}");
    }

    #[test]
    fn complete_parse_accepts_missing_final_newline() {
        let txt = b"@r1\nACGT\n+\nIIII";
        let records = parse_fastq_complete(txt).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].seq, b"ACGT");
        // The streaming parser, by contrast, leaves it unconsumed.
        let (streamed, consumed) = parse_fastq(txt).unwrap();
        assert!(streamed.is_empty());
        assert_eq!(consumed, 0);
    }

    #[test]
    fn rejects_missing_at() {
        let bad = b"read1\nACGT\n+\nIIII\n";
        assert!(parse_fastq(bad).is_err());
        assert!(parse_fastq_complete(bad).is_err());
    }

    #[test]
    fn rejects_bad_separator() {
        let bad = b"@read1\nACGT\nX\nIIII\n";
        assert!(parse_fastq(bad).is_err());
    }

    #[test]
    fn rejects_length_mismatch() {
        let bad = b"@read1\nACGT\n+\nIII\n";
        let err = parse_fastq(bad).unwrap_err();
        assert!(err.contains("record 1"), "got: {err}");
    }

    #[test]
    fn errors_name_the_failing_record_index() {
        let bad = b"@r1\nACGT\n+\nIIII\n@r2\nACGT\n+\nIII\n";
        let err = parse_fastq(bad).unwrap_err();
        assert!(err.contains("record 2"), "got: {err}");
    }

    #[test]
    fn quality_line_may_start_with_at() {
        // '@' is Phred 31 — legal in quality strings; the 4-line structure
        // disambiguates.
        let txt = b"@r1\nACGT\n+\n@@@@\n@r2\nTTTT\n+\nIIII\n";
        let (records, _) = parse_fastq(txt).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].phred(0), Some(31));
    }

    #[test]
    fn handles_crlf() {
        let txt = b"@r1\r\nACGT\r\n+\r\nIIII\r\n";
        let (records, _) = parse_fastq(txt).unwrap();
        assert_eq!(records[0].seq, b"ACGT");
        assert_eq!(records[0].id, "r1");
    }

    #[test]
    fn crlf_only_lines_are_rejected_not_panicked() {
        // A record of bare CRLF lines: the header line is "\r" after
        // newline split, which is not a valid '@' header.
        let txt = b"\r\n\r\n\r\n\r\n";
        let err = parse_fastq(txt).unwrap_err();
        assert!(err.contains("record 1"), "got: {err}");
        assert!(parse_fastq_complete(txt).is_err());
    }

    #[test]
    fn empty_input_ok() {
        let (records, consumed) = parse_fastq(b"").unwrap();
        assert!(records.is_empty());
        assert_eq!(consumed, 0);
        assert!(parse_fastq_complete(b"").unwrap().is_empty());
    }

    #[test]
    fn optimized_parser_equals_reference() {
        let mut full = Vec::new();
        write_fastq(&mut full, &sample()).unwrap();
        let mut cases: Vec<Vec<u8>> = vec![
            full.clone(),
            b"".to_vec(),
            b"@r1\r\nACGT\r\n+\r\nIIII\r\n".to_vec(),
            b"@r1\nACGT\n+\n@@@@\n".to_vec(),
            b"read1\nACGT\n+\nIIII\n".to_vec(),
            b"@read1\nACGT\nX\nIIII\n".to_vec(),
            b"@read1\nACGT\n+\nIII\n".to_vec(),
            b"\r\n\r\n\r\n\r\n".to_vec(),
        ];
        // Every truncation point of a well-formed two-record file.
        for cut in 0..full.len() {
            cases.push(full[..cut].to_vec());
        }
        for buf in &cases {
            assert_eq!(
                parse_fastq(buf),
                parse_fastq_reference(buf),
                "buf={:?}",
                String::from_utf8_lossy(buf)
            );
        }
    }
}
