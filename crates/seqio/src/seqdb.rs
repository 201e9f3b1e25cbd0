//! A SeqDB-like compressed binary read format (§3.3 context).
//!
//! HipMer's earlier pipeline read SeqDB (an HDF5-based compressed store,
//! Howison \[16\]); the parallel FASTQ reader exists so users don't have to
//! convert, and the paper reports it reaches "close to the I/O bandwidth
//! achieved by reading SeqDB (up to compression factor differences)". To
//! make that comparison runnable, this module provides a simple
//! self-contained equivalent: 2-bit packed bases (with an N-position
//! escape list), run-length encoded qualities, and a block index that
//! lets every rank seek straight to its share — the property that made
//! SeqDB trivially parallel to read.
//!
//! Layout:
//! ```text
//! [8B magic "HIPSEQDB"] [u64 record-count] [u64 index-offset]
//! record*  : varint id_len, id bytes, varint seq_len,
//!            varint n_count, varint n_positions (delta)...,
//!            packed 2-bit bases (ceil(seq_len/4) bytes; N slots are 0),
//!            quality RLE: varint run-count, (varint len, u8 qual)*
//! index    : u64 block-count, (u64 first-record, u64 byte-offset)*
//! ```

use crate::record::SeqRecord;
use hipmer_dna::encode_base;
use hipmer_pgas::{CommStats, Team};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"HIPSEQDB";
/// Records per index block.
const BLOCK: u64 = 1024;

fn write_varint<W: Write>(w: &mut W, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            w.write_all(&[byte])?;
            return Ok(());
        }
        w.write_all(&[byte | 0x80])?;
    }
}

fn read_varint(buf: &[u8], pos: &mut usize) -> io::Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf
            .get(*pos)
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "varint"))?;
        *pos += 1;
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "varint overflow",
            ));
        }
    }
}

/// Serialize one record.
fn encode_record(out: &mut Vec<u8>, r: &SeqRecord) -> io::Result<()> {
    write_varint(out, r.id.len() as u64)?;
    out.extend_from_slice(r.id.as_bytes());
    write_varint(out, r.seq.len() as u64)?;
    // N positions, delta encoded.
    let n_positions: Vec<usize> = r
        .seq
        .iter()
        .enumerate()
        .filter(|(_, &b)| encode_base(b).is_none())
        .map(|(i, _)| i)
        .collect();
    write_varint(out, n_positions.len() as u64)?;
    let mut prev = 0usize;
    for &p in &n_positions {
        write_varint(out, (p - prev) as u64)?;
        prev = p;
    }
    // 2-bit packed bases.
    let mut byte = 0u8;
    for (i, &b) in r.seq.iter().enumerate() {
        let code = encode_base(b).unwrap_or(0);
        byte |= code << ((i % 4) * 2);
        if i % 4 == 3 {
            out.push(byte);
            byte = 0;
        }
    }
    if !r.seq.len().is_multiple_of(4) {
        out.push(byte);
    }
    // Quality RLE.
    let qual_default = vec![b'I'; r.seq.len()];
    let qual = r.qual.as_deref().unwrap_or(&qual_default);
    let mut runs: Vec<(u64, u8)> = Vec::new();
    for &q in qual {
        match runs.last_mut() {
            Some((len, v)) if *v == q => *len += 1,
            _ => runs.push((1, q)),
        }
    }
    write_varint(out, runs.len() as u64)?;
    for (len, q) in runs {
        write_varint(out, len)?;
        out.push(q);
    }
    Ok(())
}

fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// The next `len` bytes of `buf` from `pos`; advances `pos`.
fn take<'a>(buf: &'a [u8], pos: &mut usize, len: u64, what: &str) -> io::Result<&'a [u8]> {
    let end = usize::try_from(len)
        .ok()
        .and_then(|len| pos.checked_add(len))
        .filter(|&end| end <= buf.len())
        .ok_or_else(|| invalid(what))?;
    let bytes = &buf[*pos..end];
    *pos = end;
    Ok(bytes)
}

/// A count read from the file, refused when the bytes left after `pos`
/// cannot hold `count` items of at least `min_bytes` each.
fn read_count(buf: &[u8], pos: &mut usize, min_bytes: usize, what: &str) -> io::Result<usize> {
    let count = read_varint(buf, pos)?;
    if count > ((buf.len() - *pos) / min_bytes) as u64 {
        return Err(invalid(what));
    }
    Ok(count as usize)
}

/// Parse one record starting at `pos`; advances `pos`. Every length,
/// count and position read from `buf` is checked against what `buf` holds,
/// so a corrupt record is an `InvalidData` error, never a panic.
fn decode_record(buf: &[u8], pos: &mut usize) -> io::Result<SeqRecord> {
    let id_len = read_varint(buf, pos)?;
    let id = String::from_utf8_lossy(take(buf, pos, id_len, "id")?).into_owned();
    let seq_len = read_varint(buf, pos)?;
    let n_count = read_count(buf, pos, 1, "N count")?;
    let mut n_positions = Vec::with_capacity(n_count);
    let mut acc = 0u64;
    for _ in 0..n_count {
        let d = read_varint(buf, pos)?;
        acc = (acc.checked_add(d))
            .filter(|&p| p < seq_len)
            .ok_or_else(|| invalid("N position"))?;
        n_positions.push(acc as usize);
    }
    // `take` bounds seq_len by the bytes present before anything is sized
    // by it.
    let packed = take(buf, pos, seq_len.div_ceil(4), "bases")?;
    let seq_len = seq_len as usize;
    let mut seq = Vec::with_capacity(seq_len);
    for i in 0..seq_len {
        let code = (packed[i / 4] >> ((i % 4) * 2)) & 0b11;
        seq.push(hipmer_dna::decode_base(code));
    }
    for &p in &n_positions {
        seq[p] = b'N';
    }
    let run_count = read_count(buf, pos, 2, "quality run count")?;
    let mut qual = Vec::with_capacity(seq_len);
    for _ in 0..run_count {
        let len = read_varint(buf, pos)?;
        let q = take(buf, pos, 1, "qual")?[0];
        if len > (seq_len - qual.len()) as u64 {
            return Err(invalid("qual length"));
        }
        qual.extend(std::iter::repeat_n(q, len as usize));
    }
    if qual.len() != seq_len {
        return Err(invalid("qual length"));
    }
    Ok(SeqRecord {
        id,
        seq,
        qual: Some(qual),
    })
}

/// Write a SeqDB file.
pub fn write_seqdb(path: &Path, records: &[SeqRecord]) -> io::Result<()> {
    let mut body: Vec<u8> = Vec::new();
    let mut index: Vec<(u64, u64)> = Vec::new();
    for (i, r) in records.iter().enumerate() {
        if (i as u64).is_multiple_of(BLOCK) {
            index.push((i as u64, body.len() as u64));
        }
        encode_record(&mut body, r)?;
    }
    let mut out: Vec<u8> = Vec::with_capacity(body.len() + 24 + index.len() * 16);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(records.len() as u64).to_le_bytes());
    let index_offset = 24 + body.len() as u64;
    out.extend_from_slice(&index_offset.to_le_bytes());
    out.extend_from_slice(&body);
    out.extend_from_slice(&(index.len() as u64).to_le_bytes());
    for (first, off) in index {
        out.extend_from_slice(&first.to_le_bytes());
        out.extend_from_slice(&off.to_le_bytes());
    }
    std::fs::write(path, out)
}

/// Read a SeqDB file in parallel: every rank seeks to its block range via
/// the index (no boundary fix-up needed — that is SeqDB's advantage) and
/// decodes its records. Returns per-rank record vectors and I/O counters.
pub fn read_seqdb_parallel(
    team: &Team,
    path: &Path,
) -> io::Result<(Vec<Vec<SeqRecord>>, Vec<CommStats>)> {
    // Read the header + index once (tiny; the paper's reader samples
    // similarly).
    let mut f = std::fs::File::open(path)?;
    let file_len = f.metadata()?.len();
    let mut header = [0u8; 24];
    f.read_exact(&mut header)?;
    if &header[..8] != MAGIC {
        return Err(invalid("bad magic"));
    }
    let n_records = u64::from_le_bytes(header[8..16].try_into().unwrap());
    let index_offset = u64::from_le_bytes(header[16..24].try_into().unwrap());
    let body_len = index_offset
        .checked_sub(24)
        .filter(|_| index_offset <= file_len)
        .ok_or_else(|| invalid("index offset"))?;
    f.seek(SeekFrom::Start(index_offset))?;
    let mut count_buf = [0u8; 8];
    f.read_exact(&mut count_buf)?;
    let n_blocks = u64::from_le_bytes(count_buf);
    if n_blocks > file_len.saturating_sub(index_offset + 8) / 16 {
        return Err(invalid("index block count"));
    }
    let mut index = Vec::with_capacity(n_blocks as usize);
    let mut entry = [0u8; 16];
    for _ in 0..n_blocks {
        f.read_exact(&mut entry)?;
        index.push((
            u64::from_le_bytes(entry[..8].try_into().unwrap()),
            u64::from_le_bytes(entry[8..].try_into().unwrap()),
        ));
    }
    drop(f);
    // Blocks must be in order, within the record count and within the body
    // (the end of the last block is the start of the index).
    index.push((n_records, body_len));
    if index.windows(2).any(|w| w[1].0 < w[0].0 || w[1].1 < w[0].1) {
        return Err(invalid("index order"));
    }

    let (results, stats) = team.run_named("io/seqdb", |ctx| -> io::Result<Vec<SeqRecord>> {
        // Block range for this rank; the last entry of `index` is the end
        // sentinel, not a block.
        let blocks = ctx.chunk(index.len() - 1);
        if blocks.is_empty() {
            return Ok(Vec::new());
        }
        let (first_record, byte_start) = index[blocks.start];
        let (end_record, byte_end) = index[blocks.end];
        let mut f = std::fs::File::open(path)?;
        f.seek(SeekFrom::Start(24 + byte_start))?;
        let mut buf = vec![0u8; (byte_end - byte_start) as usize];
        f.read_exact(&mut buf)?;
        ctx.stats.io_read_bytes += buf.len() as u64 + 24;
        // Every record takes at least four bytes (four varints).
        if end_record - first_record > buf.len() as u64 / 4 {
            return Err(invalid("block record count"));
        }
        let mut pos = 0usize;
        let mut out = Vec::with_capacity((end_record - first_record) as usize);
        for _ in first_record..end_record {
            out.push(decode_record(&buf, &mut pos)?);
        }
        Ok(out)
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
    use hipmer_pgas::Topology;

    fn records(n: usize) -> Vec<SeqRecord> {
        (0..n)
            .map(|i| {
                let len = 60 + (i * 17) % 70;
                let mut seq: Vec<u8> = (0..len).map(|j| b"ACGT"[(i + j) % 4]).collect();
                if i % 5 == 0 && len > 10 {
                    seq[3] = b'N';
                    seq[len - 2] = b'N';
                }
                let mut r = SeqRecord::with_uniform_quality(format!("rec{i} lib=x"), seq, 35);
                if i % 3 == 0 {
                    r.qual.as_mut().unwrap()[0] = 33 + 2; // non-uniform run
                }
                r
            })
            .collect()
    }

    fn tempfile(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("hipmer-seqdb-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}.seqdb"))
    }

    #[test]
    fn roundtrip_with_ns_and_quality_runs() {
        let recs = records(300);
        let path = tempfile("roundtrip");
        write_seqdb(&path, &recs).unwrap();
        for ranks in [1usize, 3, 8] {
            let team = Team::new(Topology::new(ranks, 4));
            let (per_rank, _) = read_seqdb_parallel(&team, &path).unwrap();
            let got: Vec<SeqRecord> = per_rank.into_iter().flatten().collect();
            assert_eq!(got, recs, "ranks={ranks}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compression_beats_fastq() {
        let recs = records(2000);
        let path = tempfile("size");
        write_seqdb(&path, &recs).unwrap();
        let seqdb_bytes = std::fs::metadata(&path).unwrap().len();
        let mut fastq = Vec::new();
        crate::fastq::write_fastq(&mut fastq, &recs).unwrap();
        assert!(
            (seqdb_bytes as f64) < 0.5 * fastq.len() as f64,
            "seqdb {} vs fastq {}",
            seqdb_bytes,
            fastq.len()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_roundtrips() {
        let path = tempfile("empty");
        write_seqdb(&path, &[]).unwrap();
        let team = Team::new(Topology::new(4, 2));
        let (per_rank, _) = read_seqdb_parallel(&team, &path).unwrap();
        assert!(per_rank.into_iter().flatten().next().is_none());
        std::fs::remove_file(&path).ok();
    }

    /// A record body from raw varint fields: id, seq_len, N deltas, packed
    /// bytes, quality runs.
    fn raw_record(
        id: &[u8],
        seq_len: u64,
        ns: &[u64],
        packed: &[u8],
        runs: &[(u64, u8)],
    ) -> Vec<u8> {
        let mut out = Vec::new();
        write_varint(&mut out, id.len() as u64).unwrap();
        out.extend_from_slice(id);
        write_varint(&mut out, seq_len).unwrap();
        write_varint(&mut out, ns.len() as u64).unwrap();
        for &d in ns {
            write_varint(&mut out, d).unwrap();
        }
        out.extend_from_slice(packed);
        write_varint(&mut out, runs.len() as u64).unwrap();
        for &(len, q) in runs {
            write_varint(&mut out, len).unwrap();
            out.push(q);
        }
        out
    }

    #[test]
    fn corrupt_records_are_invalid_data() {
        let decode = |buf: &[u8]| decode_record(buf, &mut 0).map_err(|e| e.kind());
        let ok = raw_record(b"r", 5, &[1, 2], &[0, 0], &[(2, b'#'), (3, b'I')]);
        let rec = decode(&ok).unwrap();
        assert_eq!(
            (rec.seq.as_slice(), rec.qual.unwrap()),
            (&b"ANANA"[..], b"##III".to_vec())
        );
        let invalid = Err(io::ErrorKind::InvalidData);
        // An N position past the sequence, and one whose delta overflows.
        assert_eq!(
            decode(&raw_record(b"r", 5, &[5], &[0, 0], &[(5, b'I')])),
            invalid
        );
        assert_eq!(
            decode(&raw_record(b"r", 5, &[1, u64::MAX], &[0, 0], &[(5, b'I')])),
            invalid
        );
        // Lengths that overflow the cursor or outrun the buffer.
        let mut huge_id = Vec::new();
        write_varint(&mut huge_id, u64::MAX).unwrap();
        assert_eq!(decode(&huge_id), invalid);
        assert_eq!(decode(&raw_record(b"r", u64::MAX, &[], &[], &[])), invalid);
        // Quality runs longer than the sequence are refused before they are
        // expanded, and a run count the bytes cannot hold before any run.
        assert_eq!(
            decode(&raw_record(b"r", 5, &[], &[0, 0], &[(u64::MAX, b'I')])),
            invalid
        );
        let mut many_runs = raw_record(b"r", 5, &[], &[0, 0], &[]);
        many_runs.pop();
        write_varint(&mut many_runs, u64::MAX >> 1).unwrap();
        assert_eq!(decode(&many_runs), invalid);
        // An N count the bytes cannot hold.
        let mut many_ns = raw_record(b"r", 5, &[], &[], &[]);
        many_ns.truncate(3);
        write_varint(&mut many_ns, u64::MAX >> 1).unwrap();
        assert_eq!(decode(&many_ns), invalid);
    }

    #[test]
    fn corrupt_headers_and_indexes_are_invalid_data() {
        let path = tempfile("corrupt-index");
        write_seqdb(&path, &records(2 * BLOCK as usize + 10)).unwrap();
        let valid = std::fs::read(&path).unwrap();
        let index_offset = u64::from_le_bytes(valid[16..24].try_into().unwrap()) as usize;
        let team = Team::new(Topology::new(4, 2));
        let with = |at: usize, word: u64| {
            let mut bytes = valid.clone();
            bytes[at..at + 8].copy_from_slice(&word.to_le_bytes());
            std::fs::write(&path, bytes).unwrap();
            read_seqdb_parallel(&team, &path)
                .map(|_| ())
                .map_err(|e| e.kind())
        };
        let invalid = Err(io::ErrorKind::InvalidData);
        // Header: an index offset inside the header or past the file.
        assert_eq!(with(16, 8), invalid);
        assert_eq!(with(16, u64::MAX), invalid);
        // Index: a block count the file cannot hold.
        assert_eq!(with(index_offset, u64::MAX / 2), invalid);
        // Index: blocks out of order by record or by byte offset, or a
        // record count below the last block's first record.
        let second = index_offset + 8 + 16;
        assert_eq!(with(second, u64::MAX), invalid);
        assert_eq!(with(second + 8, u64::MAX), invalid);
        assert_eq!(with(second + 8, 0), invalid);
        assert_eq!(with(8, 1), invalid);
        // A record count the block's bytes cannot hold.
        assert_eq!(with(8, u64::MAX), invalid);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_rejected() {
        let path = tempfile("bad");
        std::fs::write(&path, b"NOTSEQDBxxxxxxxxxxxxxxxx").unwrap();
        let team = Team::new(Topology::new(1, 1));
        assert!(read_seqdb_parallel(&team, &path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
