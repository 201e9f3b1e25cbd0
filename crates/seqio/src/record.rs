//! The sequence record shared by all I/O formats.

/// One read (or contig/scaffold) with optional per-base quality.
///
/// Qualities are Phred+33 ASCII, as in FASTQ. Paired-end reads are stored
/// consecutively — record `2i` is the first mate of pair `i`, record
/// `2i + 1` the second — matching how the simulators emit them and how the
/// scaffolding modules (§4.4–4.5) consume them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeqRecord {
    /// Record identifier (without the leading `@`/`>`).
    pub id: String,
    /// Upper-case ASCII `ACGTN` bases.
    pub seq: Vec<u8>,
    /// Phred+33 quality string, one byte per base; `None` for FASTA.
    pub qual: Option<Vec<u8>>,
}

impl SeqRecord {
    /// A quality-less record (FASTA-style).
    pub fn new(id: impl Into<String>, seq: impl Into<Vec<u8>>) -> Self {
        SeqRecord {
            id: id.into(),
            seq: seq.into(),
            qual: None,
        }
    }

    /// A record with uniform quality `q` (Phred score, not ASCII).
    pub fn with_uniform_quality(id: impl Into<String>, seq: impl Into<Vec<u8>>, q: u8) -> Self {
        let seq = seq.into();
        let qual = vec![q + 33; seq.len()];
        SeqRecord {
            id: id.into(),
            seq,
            qual: Some(qual),
        }
    }

    /// Sequence length in bases.
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }

    /// Phred score of base `i` (`None` if no qualities or `i` is out of
    /// range).
    pub fn phred(&self, i: usize) -> Option<u8> {
        self.qual
            .as_ref()
            .and_then(|q| q.get(i))
            .map(|b| b.saturating_sub(33))
    }

    /// Check the record's internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(q) = &self.qual {
            if q.len() != self.seq.len() {
                return Err(format!(
                    "record {}: quality length {} != sequence length {}",
                    self.id,
                    q.len(),
                    self.seq.len()
                ));
            }
        }
        if let Err(pos) = hipmer_dna::validate_dna(&self.seq) {
            return Err(format!(
                "record {}: invalid base {:?} at {}",
                self.id, self.seq[pos] as char, pos
            ));
        }
        Ok(())
    }
}

/// A record is a view of itself, so code that reads records can take
/// `&[R]` with `R: AsRef<SeqRecord>` and be handed owned records or
/// references to them alike.
impl AsRef<SeqRecord> for SeqRecord {
    fn as_ref(&self) -> &SeqRecord {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_quality_encodes_phred33() {
        let r = SeqRecord::with_uniform_quality("r1", *b"ACGT", 30);
        assert_eq!(r.qual.as_ref().unwrap(), &vec![63u8; 4]);
        assert_eq!(r.phred(0), Some(30));
    }

    #[test]
    fn validate_catches_length_mismatch() {
        let mut r = SeqRecord::with_uniform_quality("r", *b"ACGT", 30);
        r.qual.as_mut().unwrap().pop();
        assert!(r.validate().is_err());
    }

    #[test]
    fn validate_catches_bad_base() {
        let r = SeqRecord::new("r", *b"ACZT");
        assert!(r.validate().is_err());
        assert!(SeqRecord::new("r", *b"ACGTN").validate().is_ok());
    }

    #[test]
    fn len_and_empty() {
        assert_eq!(SeqRecord::new("r", *b"ACG").len(), 3);
        assert!(SeqRecord::new("r", *b"").is_empty());
    }
}
