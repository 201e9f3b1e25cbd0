//! Stage-boundary checkpointing of pipeline intermediate products.
//!
//! At 15K+ cores the dominant operational risk is losing hours of work to
//! a mid-stage failure; HipMer's successors (the iterative MetaHipMer loop
//! in particular) lean on persisting per-iteration intermediate state to
//! the shared filesystem. This module gives the reproduction the same
//! substrate: each pipeline stage's output — the k-mer spectrum, the
//! contig set, the round-0 alignments, the scaffold state — serializes to
//! a versioned on-disk artifact with an FNV-1a 64 checksum, indexed by a
//! JSON manifest that also pins the run *fingerprint* (k, topology, input
//! shape, rounds). `--resume` re-opens the store, validates version,
//! fingerprint, and every artifact checksum, and keeps the longest valid
//! prefix of completed stages; the driver then skips those stages and
//! re-executes from the first missing one.
//!
//! The format is deliberately hand-rolled little-endian binary (no serde
//! in the dependency tree): every integer is fixed-width LE, sequences
//! are length-prefixed, and collections are sorted canonically before
//! writing so a given artifact is byte-identical across runs, topologies,
//! and OS-thread schedules — the property the recovery acceptance test
//! (`assembly byte-identical after an injected rank failure`) rests on.

use hipmer_align::Alignment;
use hipmer_contig::{Contig, ContigSet};
use hipmer_dna::{ExtChoice, ExtensionPair, Kmer, KmerCodec};
use hipmer_kanalysis::{KmerEntry, KmerSpectrum};
use hipmer_pgas::json::Value;
use hipmer_pgas::{PartitionScheme, Topology};
use hipmer_scaffold::{GapCloseStats, Scaffold, ScaffoldMember, ScaffoldSet};
use hipmer_seqio::SeqRecord;
use std::io;
use std::path::{Path, PathBuf};

/// Magic bytes opening every checkpoint artifact.
pub const MAGIC: &[u8; 4] = b"HMCP";

/// On-disk format version; bumped on any incompatible layout change.
pub const FORMAT_VERSION: u32 = 2;

/// FNV-1a 64-bit checksum (the per-artifact integrity check; fast,
/// dependency-free, and byte-order independent).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------
// Little-endian byte writer / reader.

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u128(out: &mut Vec<u8>, v: u128) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}
fn put_bytes(out: &mut Vec<u8>, v: &[u8]) {
    put_u64(out, v.len() as u64);
    out.extend_from_slice(v);
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// The one error kind a decoder or the store returns for bytes it will not
/// take.
fn invalid(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

fn truncated() -> io::Error {
    invalid("checkpoint artifact truncated")
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or_else(truncated)?;
        if end > self.buf.len() {
            return Err(truncated());
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// The next `N` bytes as an array.
    fn take_array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> io::Result<u32> {
        self.take_array().map(u32::from_le_bytes)
    }
    fn u64(&mut self) -> io::Result<u64> {
        self.take_array().map(u64::from_le_bytes)
    }
    fn u128(&mut self) -> io::Result<u128> {
        self.take_array().map(u128::from_le_bytes)
    }
    fn i64(&mut self) -> io::Result<i64> {
        self.take_array().map(i64::from_le_bytes)
    }
    fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }
    /// A length prefix: how many elements follow. Rejected unless that many
    /// elements of at least `min_size` bytes each can still be in the buffer,
    /// so a crafted count can never size an allocation.
    fn count(&mut self, min_size: usize) -> io::Result<usize> {
        let n = usize::try_from(self.u64()?).map_err(|_| truncated())?;
        match n.checked_mul(min_size) {
            Some(need) if need <= self.buf.len() - self.pos => Ok(n),
            _ => Err(truncated()),
        }
    }
    /// The artifact's k-mer length, validated before any codec is built
    /// from it (`KmerCodec::new` panics outside `1..=MAX_K`).
    fn k(&mut self) -> io::Result<KmerCodec> {
        KmerCodec::try_new(self.u32()? as usize).map_err(|e| invalid(e.to_string()))
    }
    fn bytes(&mut self) -> io::Result<Vec<u8>> {
        let n = self.count(1)?;
        Ok(self.take(n)?.to_vec())
    }

    fn finish(self) -> io::Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(invalid("trailing bytes after checkpoint artifact"))
        }
    }
}

fn header(out: &mut Vec<u8>, tag: u8) {
    out.extend_from_slice(MAGIC);
    put_u32(out, FORMAT_VERSION);
    put_u8(out, tag);
}

fn check_header(r: &mut Reader<'_>, tag: u8) -> io::Result<()> {
    if r.take(4)? != MAGIC {
        return Err(invalid("bad checkpoint magic"));
    }
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(invalid(format!(
            "checkpoint format v{version}, expected v{FORMAT_VERSION}"
        )));
    }
    let got = r.u8()?;
    if got != tag {
        return Err(invalid(format!("artifact tag {got}, expected {tag}")));
    }
    Ok(())
}

/// Artifact tag for a k-mer spectrum.
const TAG_SPECTRUM: u8 = 1;
/// Artifact tag for a contig set.
const TAG_CONTIGS: u8 = 2;
/// Artifact tag for an alignment set.
const TAG_ALIGNMENTS: u8 = 3;
/// Artifact tag for scaffold state.
const TAG_SCAFFOLD: u8 = 4;

fn ext_code(e: ExtChoice) -> u8 {
    match e {
        ExtChoice::Unique(c) => c, // 0..=3
        ExtChoice::Fork => 4,
        ExtChoice::None => 5,
    }
}

fn ext_decode(v: u8) -> io::Result<ExtChoice> {
    match v {
        0..=3 => Ok(ExtChoice::Unique(v)),
        4 => Ok(ExtChoice::Fork),
        5 => Ok(ExtChoice::None),
        _ => Err(invalid(format!("bad extension code {v}"))),
    }
}

// ---------------------------------------------------------------------
// Artifact codecs.

/// Serialize a k-mer spectrum (entries in canonical ascending-bits order,
/// so the artifact is byte-identical across runs and topologies).
pub fn encode_spectrum(spectrum: &KmerSpectrum) -> Vec<u8> {
    let entries = spectrum.export_entries();
    let mut out = Vec::with_capacity(entries.len() * 22 + 32);
    header(&mut out, TAG_SPECTRUM);
    put_u32(&mut out, spectrum.codec.k() as u32);
    put_u64(&mut out, entries.len() as u64);
    for (km, e) in entries {
        put_u128(&mut out, km.0);
        put_u32(&mut out, e.count);
        put_u8(&mut out, ext_code(e.exts.left));
        put_u8(&mut out, ext_code(e.exts.right));
    }
    out
}

/// Rebuild a k-mer spectrum over `topo` from [`encode_spectrum`] bytes,
/// homing entries by `key_hash % ranks` (the artifact itself is
/// placement-independent, so it restores onto any topology).
///
/// The third parameter is ignored: [`PartitionScheme`] has one variant. It
/// stays only because the wall-clock benchmark crate calls this function
/// with it, and goes with that crate's next change.
pub fn decode_spectrum(
    bytes: &[u8],
    topo: Topology,
    _: PartitionScheme,
) -> io::Result<KmerSpectrum> {
    let mut r = Reader::new(bytes);
    check_header(&mut r, TAG_SPECTRUM)?;
    let k = r.k()?.k();
    let n = r.count(16 + 4 + 1 + 1)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let km = Kmer(r.u128()?);
        let count = r.u32()?;
        let left = ext_decode(r.u8()?)?;
        let right = ext_decode(r.u8()?)?;
        entries.push((
            km,
            KmerEntry {
                count,
                exts: ExtensionPair { left, right },
            },
        ));
    }
    r.finish()?;
    Ok(KmerSpectrum::from_entries(topo, k, entries))
}

/// Serialize a contig set (already canonically ordered: longest-first
/// with ties broken by sequence, ids dense).
pub fn encode_contigs(contigs: &ContigSet) -> Vec<u8> {
    let mut out = Vec::new();
    header(&mut out, TAG_CONTIGS);
    put_u32(&mut out, contigs.codec.k() as u32);
    put_u64(&mut out, contigs.contigs.len() as u64);
    for c in &contigs.contigs {
        put_u64(&mut out, c.id as u64);
        put_f64(&mut out, c.depth);
        put_bytes(&mut out, &c.seq);
    }
    out
}

/// Rebuild a contig set from [`encode_contigs`] bytes. What the stages
/// downstream index and slice by is checked here, not only the framing:
/// ids are dense (`id == index`) and every contig is at least one k-mer of
/// `ACGT` — depth computation packs `seq[..k]` and the seed index looks
/// contigs up by id, inside `Team::run_named`, where a panic is a process abort.
pub fn decode_contigs(bytes: &[u8]) -> io::Result<ContigSet> {
    let mut r = Reader::new(bytes);
    check_header(&mut r, TAG_CONTIGS)?;
    let codec = r.k()?;
    let n = r.count(8 + 8 + 8)?;
    let mut contigs = Vec::with_capacity(n);
    for index in 0..n {
        let id = r.u64()? as usize;
        let depth = r.f64()?;
        let seq = r.bytes()?;
        if id != index {
            return Err(invalid(format!("contig {index} carries id {id}")));
        }
        if seq.len() < codec.k() {
            let (len, k) = (seq.len(), codec.k());
            return Err(invalid(format!("contig {id} has {len} bases, k = {k}")));
        }
        if let Some(b) = seq.iter().find(|b| !b"ACGT".contains(b)) {
            return Err(invalid(format!("contig {id} holds byte {b:#04x}")));
        }
        contigs.push(Contig { id, seq, depth });
    }
    r.finish()?;
    Ok(ContigSet { contigs, codec })
}

/// Serialize an alignment set (already in deterministic read order).
pub fn encode_alignments(alignments: &[Alignment]) -> Vec<u8> {
    let mut out = Vec::with_capacity(alignments.len() * 33 + 32);
    header(&mut out, TAG_ALIGNMENTS);
    put_u64(&mut out, alignments.len() as u64);
    for a in alignments {
        put_u32(&mut out, a.read);
        put_u32(&mut out, a.contig);
        put_u32(&mut out, a.read_start);
        put_u32(&mut out, a.read_end);
        put_u32(&mut out, a.contig_start);
        put_u32(&mut out, a.contig_end);
        put_u32(&mut out, a.matches);
        put_u32(&mut out, a.read_len);
        put_u8(&mut out, u8::from(a.rc));
    }
    out
}

/// Rebuild an alignment set from [`encode_alignments`] bytes.
pub fn decode_alignments(bytes: &[u8]) -> io::Result<Vec<Alignment>> {
    let mut r = Reader::new(bytes);
    check_header(&mut r, TAG_ALIGNMENTS)?;
    let n = r.count(8 * 4 + 1)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let read = r.u32()?;
        let contig = r.u32()?;
        let read_start = r.u32()?;
        let read_end = r.u32()?;
        let contig_start = r.u32()?;
        let contig_end = r.u32()?;
        let matches = r.u32()?;
        let read_len = r.u32()?;
        let rc = match r.u8()? {
            0 => false,
            1 => true,
            v => return Err(invalid(format!("bad rc flag {v}"))),
        };
        out.push(Alignment {
            read,
            contig,
            read_start,
            read_end,
            contig_start,
            contig_end,
            rc,
            matches,
            read_len,
        });
    }
    r.finish()?;
    Ok(out)
}

/// Check decoded alignments against what they index: the scaffolding
/// modules take `contigs.contigs[a.contig]`, contig-end distances and read
/// intervals on trust, so an artifact naming a contig or read that is not
/// there (or an interval past its end) is rejected before they see it.
pub fn validate_alignments(
    alignments: &[Alignment],
    contigs: &ContigSet,
    reads: &[SeqRecord],
) -> io::Result<()> {
    for (i, a) in alignments.iter().enumerate() {
        let contig_len = contigs.contigs.get(a.contig as usize).map(Contig::len);
        let read_len = reads.get(a.read as usize).map(SeqRecord::len);
        let ok = contig_len.is_some_and(|len| a.contig_end as usize <= len)
            && read_len == Some(a.read_len as usize)
            && a.read_end <= a.read_len
            && a.contig_start <= a.contig_end
            && a.read_start <= a.read_end;
        if !ok {
            return Err(invalid(format!(
                "alignment {i} (read {}, contig {}) does not fit the reads and contigs it names",
                a.read, a.contig
            )));
        }
    }
    Ok(())
}

/// Everything the scaffolding stage produces that downstream consumers
/// (FASTA output, stats) need — the checkpointable form of
/// [`hipmer_scaffold::ScaffoldOutput`] minus the phase reports.
#[derive(Clone, Debug, PartialEq)]
pub struct ScaffoldState {
    /// Final scaffolds with gap-closed sequences.
    pub scaffolds: ScaffoldSet,
    /// Gap-closing outcome counters, summed over rounds.
    pub gap_stats: GapCloseStats,
    /// Per-library insert estimates actually used.
    pub insert_means: Vec<f64>,
}

/// Serialize scaffold state.
pub fn encode_scaffold_state(state: &ScaffoldState) -> Vec<u8> {
    let mut out = Vec::new();
    header(&mut out, TAG_SCAFFOLD);
    put_u64(&mut out, state.scaffolds.scaffolds.len() as u64);
    for s in &state.scaffolds.scaffolds {
        put_u64(&mut out, s.members.len() as u64);
        for m in &s.members {
            put_u32(&mut out, m.contig);
            put_u8(&mut out, u8::from(m.reversed));
            put_i64(&mut out, m.gap_before);
        }
    }
    put_u64(&mut out, state.scaffolds.sequences.len() as u64);
    for seq in &state.scaffolds.sequences {
        put_bytes(&mut out, seq);
    }
    put_u64(&mut out, state.scaffolds.offsets.len() as u64);
    for offsets in &state.scaffolds.offsets {
        put_u64(&mut out, offsets.len() as u64);
        for &o in offsets {
            put_u32(&mut out, o);
        }
    }
    put_u64(&mut out, state.gap_stats.overlap_joined as u64);
    put_u64(&mut out, state.gap_stats.spanned as u64);
    put_u64(&mut out, state.gap_stats.walked as u64);
    put_u64(&mut out, state.gap_stats.patched as u64);
    put_u64(&mut out, state.gap_stats.nfilled as u64);
    put_u64(&mut out, state.insert_means.len() as u64);
    for &m in &state.insert_means {
        put_f64(&mut out, m);
    }
    out
}

/// Rebuild scaffold state from [`encode_scaffold_state`] bytes.
pub fn decode_scaffold_state(bytes: &[u8]) -> io::Result<ScaffoldState> {
    let mut r = Reader::new(bytes);
    check_header(&mut r, TAG_SCAFFOLD)?;
    let n_scaffolds = r.count(8)?;
    let mut scaffolds = Vec::with_capacity(n_scaffolds);
    for _ in 0..n_scaffolds {
        let n_members = r.count(4 + 1 + 8)?;
        let mut members = Vec::with_capacity(n_members);
        for _ in 0..n_members {
            let contig = r.u32()?;
            let reversed = r.u8()? != 0;
            let gap_before = r.i64()?;
            members.push(ScaffoldMember {
                contig,
                reversed,
                gap_before,
            });
        }
        scaffolds.push(Scaffold { members });
    }
    let n_seqs = r.count(8)?;
    let mut sequences = Vec::with_capacity(n_seqs);
    for _ in 0..n_seqs {
        sequences.push(r.bytes()?);
    }
    let n_offsets = r.count(8)?;
    let mut offsets = Vec::with_capacity(n_offsets);
    for _ in 0..n_offsets {
        let n = r.count(4)?;
        offsets.push((0..n).map(|_| r.u32()).collect::<io::Result<Vec<u32>>>()?);
    }
    let gap_stats = GapCloseStats {
        overlap_joined: r.u64()? as usize,
        spanned: r.u64()? as usize,
        walked: r.u64()? as usize,
        patched: r.u64()? as usize,
        nfilled: r.u64()? as usize,
    };
    let n_means = r.count(8)?;
    let mut insert_means = Vec::with_capacity(n_means);
    for _ in 0..n_means {
        insert_means.push(r.f64()?);
    }
    r.finish()?;
    Ok(ScaffoldState {
        scaffolds: ScaffoldSet {
            scaffolds,
            sequences,
            offsets,
        },
        gap_stats,
        insert_means,
    })
}

// ---------------------------------------------------------------------
// The store: manifest + per-stage artifact files.

/// The run parameters a checkpoint is only valid for. A `--resume`
/// against a store whose fingerprint differs (changed k, topology, input,
/// or round count) is rejected — the stale artifacts would silently
/// produce a different assembly than a fresh run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// k-mer length.
    pub k: usize,
    /// Virtual ranks.
    pub ranks: usize,
    /// Ranks per node.
    pub ranks_per_node: usize,
    /// Input reads.
    pub n_reads: usize,
    /// Total input bases.
    pub read_bases: usize,
    /// Scaffolding rounds (0 when scaffolding is disabled).
    pub rounds: usize,
    /// The multi-k round schedule (empty for classic single-k runs). A
    /// single-k store can never satisfy a `--resume` of a multi-k run (or
    /// vice versa, or a run with a different k schedule): the round-scoped
    /// artifacts would line up by index but encode different assemblies.
    pub multi_k: Vec<usize>,
}

impl Fingerprint {
    fn to_value(&self) -> Value {
        let multi_k = self
            .multi_k
            .iter()
            .map(|k| k.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let mut v = Value::obj();
        v.set("k", self.k)
            .set("ranks", self.ranks)
            .set("ranks_per_node", self.ranks_per_node)
            .set("n_reads", self.n_reads)
            .set("read_bases", self.read_bases)
            .set("rounds", self.rounds)
            .set("multi_k", multi_k);
        v
    }

    fn from_value(v: &Value) -> Option<Fingerprint> {
        let get = |key: &str| v.get(key).and_then(Value::as_u64).map(|x| x as usize);
        let multi_k = match v.get("multi_k").and_then(Value::as_str)? {
            "" => Vec::new(),
            list => list
                .split(',')
                .map(|s| s.parse::<usize>().ok())
                .collect::<Option<Vec<_>>>()?,
        };
        Some(Fingerprint {
            k: get("k")?,
            ranks: get("ranks")?,
            ranks_per_node: get("ranks_per_node")?,
            n_reads: get("n_reads")?,
            read_bases: get("read_bases")?,
            rounds: get("rounds")?,
            multi_k,
        })
    }
}

/// One completed stage recorded in the manifest.
#[derive(Clone, Debug)]
struct StageRecord {
    /// Stage index in pipeline order (records are kept contiguous from 0).
    index: usize,
    name: String,
    file: String,
    bytes: u64,
    checksum: u64,
}

/// A checkpoint directory: a `manifest.json` plus one artifact file per
/// completed stage. See the [module docs](self) for the validation rules.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    fingerprint: Fingerprint,
    stages: Vec<StageRecord>,
}

const MANIFEST: &str = "manifest.json";

impl CheckpointStore {
    /// Create (or reset) a checkpoint directory for a fresh run: any
    /// existing manifest is discarded and rewritten empty.
    pub fn create(dir: &Path, fingerprint: Fingerprint) -> io::Result<CheckpointStore> {
        std::fs::create_dir_all(dir)?;
        let store = CheckpointStore {
            dir: dir.to_path_buf(),
            fingerprint,
            stages: Vec::new(),
        };
        store.write_manifest()?;
        Ok(store)
    }

    /// Open an existing checkpoint directory for `--resume`: the manifest
    /// must parse, carry the current format version, and match
    /// `fingerprint` exactly; per-stage artifacts are checksum-verified
    /// and the store keeps the longest *valid prefix* of stages contiguous
    /// from index 0 (a later stage without its predecessors is useless —
    /// re-execution needs every upstream artifact).
    pub fn open_for_resume(dir: &Path, fingerprint: Fingerprint) -> io::Result<CheckpointStore> {
        let text = std::fs::read_to_string(dir.join(MANIFEST))?;
        let doc = Value::parse(&text).map_err(|_| invalid("unreadable manifest"))?;
        let version = doc.get("format_version").and_then(Value::as_u64);
        if version != Some(FORMAT_VERSION as u64) {
            return Err(invalid(format!(
                "manifest format {version:?}, expected {FORMAT_VERSION}"
            )));
        }
        let found = doc
            .get("fingerprint")
            .and_then(Fingerprint::from_value)
            .ok_or_else(|| invalid("manifest fingerprint"))?;
        if found != fingerprint {
            return Err(invalid(format!(
                "checkpoint fingerprint {found:?} does not match this run {fingerprint:?}"
            )));
        }
        let mut stages = Vec::new();
        if let Some(arr) = doc.get("stages").and_then(Value::as_arr) {
            for s in arr {
                let rec = (|| {
                    Some(StageRecord {
                        index: s.get("index").and_then(Value::as_u64)? as usize,
                        name: s.get("name").and_then(Value::as_str)?.to_string(),
                        file: s.get("file").and_then(Value::as_str)?.to_string(),
                        bytes: s.get("bytes").and_then(Value::as_u64)?,
                        checksum: u64::from_str_radix(
                            s.get("checksum")
                                .and_then(Value::as_str)?
                                .trim_start_matches("0x"),
                            16,
                        )
                        .ok()?,
                    })
                })();
                match rec {
                    Some(r) => stages.push(r),
                    None => break, // keep the prefix before the bad record
                }
            }
        }
        // Keep the longest checksum-valid prefix contiguous from stage 0.
        let mut valid = Vec::new();
        for (i, rec) in stages.into_iter().enumerate() {
            if rec.index != i {
                break;
            }
            let ok = std::fs::read(dir.join(&rec.file))
                .map(|bytes| bytes.len() as u64 == rec.bytes && fnv1a(&bytes) == rec.checksum)
                .unwrap_or(false);
            if !ok {
                break;
            }
            valid.push(rec);
        }
        Ok(CheckpointStore {
            dir: dir.to_path_buf(),
            fingerprint,
            stages: valid,
        })
    }

    /// The fingerprint this store was created/opened with.
    pub fn fingerprint(&self) -> &Fingerprint {
        &self.fingerprint
    }

    /// Whether `stage` (by name) has a validated artifact.
    pub fn completed(&self, stage: &str) -> bool {
        self.stages.iter().any(|s| s.name == stage)
    }

    /// Persist `payload` as the artifact of `stage` (pipeline index
    /// `index`), replacing any record at or after that index (they are
    /// stale once an earlier stage re-executes). The artifact is written
    /// to a temp file and renamed, so a crash mid-save never corrupts an
    /// existing record. Returns `(bytes, checksum)` for reporting.
    pub fn save(&mut self, index: usize, stage: &str, payload: &[u8]) -> io::Result<(u64, u64)> {
        self.invalidate_from(index);
        let checksum = fnv1a(payload);
        // Round-scoped stage names ("round1/kmer-analysis") contain a path
        // separator; flatten it so the artifact stays a plain file in the
        // checkpoint directory. The manifest keys records by the *name*,
        // so lookups are unaffected.
        let file = format!("stage-{index:02}-{}.ckpt", stage.replace('/', "-"));
        let tmp = self.dir.join(format!("{file}.tmp"));
        std::fs::write(&tmp, payload)?;
        std::fs::rename(&tmp, self.dir.join(&file))?;
        self.stages.push(StageRecord {
            index,
            name: stage.to_string(),
            file,
            bytes: payload.len() as u64,
            checksum,
        });
        self.write_manifest()?;
        Ok((payload.len() as u64, checksum))
    }

    /// Load and checksum-verify the artifact of `stage`. Returns the raw
    /// payload bytes plus `(bytes, checksum)` for reporting.
    pub fn load(&self, stage: &str) -> io::Result<(Vec<u8>, u64, u64)> {
        let rec = self
            .stages
            .iter()
            .find(|s| s.name == stage)
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("no checkpoint for stage {stage:?}"),
                )
            })?;
        let bytes = std::fs::read(self.dir.join(&rec.file))?;
        if fnv1a(&bytes) != rec.checksum {
            return Err(invalid(format!("checksum mismatch for stage {stage:?}")));
        }
        Ok((bytes, rec.bytes, rec.checksum))
    }

    /// Drop every record at or after pipeline index `index` (used both by
    /// [`save`](Self::save) and when a stage executes *without* saving —
    /// e.g. under `--checkpoint-interval` — so later stale artifacts can
    /// never be resumed past a gap).
    pub fn invalidate_from(&mut self, index: usize) {
        if self.stages.iter().any(|s| s.index >= index) {
            self.stages.retain(|s| s.index < index);
            self.write_manifest().ok();
        }
    }

    fn write_manifest(&self) -> io::Result<()> {
        let mut doc = Value::obj();
        doc.set("format_version", FORMAT_VERSION as u64)
            .set("generator", "hipmer")
            .set("fingerprint", self.fingerprint.to_value());
        let stages: Vec<Value> = self
            .stages
            .iter()
            .map(|s| {
                let mut v = Value::obj();
                v.set("index", s.index)
                    .set("name", s.name.as_str())
                    .set("file", s.file.as_str())
                    .set("bytes", s.bytes)
                    .set("checksum", format!("{:#018x}", s.checksum));
                v
            })
            .collect();
        doc.set("stages", stages);
        let tmp = self.dir.join(format!("{MANIFEST}.tmp"));
        std::fs::write(&tmp, doc.to_json())?;
        std::fs::rename(&tmp, self.dir.join(MANIFEST))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp() -> Fingerprint {
        Fingerprint {
            k: 21,
            ranks: 4,
            ranks_per_node: 2,
            n_reads: 100,
            read_bases: 10_000,
            rounds: 1,
            multi_k: Vec::new(),
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hipmer-ckpt-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn fnv1a_known_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn alignments_round_trip() {
        let alns = vec![
            Alignment {
                read: 1,
                contig: 2,
                read_start: 3,
                read_end: 99,
                contig_start: 10,
                contig_end: 106,
                rc: true,
                matches: 95,
                read_len: 100,
            },
            Alignment {
                read: 7,
                contig: 0,
                read_start: 0,
                read_end: 50,
                contig_start: 400,
                contig_end: 450,
                rc: false,
                matches: 50,
                read_len: 50,
            },
        ];
        let bytes = encode_alignments(&alns);
        let back = decode_alignments(&bytes).unwrap();
        assert_eq!(alns, back);
        assert_eq!(encode_alignments(&back), bytes, "re-encode is stable");
    }

    #[test]
    fn scaffold_state_round_trips() {
        let state = ScaffoldState {
            scaffolds: ScaffoldSet {
                scaffolds: vec![Scaffold {
                    members: vec![
                        ScaffoldMember {
                            contig: 0,
                            reversed: false,
                            gap_before: 0,
                        },
                        ScaffoldMember {
                            contig: 3,
                            reversed: true,
                            gap_before: -12,
                        },
                    ],
                }],
                sequences: vec![b"ACGTNNNACGT".to_vec()],
                offsets: vec![vec![0, 7]],
            },
            gap_stats: GapCloseStats {
                overlap_joined: 1,
                spanned: 2,
                walked: 3,
                patched: 4,
                nfilled: 5,
            },
            insert_means: vec![395.25, 2400.0],
        };
        let bytes = encode_scaffold_state(&state);
        let back = decode_scaffold_state(&bytes).unwrap();
        assert_eq!(state, back);
        assert_eq!(encode_scaffold_state(&back), bytes);
    }

    #[test]
    fn corruption_is_detected() {
        let bytes = encode_alignments(&[]);
        // Flip a payload byte: header checks or reader bounds must fail…
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(decode_alignments(&bad).is_err());
        // …and truncation too.
        assert!(decode_alignments(&bytes[..bytes.len() - 1]).is_err());
        // Trailing garbage is rejected.
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_alignments(&long).is_err());
    }

    #[test]
    fn store_save_load_and_resume() {
        let dir = tmpdir("store");
        let mut store = CheckpointStore::create(&dir, fp()).unwrap();
        let payload = encode_alignments(&[]);
        let (bytes, sum) = store.save(0, "kmer-analysis", &payload).unwrap();
        assert_eq!(bytes, payload.len() as u64);
        assert_eq!(sum, fnv1a(&payload));
        store.save(1, "contig-generation", &payload).unwrap();

        let reopened = CheckpointStore::open_for_resume(&dir, fp()).unwrap();
        assert!(reopened.completed("kmer-analysis"));
        assert!(reopened.completed("contig-generation"));
        let (data, b, s) = reopened.load("contig-generation").unwrap();
        assert_eq!(data, payload);
        assert_eq!((b, s), (bytes, sum));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_fingerprint_mismatch() {
        let dir = tmpdir("fpmm");
        CheckpointStore::create(&dir, fp()).unwrap();
        let other = Fingerprint { k: 31, ..fp() };
        let err = CheckpointStore::open_for_resume(&dir, other).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_keeps_only_the_valid_prefix() {
        let dir = tmpdir("prefix");
        let mut store = CheckpointStore::create(&dir, fp()).unwrap();
        let payload = encode_alignments(&[]);
        store.save(0, "a", &payload).unwrap();
        store.save(1, "b", &payload).unwrap();
        store.save(2, "c", &payload).unwrap();
        // Corrupt the middle artifact: stage 2 becomes unreachable.
        let victim = dir.join("stage-01-b.ckpt");
        let mut data = std::fs::read(&victim).unwrap();
        data[0] ^= 0xff;
        std::fs::write(&victim, &data).unwrap();

        let reopened = CheckpointStore::open_for_resume(&dir, fp()).unwrap();
        assert!(reopened.completed("a"));
        assert!(!reopened.completed("b"));
        assert!(!reopened.completed("c"), "no resume past a gap");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_truncates_stale_later_stages() {
        let dir = tmpdir("truncate");
        let mut store = CheckpointStore::create(&dir, fp()).unwrap();
        let payload = encode_alignments(&[]);
        store.save(0, "a", &payload).unwrap();
        store.save(1, "b", &payload).unwrap();
        store.save(2, "c", &payload).unwrap();
        // Re-executing stage 1 invalidates stages 1 and 2.
        store.save(1, "b", &payload).unwrap();
        let kept = |s: &CheckpointStore| ["a", "b", "c"].map(|name| s.completed(name));
        assert_eq!(kept(&store), [true, true, false]);
        // And the manifest agrees after reopening.
        let reopened = CheckpointStore::open_for_resume(&dir, fp()).unwrap();
        assert_eq!(kept(&reopened), [true, true, false]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn invalidate_from_blocks_resume_past_a_gap() {
        let dir = tmpdir("gap");
        let mut store = CheckpointStore::create(&dir, fp()).unwrap();
        let payload = encode_alignments(&[]);
        store.save(0, "a", &payload).unwrap();
        store.save(1, "b", &payload).unwrap();
        // Stage 0 re-executed without saving (checkpoint interval): every
        // later artifact is stale.
        store.invalidate_from(0);
        assert!(!store.completed("a") && !store.completed("b"));
        let reopened = CheckpointStore::open_for_resume(&dir, fp()).unwrap();
        assert!(!reopened.completed("a") && !reopened.completed("b"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
