//! Checkpoint-backed result cache.
//!
//! Every job maps to a **cache key** — a fingerprint of the input bytes
//! plus every parameter that affects the output (computed by the
//! executor, see [`crate::JobExecutor::cache_key`]). The cache is a
//! directory per key under `<state>/cache/`:
//!
//! ```text
//! cache/<key>/
//!   checkpoints/       HMCP stage artifacts (written by the pipeline)
//!   scaffolds.fasta    final assembly       \
//!   report.json        pipeline report       } outputs
//!   trace.json         chrome trace         /
//!   done.json          completeness marker, written last (atomically)
//! ```
//!
//! `done.json` is the commit point: it is written via tmp+rename *after*
//! the outputs, so a crash mid-job leaves at worst a directory with valid
//! checkpoints and no marker — which a later submission of the same key
//! treats as a **resume** (restart from the longest valid checkpoint
//! prefix), not a hit. A directory with the marker is a **hit**: the
//! outputs are served without touching the pipeline at all.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use hipmer_pgas::json::Value;

/// What `lookup` found for a key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheState {
    /// Nothing under this key.
    Miss,
    /// Checkpoints exist but no completeness marker: resume candidate.
    Partial,
    /// Marker present: outputs can be served directly.
    Complete,
}

/// Disk-backed result cache rooted at `<state>/cache`.
#[derive(Debug)]
pub struct ResultCache {
    root: PathBuf,
}

impl ResultCache {
    /// Open (creating if needed) the cache under `state_dir`.
    pub fn open(state_dir: &Path) -> io::Result<ResultCache> {
        let root = state_dir.join("cache");
        fs::create_dir_all(&root)?;
        Ok(ResultCache { root })
    }

    /// Directory for a key (created on demand by `prepare`).
    pub fn dir(&self, key: &str) -> PathBuf {
        self.root.join(key)
    }

    /// Path of the checkpoints subdirectory for a key.
    pub fn checkpoint_dir(&self, key: &str) -> PathBuf {
        self.dir(key).join("checkpoints")
    }

    /// Classify what exists under `key`.
    pub fn state(&self, key: &str) -> CacheState {
        let dir = self.dir(key);
        if dir.join("done.json").is_file() {
            CacheState::Complete
        } else if dir.join("checkpoints").join("manifest.json").is_file() {
            CacheState::Partial
        } else {
            CacheState::Miss
        }
    }

    /// Create the key's directory tree so a job can start writing into it.
    pub fn prepare(&self, key: &str) -> io::Result<PathBuf> {
        let dir = self.dir(key);
        fs::create_dir_all(dir.join("checkpoints"))?;
        Ok(dir)
    }

    /// Commit a key: write `done.json` atomically (tmp + rename) after the
    /// outputs are in place. `summary` is stored verbatim in the marker.
    pub fn commit(&self, key: &str, summary: &Value) -> io::Result<()> {
        let dir = self.dir(key);
        let mut marker = Value::obj();
        marker.set("cache_key", key).set("summary", summary.clone());
        let tmp = dir.join("done.json.tmp");
        fs::write(&tmp, marker.to_json())?;
        fs::rename(&tmp, dir.join("done.json"))
    }

    /// Read a named output file for a complete key.
    pub fn read_output(&self, key: &str, file: &str) -> io::Result<Vec<u8>> {
        fs::read(self.dir(key).join(file))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hipmer-serve-cache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn states_progress_miss_partial_complete() {
        let state = tmp_dir("states");
        let cache = ResultCache::open(&state).unwrap();
        assert_eq!(cache.state("k1"), CacheState::Miss);

        cache.prepare("k1").unwrap();
        // Bare directories (no manifest) still count as a miss: nothing to
        // resume from.
        assert_eq!(cache.state("k1"), CacheState::Miss);

        fs::write(cache.checkpoint_dir("k1").join("manifest.json"), "{}").unwrap();
        assert_eq!(cache.state("k1"), CacheState::Partial);

        fs::write(cache.dir("k1").join("scaffolds.fasta"), ">s\nACGT\n").unwrap();
        cache.commit("k1", &Value::obj()).unwrap();
        assert_eq!(cache.state("k1"), CacheState::Complete);
        assert_eq!(
            cache.read_output("k1", "scaffolds.fasta").unwrap(),
            b">s\nACGT\n"
        );

        let _ = fs::remove_dir_all(&state);
    }

    #[test]
    fn commit_marker_names_the_key() {
        let state = tmp_dir("marker");
        let cache = ResultCache::open(&state).unwrap();
        cache.prepare("deadbeef").unwrap();
        let mut summary = Value::obj();
        summary.set("contigs", 3u64);
        cache.commit("deadbeef", &summary).unwrap();
        let text = fs::read_to_string(cache.dir("deadbeef").join("done.json")).unwrap();
        let v = Value::parse(&text).unwrap();
        assert_eq!(v.get("cache_key").and_then(Value::as_str), Some("deadbeef"));
        assert_eq!(
            v.get("summary")
                .and_then(|s| s.get("contigs"))
                .and_then(Value::as_u64),
            Some(3)
        );
        let _ = fs::remove_dir_all(&state);
    }
}
