//! The resume journal: an append-only, line-oriented record of every
//! completed cell.
//!
//! One line per finished cell, flushed immediately, each guarded by a
//! truncation checksum (see [`crate::cell::decode_line`]). Resume is
//! therefore trivial and safe: re-expand the config, skip every cell
//! whose content address already has a verified line, re-run the rest.
//! A cell whose definition changed gets a new address, so its stale
//! line is never matched; a line half-written at the moment of a crash
//! fails its checksum and the cell re-runs.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::cell::{decode_line, CellOutcome};

/// The journal header line (versioned so a future format change can
/// refuse to resume from an incompatible file).
pub const JOURNAL_HEADER: &str = "# autarky campaign journal v1";

/// An open journal: completed outcomes keyed by content address, plus
/// the append handle.
pub struct Journal {
    path: PathBuf,
    writer: Option<BufWriter<File>>,
    done: BTreeMap<String, CellOutcome>,
}

impl Journal {
    /// Open (or create) the journal at `path`, loading every verified
    /// completed-cell line. Malformed or truncated lines are skipped —
    /// their cells simply re-run.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        let mut done = BTreeMap::new();
        let mut fresh = true;
        if let Ok(text) = std::fs::read_to_string(path) {
            fresh = text.is_empty();
            for line in text.lines() {
                if let Some((id, outcome)) = decode_line(line) {
                    done.insert(id, outcome);
                }
            }
        }
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let mut writer = BufWriter::new(file);
        if fresh {
            writeln!(writer, "{JOURNAL_HEADER}")?;
            writer.flush()?;
        }
        Ok(Self {
            path: path.to_owned(),
            writer: Some(writer),
            done,
        })
    }

    /// An in-memory journal (tests, `--dry-run`): nothing persists.
    pub fn ephemeral() -> Self {
        Self {
            path: PathBuf::new(),
            writer: None,
            done: BTreeMap::new(),
        }
    }

    /// Path this journal appends to (empty for ephemeral journals).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The completed outcome for a cell, if journaled.
    pub fn get(&self, id: &str) -> Option<&CellOutcome> {
        self.done.get(id)
    }

    /// Completed cells on record.
    pub fn len(&self) -> usize {
        self.done.len()
    }

    /// Whether nothing has completed yet.
    pub fn is_empty(&self) -> bool {
        self.done.is_empty()
    }

    /// Record one completed cell: write its artifacts into
    /// `cells/<id>/` beside the journal, then append + flush its line,
    /// then remember it. Artifacts land first, so a journaled cell
    /// always has its artifacts on disk; a crash in between re-runs the
    /// cell on resume. Ephemeral journals keep neither.
    pub fn record(
        &mut self,
        id: &str,
        outcome: &CellOutcome,
        artifacts: &[(String, String)],
    ) -> std::io::Result<()> {
        if let Some(writer) = &mut self.writer {
            let dir = self.path.with_file_name("cells").join(id);
            // A re-run replaces the whole set: no file outlives the
            // outcome that wrote it.
            match std::fs::remove_dir_all(&dir) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
                _ => {}
            }
            if !artifacts.is_empty() {
                std::fs::create_dir_all(&dir)?;
            }
            for (name, contents) in artifacts {
                std::fs::write(dir.join(name), contents)?;
            }
            writeln!(writer, "{}", outcome.encode_line(id))?;
            writer.flush()?;
        }
        self.done.insert(id.to_owned(), outcome.clone());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::GateOutcome;

    fn outcome(reason: &str) -> CellOutcome {
        CellOutcome {
            gate: GateOutcome::Pass,
            metrics: vec![("x".into(), 1.5)],
            reason: reason.into(),
        }
    }

    #[test]
    fn journal_roundtrips_and_resumes() {
        let dir = std::env::temp_dir().join(format!("ay-campaign-journal-{}", std::process::id()));
        let path = dir.join("journal.log");
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut j = Journal::open(&path).expect("opens");
            assert!(j.is_empty());
            j.record("aaaaaaaaaaaa", &outcome("one"), &[])
                .expect("records");
            j.record("bbbbbbbbbbbb", &outcome("two"), &[])
                .expect("records");
        }
        let j = Journal::open(&path).expect("reopens");
        assert_eq!(j.len(), 2);
        assert_eq!(j.get("aaaaaaaaaaaa").expect("a").reason, "one");
        assert_eq!(j.get("bbbbbbbbbbbb").expect("b").reason, "two");
        assert!(j.get("cccccccccccc").is_none());
        let text = std::fs::read_to_string(&path).expect("readable");
        assert!(text.starts_with(JOURNAL_HEADER));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_line_is_dropped_on_reopen() {
        let dir = std::env::temp_dir().join(format!("ay-campaign-trunc-{}", std::process::id()));
        let path = dir.join("journal.log");
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut j = Journal::open(&path).expect("opens");
            j.record("aaaaaaaaaaaa", &outcome("kept"), &[])
                .expect("records");
            j.record("bbbbbbbbbbbb", &outcome("torn"), &[])
                .expect("records");
        }
        // Simulate a crash mid-append: chop the last line in half.
        let text = std::fs::read_to_string(&path).expect("read");
        let cut = text.len() - 17;
        std::fs::write(&path, &text[..cut]).expect("truncate");
        let j = Journal::open(&path).expect("reopens");
        assert_eq!(j.len(), 1, "torn line dropped");
        assert!(j.get("aaaaaaaaaaaa").is_some());
        assert!(j.get("bbbbbbbbbbbb").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
