//! Atomic file publication: the one place `runplan` writes a file that
//! other processes may read at any moment.
//!
//! Both forms write the full content to a hidden temp file beside the
//! target and fsync it *before* the target name appears, so no reader
//! ever observes a half-written file:
//!
//! * [`replace`] renames the temp over the target (last writer wins) and
//!   best-effort fsyncs the directory — the journal image, compaction,
//!   and the serve request/response files.
//! * [`create_new`] hard-links the temp to the target, which fails if the
//!   target exists (first writer wins) — the journal lock and fleet
//!   member registration.
//!
//! Temp names are `.<target name>.tmp-<pid>-<seq>`: unique per process
//! and call, so concurrent publishers of one target never share a temp
//! file, hidden so directory scanners (inbox, fleet registry) skip them,
//! and led by the owner pid so [`crate::lock::sweep_lock_debris`] can
//! tell a dead owner's leftovers from a live one's.

use crate::journal::{io_err, JournalError};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Write `bytes` to a fresh temp file beside `path` and fsync it.
fn write_temp(path: &Path, bytes: &[u8]) -> Result<PathBuf, JournalError> {
    let name = path
        .file_name()
        .map_or_else(String::new, |n| n.to_string_lossy().into_owned());
    let tmp = path.with_file_name(format!(
        ".{name}.tmp-{}-{}",
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let mut f = std::fs::File::create(&tmp).map_err(|e| io_err(&tmp, "write", e))?;
    f.write_all(bytes).map_err(|e| io_err(&tmp, "write", e))?;
    f.sync_all().map_err(|e| io_err(&tmp, "fsync", e))?;
    Ok(tmp)
}

/// Atomically replace the file at `path` with `bytes`: fsynced temp,
/// rename over the target, then a best-effort directory fsync so the
/// rename itself is durable (not every filesystem supports it, and the
/// rename's atomicity does not depend on it).
pub(crate) fn replace(path: &Path, bytes: &[u8]) -> Result<(), JournalError> {
    let tmp = write_temp(path, bytes)?;
    std::fs::rename(&tmp, path).map_err(|e| io_err(path, "rename", e))?;
    if let Some(dir) = path.parent() {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Atomically create the file at `path` holding `bytes`, only if no file
/// is there: fsynced temp, then `hard_link` to the target. Returns
/// `Ok(false)` when the target already exists.
pub(crate) fn create_new(path: &Path, bytes: &[u8]) -> Result<bool, JournalError> {
    let tmp = write_temp(path, bytes)?;
    let linked = std::fs::hard_link(&tmp, path);
    let _ = std::fs::remove_file(&tmp);
    match linked {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => Ok(false),
        Err(e) => Err(io_err(path, "write", e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "interp-atomic-{tag}-{}-{}",
            std::process::id(),
            crate::lock::fresh_token()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn replace_overwrites_and_leaves_no_temp() {
        let dir = fresh_dir("replace");
        let path = dir.join("target");
        replace(&path, b"one").expect("first");
        replace(&path, b"two").expect("second");
        assert_eq!(std::fs::read(&path).expect("read"), b"two");
        let entries = std::fs::read_dir(&dir).expect("list").count();
        assert_eq!(entries, 1, "temp files must not survive a publish");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_new_refuses_an_existing_target() {
        let dir = fresh_dir("create");
        let path = dir.join("target");
        assert!(create_new(&path, b"first").expect("create"));
        assert!(!create_new(&path, b"second").expect("collide"));
        assert_eq!(std::fs::read(&path).expect("read"), b"first");
        let entries = std::fs::read_dir(&dir).expect("list").count();
        assert_eq!(entries, 1, "temp files must not survive a publish");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
