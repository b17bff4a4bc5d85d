//! Atomic file publication: the one place `runplan` writes a file that
//! other processes may read at any moment.
//!
//! Both forms write the full content to a hidden temp file beside the
//! target *before* the target name appears, so no reader ever observes
//! a half-written file:
//!
//! * [`replace`] fsyncs the temp, renames it over the target (last
//!   writer wins) and best-effort fsyncs the directory: the content is
//!   *durable* — the journal image, compaction, and the serve
//!   request/response files.
//! * [`create_new`] hard-links the temp to the target, which fails if the
//!   target exists (first writer wins) — fleet member registration. Its
//!   content is *visible*, not durable: it is not fsynced. Page-cache
//!   writes are visible to every process before `write` returns, so the
//!   link still appears only after the content. Durability matters only
//!   across a power cut, and then every process that wrote such a file
//!   is dead: a member file that comes back empty names no live pid, so
//!   it is swept as dead, and one that comes back missing is simply gone.
//!
//! Temp names are `.<target name>.tmp-<pid>-<seq>`: unique per process
//! and call, so concurrent publishers of one target never share a temp
//! file, and hidden so directory scanners (inbox, fleet registry) skip
//! them.

use crate::journal::{io_err, JournalError};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Write `bytes` to a fresh temp file beside `path`, returning its path
/// and the open file (for a caller that makes it durable).
fn write_temp(path: &Path, bytes: &[u8]) -> Result<(PathBuf, std::fs::File), JournalError> {
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
    Ok((tmp, f))
}

/// Atomically replace the file at `path` with `bytes`: fsynced temp,
/// rename over the target, then a best-effort directory fsync so the
/// rename itself is durable (not every filesystem supports it, and the
/// rename's atomicity does not depend on it).
pub(crate) fn replace(path: &Path, bytes: &[u8]) -> Result<(), JournalError> {
    let (tmp, f) = write_temp(path, bytes)?;
    f.sync_all().map_err(|e| io_err(&tmp, "fsync", e))?;
    drop(f);
    std::fs::rename(&tmp, path).map_err(|e| io_err(path, "rename", e))?;
    if let Some(dir) = path.parent() {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Atomically create the file at `path` holding `bytes`, only if no file
/// is there: temp, then `hard_link` to the target. Visible, not durable
/// (see the module docs). Returns `Ok(false)` when the target already
/// exists.
pub(crate) fn create_new(path: &Path, bytes: &[u8]) -> Result<bool, JournalError> {
    let (tmp, _) = write_temp(path, bytes)?;
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
