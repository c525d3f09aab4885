//! A counting [`StoreFs`] around [`RealFs`]: write amplification and
//! fsyncs per publish are measured from outside `crates/store`, and the
//! time spent inside `write`/`sync` is the WAL's I/O share of an op.

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;
use up2p_store::{RealFs, StoreFs, StoreWriter};

/// Totals since creation. Plain statistics, so `Relaxed` throughout.
#[derive(Debug, Default)]
pub struct FsCounters {
    pub writes: AtomicU64,
    pub bytes: AtomicU64,
    pub syncs: AtomicU64,
    pub renames: AtomicU64,
    /// Nanoseconds inside `write` and `sync` calls.
    pub io_ns: AtomicU64,
}

/// A copy of the counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct FsSnapshot {
    pub writes: u64,
    pub bytes: u64,
    pub syncs: u64,
    pub renames: u64,
    pub io_ns: u64,
}

impl FsCounters {
    pub fn snapshot(&self) -> FsSnapshot {
        FsSnapshot {
            writes: self.writes.load(Relaxed),
            bytes: self.bytes.load(Relaxed),
            syncs: self.syncs.load(Relaxed),
            renames: self.renames.load(Relaxed),
            io_ns: self.io_ns.load(Relaxed),
        }
    }
}

impl std::ops::AddAssign for FsSnapshot {
    fn add_assign(&mut self, other: FsSnapshot) {
        self.writes += other.writes;
        self.bytes += other.bytes;
        self.syncs += other.syncs;
        self.renames += other.renames;
        self.io_ns += other.io_ns;
    }
}

impl FsSnapshot {
    pub fn since(&self, earlier: &FsSnapshot) -> FsSnapshot {
        FsSnapshot {
            writes: self.writes - earlier.writes,
            bytes: self.bytes - earlier.bytes,
            syncs: self.syncs - earlier.syncs,
            renames: self.renames - earlier.renames,
            io_ns: self.io_ns - earlier.io_ns,
        }
    }
}

#[derive(Debug, Clone, Default)]
pub struct CountingFs {
    pub counters: Arc<FsCounters>,
}

#[derive(Debug)]
struct CountingWriter {
    inner: Box<dyn StoreWriter>,
    counters: Arc<FsCounters>,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let started = Instant::now();
        let n = self.inner.write(buf)?;
        self.counters
            .io_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Relaxed);
        self.counters.writes.fetch_add(1, Relaxed);
        self.counters.bytes.fetch_add(n as u64, Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl StoreWriter for CountingWriter {
    fn sync(&mut self) -> io::Result<()> {
        let started = Instant::now();
        self.inner.sync()?;
        self.counters
            .io_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Relaxed);
        self.counters.syncs.fetch_add(1, Relaxed);
        Ok(())
    }
}

impl CountingFs {
    fn wrap(&self, inner: Box<dyn StoreWriter>) -> Box<dyn StoreWriter> {
        Box::new(CountingWriter {
            inner,
            counters: Arc::clone(&self.counters),
        })
    }
}

impl StoreFs for CountingFs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn StoreWriter>> {
        Ok(self.wrap(RealFs.create(path)?))
    }

    fn append_truncated(&self, path: &Path, len: u64) -> io::Result<Box<dyn StoreWriter>> {
        Ok(self.wrap(RealFs.append_truncated(path, len)?))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.counters.renames.fetch_add(1, Relaxed);
        RealFs.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        RealFs.remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.counters.syncs.fetch_add(1, Relaxed);
        RealFs.sync_dir(dir)
    }
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// File-system type of the mount holding `path` (longest matching mount
/// point in `/proc/mounts`), e.g. `ext4` or `tmpfs`.
pub fn fs_type_of(path: &Path) -> String {
    let path: PathBuf = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut parts = line.split_whitespace();
            let (_, mount, fstype) = (parts.next()?, parts.next()?, parts.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, t)| t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use up2p_store::{DurableOptions, DurableRepository, SyncPolicy};

    #[test]
    fn counts_wal_traffic_of_a_durable_publish() {
        let dir = crate::harness::scratch_root().join("test-countfs");
        let _ = std::fs::remove_dir_all(&dir);
        let fs = CountingFs::default();
        let counters = Arc::clone(&fs.counters);
        let opts = DurableOptions {
            sync: SyncPolicy::EveryN(2),
            compact_every: None,
        };
        let mut store = DurableRepository::open_with_fs(Box::new(fs), &dir, opts).unwrap();
        let before = counters.snapshot();
        for i in 0..4 {
            let xml = format!("<t><n>x{i}</n></t>");
            store.publish_xml("c", &xml, &["t/n".to_string()]).unwrap();
        }
        let d = counters.snapshot().since(&before);
        assert_eq!(d.writes, 4, "one frame write per record");
        assert_eq!(d.syncs, 2, "EveryN(2) over four records");
        assert!(d.bytes > 4 * 20);
        assert!(dir_bytes(&dir) >= d.bytes);
        assert_ne!(fs_type_of(&dir), "");
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
