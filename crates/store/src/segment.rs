//! Immutable, sorted segment files and the manifest that names the live
//! generation.
//!
//! A segment is the compacted form of the repository at one point in
//! time: `UP2PSEG1` magic, a `u32` object count, then exactly that many
//! checksummed frames — one publish-shaped entry per live object, in
//! ascending id order, carrying the pre-tokenized fields so loading a
//! segment never runs the tokenizer. Segments are written once and never
//! modified; compaction writes the next generation and retires the old.
//!
//! The manifest (`MANIFEST`, committed by write-to-temp + rename) names
//! the current segment (if any) and the current WAL file. It is the
//! single commit point: recovery believes the manifest and nothing else,
//! so a crash anywhere inside compaction leaves the previous generation
//! fully intact.

use crate::error::StoreError;
use crate::fsio::{encode_frame_with, read_frame, FrameRead, StoreFs, FRAME_HEADER};
use crate::wal::{decode_record, WalRecord};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

pub(crate) const SEG_MAGIC: &[u8; 8] = b"UP2PSEG1";

/// Manifest file name inside a durable store directory.
pub(crate) const MANIFEST: &str = "MANIFEST";
const MANIFEST_TMP: &str = "MANIFEST.tmp";
const MANIFEST_VERSION: &str = "up2p-manifest 1";

/// The durable store's current file set, as committed by the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Manifest {
    /// Compaction generation (monotone; names the files).
    pub generation: u64,
    /// Current segment file name, when one has been written.
    pub segment: Option<String>,
    /// Current WAL file name.
    pub wal: String,
}

impl Manifest {
    pub(crate) fn wal_name(generation: u64) -> String {
        format!("wal-{generation}.log")
    }

    pub(crate) fn segment_name(generation: u64) -> String {
        format!("seg-{generation}.up2p")
    }

    fn to_text(&self) -> String {
        let mut out = format!("{MANIFEST_VERSION}\ngeneration {}\n", self.generation);
        if let Some(seg) = &self.segment {
            out.push_str(&format!("segment {seg}\n"));
        }
        out.push_str(&format!("wal {}\n", self.wal));
        out
    }

    fn from_text(text: &str) -> Option<Manifest> {
        let mut lines = text.lines();
        if lines.next()? != MANIFEST_VERSION {
            return None;
        }
        let mut generation = None;
        let mut segment = None;
        let mut wal = None;
        for line in lines {
            match line.split_once(' ')? {
                ("generation", v) => generation = Some(v.parse().ok()?),
                ("segment", v) => segment = Some(v.to_string()),
                ("wal", v) => wal = Some(v.to_string()),
                _ => return None,
            }
        }
        Some(Manifest { generation: generation?, segment, wal: wal? })
    }
}

/// Path of the manifest inside `dir`.
pub(crate) fn manifest_path(dir: &Path) -> PathBuf {
    dir.join(MANIFEST)
}

/// Reads the committed manifest. `Ok(None)` when the directory has no
/// manifest (not a durable store / fresh directory); a present but
/// unparsable manifest is [`StoreError::Corrupt`] — the commit record
/// itself is damaged and silently starting empty would lose data.
pub(crate) fn read_manifest(dir: &Path) -> Result<Option<Manifest>, StoreError> {
    let path = manifest_path(dir);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(StoreError::Io(e)),
    };
    Manifest::from_text(&text)
        .map(Some)
        .ok_or_else(|| StoreError::Corrupt(format!("{}: unreadable manifest", path.display())))
}

/// Commits a manifest: write to a temp file, sync, rename over
/// `MANIFEST`, sync the directory. The rename is the commit point.
pub(crate) fn write_manifest(fs: &dyn StoreFs, dir: &Path, m: &Manifest) -> io::Result<()> {
    let tmp = dir.join(MANIFEST_TMP);
    let mut w = fs.create(&tmp)?;
    w.write_all(m.to_text().as_bytes())?;
    w.sync()?;
    drop(w);
    fs.rename(&tmp, &manifest_path(dir))?;
    fs.sync_dir(dir)
}

/// Writes a segment file of `count` publish-shaped entries (already in
/// ascending id order), each encoding its payload into the frame buffer,
/// returning the byte size. The file is synced before returning but only
/// becomes live once a manifest names it.
pub(crate) fn write_segment(
    fs: &dyn StoreFs,
    path: &Path,
    count: u32,
    entries: impl Iterator<Item = impl FnOnce(&mut Vec<u8>)>,
) -> io::Result<u64> {
    let mut w = fs.create(path)?;
    let mut buf = Vec::with_capacity(SEG_MAGIC.len() + 4);
    buf.extend_from_slice(SEG_MAGIC);
    buf.extend_from_slice(&count.to_le_bytes());
    w.write_all(&buf)?;
    let mut written = buf.len() as u64;
    for encode in entries {
        buf.clear();
        encode_frame_with(&mut buf, encode);
        w.write_all(&buf)?;
        written += buf.len() as u64;
    }
    w.sync()?;
    Ok(written)
}

/// Loads a segment file, verifying the magic, the declared count, every
/// frame checksum and that the file ends exactly after the last frame.
/// Any deviation is [`StoreError::Corrupt`]: unlike the WAL (whose tail
/// may legitimately be torn mid-append), a manifest-committed segment
/// was written and synced in full, so damage means real corruption and
/// must stop recovery rather than silently dropping committed objects.
pub(crate) fn load_segment(path: &Path) -> Result<Vec<WalRecord>, StoreError> {
    let bytes = std::fs::read(path)?;
    let corrupt = |why: &str| StoreError::Corrupt(format!("{}: {why}", path.display()));
    if bytes.len() < SEG_MAGIC.len() + 4 || &bytes[..SEG_MAGIC.len()] != SEG_MAGIC {
        return Err(corrupt("bad segment header"));
    }
    let count =
        u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) as usize;
    let mut pos = SEG_MAGIC.len() + 4;
    // a damaged count must not size the allocation; the file length bounds it
    let mut records = Vec::with_capacity(count.min(bytes.len() / FRAME_HEADER));
    for i in 0..count {
        match read_frame(&bytes, pos) {
            FrameRead::Frame { payload, next } => {
                let Some(rec @ WalRecord::Publish { .. }) = decode_record(payload) else {
                    return Err(corrupt(&format!("entry {i} is not a publish record")));
                };
                records.push(rec);
                pos = next;
            }
            _ => return Err(corrupt(&format!("entry {i} torn or checksum-failed"))),
        }
    }
    if pos != bytes.len() {
        return Err(corrupt("trailing bytes after final entry"));
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsio::RealFs;
    use crate::index::PreparedField;
    use crate::wal::encode_record;

    fn entry(n: u32) -> WalRecord {
        WalRecord::Publish {
            community: "c".into(),
            xml: format!("<o>{n}</o>"),
            fields: vec![("o/v".into(), format!("v{n}"))],
            prep: vec![PreparedField { norm: format!("v{n}"), tokens: vec![format!("v{n}")] }],
        }
    }

    /// Writes owned records through the encoder a generation uses.
    fn write_records(path: &Path, records: &[WalRecord]) -> u64 {
        let entries = records.iter().map(|rec| move |out: &mut Vec<u8>| encode_record(rec, out));
        write_segment(&RealFs, path, records.len() as u32, entries).unwrap()
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("up2p-seg-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn manifest_text_round_trips() {
        for m in [
            Manifest { generation: 0, segment: None, wal: Manifest::wal_name(0) },
            Manifest {
                generation: 7,
                segment: Some(Manifest::segment_name(7)),
                wal: Manifest::wal_name(7),
            },
        ] {
            assert_eq!(Manifest::from_text(&m.to_text()), Some(m));
        }
        assert_eq!(Manifest::from_text("junk"), None);
        assert_eq!(Manifest::from_text("up2p-manifest 1\ngeneration x\nwal w\n"), None);
        assert_eq!(Manifest::from_text("up2p-manifest 1\ngeneration 1\n"), None);
    }

    #[test]
    fn manifest_commit_and_read_back() {
        let dir = tmp("manifest");
        assert_eq!(read_manifest(&dir).unwrap(), None);
        let m = Manifest {
            generation: 3,
            segment: Some(Manifest::segment_name(3)),
            wal: Manifest::wal_name(3),
        };
        write_manifest(&RealFs, &dir, &m).unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), Some(m));
        std::fs::write(manifest_path(&dir), "garbage").unwrap();
        assert!(matches!(read_manifest(&dir), Err(StoreError::Corrupt(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_round_trip_detects_any_damage() {
        let dir = tmp("roundtrip");
        let path = dir.join("seg-0.up2p");
        let entries: Vec<WalRecord> = (0..8).map(entry).collect();
        let bytes_written = write_records(&path, &entries);
        let on_disk = std::fs::read(&path).unwrap();
        assert_eq!(on_disk.len() as u64, bytes_written);
        assert_eq!(load_segment(&path).unwrap(), entries);
        // flip every byte: load must error (checksum/structure), not panic
        for i in 0..on_disk.len() {
            let mut bad = on_disk.clone();
            bad[i] ^= 0x20;
            std::fs::write(&path, &bad).unwrap();
            assert!(
                matches!(load_segment(&path), Err(StoreError::Corrupt(_))),
                "flip at byte {i} went undetected"
            );
        }
        // truncation at any point is detected too
        for cut in [0, 5, 12, on_disk.len() / 2, on_disk.len() - 1] {
            std::fs::write(&path, &on_disk[..cut]).unwrap();
            assert!(matches!(load_segment(&path), Err(StoreError::Corrupt(_))), "cut {cut}");
        }
        // trailing garbage is rejected
        let mut long = on_disk.clone();
        long.push(0);
        std::fs::write(&path, &long).unwrap();
        assert!(matches!(load_segment(&path), Err(StoreError::Corrupt(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_segment_is_valid() {
        let dir = tmp("empty");
        let path = dir.join("seg-0.up2p");
        write_records(&path, &[]);
        assert!(load_segment(&path).unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
