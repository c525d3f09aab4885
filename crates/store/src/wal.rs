//! The write-ahead log: an append-only file of length-prefixed,
//! CRC-32-checksummed frames, one per publish/remove, written *before*
//! the in-memory repository and index mutate.
//!
//! Format: an 8-byte magic header (`UP2PWAL1`) followed by frames
//! (`[payload len: u32 LE][crc32: u32 LE][payload]`, see
//! [`crate::fsio`]). Publish payloads carry the object's community,
//! canonical XML, extracted fields *and* their pre-tokenized form
//! ([`PreparedField`]), so replay rebuilds posting lists without running
//! the tokenizer. Replay stops at the first torn or checksum-failing
//! frame — everything before it is exactly the durable prefix — and the
//! torn tail is truncated away before the log is appended to again.

use crate::fsio::{
    encode_frame_with, put_str, put_u32, read_frame, Cursor, FrameRead, StoreFs, StoreWriter,
};
use crate::index::PreparedField;
use std::io::{self, Write};
use std::path::Path;

/// Magic bytes opening every WAL file.
pub(crate) const WAL_MAGIC: &[u8; 8] = b"UP2PWAL1";

const TAG_PUBLISH: u8 = 1;
const TAG_REMOVE: u8 = 2;

/// When the WAL forces its buffered frames to disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fsync` after every appended record: an `Ok` from a publish or
    /// remove means the record survives any crash.
    EveryRecord,
    /// `fsync` once per `n` appended records (plus explicit
    /// [`sync`](crate::DurableRepository::sync) calls): higher
    /// throughput, and a crash may lose up to the last unsynced batch —
    /// but recovery still lands on a clean record boundary.
    EveryN(usize),
    /// Only explicit `sync` calls (and OS writeback) persist frames.
    Manual,
}

/// One logical operation in the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// An object entering the repository.
    Publish {
        /// Community the object belongs to.
        community: String,
        /// Canonical XML of the object document.
        xml: String,
        /// Extracted `(field path, value)` metadata.
        fields: Vec<(String, String)>,
        /// Pre-tokenized form of each field, index-ready.
        prep: Vec<PreparedField>,
    },
    /// An object leaving the repository, by content id (hex form).
    Remove {
        /// The removed object's id.
        id: String,
    },
}

/// Encodes a record into a frame payload (no frame header).
pub(crate) fn encode_record(rec: &WalRecord, out: &mut Vec<u8>) {
    match rec {
        WalRecord::Publish { community, xml, fields, prep } => {
            encode_publish(community, xml, fields, prep, out);
        }
        WalRecord::Remove { id } => {
            out.push(TAG_REMOVE);
            put_str(out, id);
        }
    }
}

/// The one publish encoder: a [`WalRecord::Publish`] payload from parts
/// borrowed wherever they live, so nothing is cloned to be encoded.
pub(crate) fn encode_publish(
    community: &str,
    xml: &str,
    fields: &[(String, String)],
    prep: &[PreparedField],
    out: &mut Vec<u8>,
) {
    out.push(TAG_PUBLISH);
    put_str(out, community);
    put_str(out, xml);
    put_u32(out, fields.len() as u32);
    for ((path, value), pf) in fields.iter().zip(prep) {
        put_str(out, path);
        put_str(out, value);
        put_str(out, &pf.norm);
        put_u32(out, pf.tokens.len() as u32);
        for token in &pf.tokens {
            put_str(out, token);
        }
    }
}

/// Decodes a frame payload back into a record. `None` means the payload
/// is logically malformed (despite a valid checksum) — callers treat
/// this exactly like a torn frame.
pub(crate) fn decode_record(payload: &[u8]) -> Option<WalRecord> {
    let mut c = Cursor::new(payload);
    let rec = match c.u8()? {
        TAG_PUBLISH => {
            let community = c.str()?.to_string();
            let xml = c.str()?.to_string();
            let n = c.u32()? as usize;
            let mut fields = Vec::with_capacity(n);
            let mut prep = Vec::with_capacity(n);
            for _ in 0..n {
                let path = c.str()?.to_string();
                let value = c.str()?.to_string();
                let norm = c.str()?.to_string();
                let n_tokens = c.u32()? as usize;
                let mut tokens = Vec::with_capacity(n_tokens);
                for _ in 0..n_tokens {
                    tokens.push(c.str()?.to_string());
                }
                fields.push((path, value));
                prep.push(PreparedField { norm, tokens });
            }
            WalRecord::Publish { community, xml, fields, prep }
        }
        TAG_REMOVE => WalRecord::Remove { id: c.str()?.to_string() },
        _ => return None,
    };
    c.at_end().then_some(rec)
}

/// Result of scanning a WAL file's bytes.
pub(crate) struct WalReplay {
    /// Records of the valid prefix, in append order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix (where appends may resume).
    pub valid_len: u64,
    /// Bytes past the valid prefix that were dropped (torn tail).
    pub torn_bytes: u64,
}

/// Scans WAL `bytes`, returning every record of the longest valid
/// prefix. A missing or corrupt magic header yields an empty replay
/// with `valid_len` 0 (the file will be re-created before reuse).
pub(crate) fn replay(bytes: &[u8]) -> WalReplay {
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return WalReplay { records: Vec::new(), valid_len: 0, torn_bytes: bytes.len() as u64 };
    }
    let mut records = Vec::new();
    let mut pos = WAL_MAGIC.len();
    while let FrameRead::Frame { payload, next } = read_frame(bytes, pos) {
        match decode_record(payload) {
            Some(rec) => {
                records.push(rec);
                pos = next;
            }
            None => break,
        }
    }
    WalReplay {
        records,
        valid_len: pos as u64,
        torn_bytes: (bytes.len() - pos) as u64,
    }
}

/// The append handle on the live WAL file.
#[derive(Debug)]
pub(crate) struct Wal {
    writer: Box<dyn StoreWriter>,
    policy: SyncPolicy,
    appended_since_sync: usize,
    frame_buf: Vec<u8>,
    /// Set by the first failed write or sync. The file may now end in a
    /// torn frame, and replay stops at the first one — a frame appended
    /// behind it would be acknowledged and then lost — so nothing more is
    /// written until the store is reopened (which truncates the tail).
    poisoned: bool,
}

impl Wal {
    /// Creates a fresh WAL file (truncating), writing and syncing the
    /// magic header so the file is recognizable from its first byte.
    pub(crate) fn create(fs: &dyn StoreFs, path: &Path, policy: SyncPolicy) -> io::Result<Wal> {
        let mut writer = fs.create(path)?;
        writer.write_all(WAL_MAGIC)?;
        writer.sync()?;
        Ok(Wal { writer, policy, appended_since_sync: 0, frame_buf: Vec::new(), poisoned: false })
    }

    /// Reopens an existing WAL for appending, truncating to the valid
    /// prefix `valid_len` first (discarding any torn tail). When the
    /// prefix is shorter than the header (corrupt header), the file is
    /// re-created from scratch instead.
    pub(crate) fn open_end(
        fs: &dyn StoreFs,
        path: &Path,
        valid_len: u64,
        policy: SyncPolicy,
    ) -> io::Result<Wal> {
        if valid_len < WAL_MAGIC.len() as u64 {
            return Wal::create(fs, path, policy);
        }
        let writer = fs.append_truncated(path, valid_len)?;
        Ok(Wal { writer, policy, appended_since_sync: 0, frame_buf: Vec::new(), poisoned: false })
    }

    /// Appends one record, `encode` writing its payload straight into the
    /// reused frame buffer, as one checksummed frame in one write, syncing
    /// according to the policy. On `Ok` under [`SyncPolicy::EveryRecord`]
    /// the record is durable. After any failed append or sync every
    /// further one fails too, until the store is reopened.
    pub(crate) fn append(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
        let mut frame = std::mem::take(&mut self.frame_buf);
        frame.clear();
        encode_frame_with(&mut frame, encode);
        let written = self.guarded(|w| w.write_all(&frame));
        self.frame_buf = frame;
        written?;
        self.appended_since_sync += 1;
        match self.policy {
            SyncPolicy::EveryRecord => self.sync(),
            SyncPolicy::EveryN(n) if self.appended_since_sync >= n.max(1) => self.sync(),
            _ => Ok(()),
        }
    }

    /// Forces everything appended so far to stable storage.
    pub(crate) fn sync(&mut self) -> io::Result<()> {
        self.guarded(|w| w.sync())?;
        self.appended_since_sync = 0;
        Ok(())
    }

    /// Runs one writer operation unless the log is poisoned, poisoning it
    /// when the operation fails.
    fn guarded(
        &mut self,
        op: impl FnOnce(&mut dyn StoreWriter) -> io::Result<()>,
    ) -> io::Result<()> {
        if self.poisoned {
            return Err(io::Error::other("WAL write failed earlier; reopen the store to resume"));
        }
        let result = op(&mut *self.writer);
        self.poisoned = result.is_err();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsio::RealFs;

    fn publish(n: u32) -> WalRecord {
        WalRecord::Publish {
            community: "tracks".into(),
            xml: format!("<t><n>{n}</n></t>"),
            fields: vec![("t/n".into(), format!("word{n} Word{n}"))],
            prep: vec![PreparedField {
                norm: format!("word{n} word{n}"),
                tokens: vec![format!("word{n}"), format!("word{n}")],
            }],
        }
    }

    #[test]
    fn record_codec_round_trips() {
        for rec in [publish(3), WalRecord::Remove { id: "a".repeat(40) }] {
            let mut payload = Vec::new();
            encode_record(&rec, &mut payload);
            assert_eq!(decode_record(&payload), Some(rec));
        }
        // trailing garbage after a well-formed record is rejected
        let mut payload = Vec::new();
        encode_record(&WalRecord::Remove { id: "x".into() }, &mut payload);
        payload.push(0);
        assert_eq!(decode_record(&payload), None);
        // unknown tag is rejected
        assert_eq!(decode_record(&[9, 0, 0, 0, 0]), None);
        assert_eq!(decode_record(&[]), None);
    }

    #[test]
    fn append_replay_round_trip_and_torn_tail() {
        let dir = std::env::temp_dir().join(format!("up2p-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let recs: Vec<WalRecord> =
            (0..5).map(publish).chain([WalRecord::Remove { id: "dead".into() }]).collect();
        {
            let mut wal = Wal::create(&RealFs, &path, SyncPolicy::EveryRecord).unwrap();
            for r in &recs {
                wal.append(|out| encode_record(r, out)).unwrap();
            }
        }
        let bytes = std::fs::read(&path).unwrap();
        let full = replay(&bytes);
        assert_eq!(full.records, recs);
        assert_eq!(full.valid_len, bytes.len() as u64);
        assert_eq!(full.torn_bytes, 0);
        // every truncation point recovers a record-aligned prefix
        for cut in 0..bytes.len() {
            let r = replay(&bytes[..cut]);
            assert!(r.records.len() <= recs.len());
            assert_eq!(r.records[..], recs[..r.records.len()]);
            assert!(r.valid_len <= cut as u64);
        }
        // reopening after a torn tail truncates it and appends cleanly
        let torn_to = full.valid_len - 3; // cut into the last frame
        std::fs::write(&path, &bytes[..torn_to as usize]).unwrap();
        let scan = replay(&std::fs::read(&path).unwrap());
        assert_eq!(scan.records.len(), recs.len() - 1);
        assert!(scan.torn_bytes > 0);
        {
            let mut wal =
                Wal::open_end(&RealFs, &path, scan.valid_len, SyncPolicy::EveryRecord).unwrap();
            wal.append(|out| encode_record(&publish(99), out)).unwrap();
        }
        let after = replay(&std::fs::read(&path).unwrap());
        assert_eq!(after.torn_bytes, 0);
        assert_eq!(after.records.len(), recs.len()); // 5 survivors + the new one
        assert_eq!(after.records.last(), Some(&publish(99)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_header_replays_empty() {
        let r = replay(b"NOTAWAL!rest");
        assert!(r.records.is_empty());
        assert_eq!(r.valid_len, 0);
        let r = replay(b"UP2P");
        assert!(r.records.is_empty());
        assert_eq!(r.valid_len, 0);
    }
}
