//! The durable repository: WAL-ahead mutation, segment compaction and
//! crash recovery layered over [`Repository`].
//!
//! Every publish/remove is encoded as a [`WalRecord`] and appended to
//! the live WAL *before* the in-memory repository and index mutate, so
//! an acknowledged operation survives any crash (under
//! [`SyncPolicy::EveryRecord`]; batched policies trade the unsynced tail
//! for throughput but still recover to a clean record boundary).
//! Compaction folds the live object set into one immutable, sorted,
//! pre-tokenized segment file and starts a fresh WAL; a manifest written
//! via temp-file + rename is the single commit point, so a crash at any
//! byte of compaction leaves the previous generation fully intact.
//!
//! This is the store's only on-disk layout, and recovery
//! ([`DurableRepository::recover`]) its only loader: it reads the
//! segment and replays the WAL tail. Both carry
//! [`PreparedField`](crate::PreparedField)s — the normalized values and
//! keyword tokens computed once at publish — so rebuilding the posting
//! lists never runs the tokenizer, which is what makes restart cheap for
//! the churn-heavy peers the paper's availability argument cares about
//! (the benchmark's `store.recover_ms` times it).

use crate::digest::ResourceId;
use crate::error::StoreError;
use crate::fsio::{RealFs, StoreFs};
use crate::index::prepare_fields;
use crate::repository::{Repository, StoredObject};
use crate::segment::{load_segment, read_manifest, write_manifest, write_segment, Manifest};
use crate::wal::{encode_publish, encode_record, replay, SyncPolicy, Wal, WalRecord};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use up2p_xml::Document;

/// Tuning knobs for a [`DurableRepository`].
#[derive(Debug, Clone, Copy)]
pub struct DurableOptions {
    /// WAL fsync policy; [`SyncPolicy::EveryRecord`] (the default) makes
    /// every acknowledged operation crash-durable.
    pub sync: SyncPolicy,
    /// Compact automatically once the live WAL holds this many records;
    /// `None` (the default) leaves compaction to explicit
    /// [`compact`](DurableRepository::compact) calls.
    pub compact_every: Option<usize>,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions { sync: SyncPolicy::EveryRecord, compact_every: None }
    }
}

/// What recovery found on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Generation named by the committed manifest.
    pub generation: u64,
    /// Objects loaded from the segment file (0 when none is committed).
    pub segment_objects: usize,
    /// Valid records replayed from the WAL tail.
    pub wal_records: usize,
    /// Bytes of torn/corrupt WAL tail discarded past the valid prefix.
    pub torn_bytes: u64,
}

/// A [`Repository`] whose mutations are write-ahead logged and whose
/// state compacts into segment files (see the module docs).
///
/// ```
/// use up2p_store::{DurableOptions, DurableRepository, Query};
/// let dir = std::env::temp_dir().join(format!("up2p-durable-doc-{}", std::process::id()));
/// let _ = std::fs::remove_dir_all(&dir);
/// let mut store = DurableRepository::open(&dir, DurableOptions::default())?;
/// let id = store.publish_xml(
///     "patterns",
///     "<pattern><name>Observer</name></pattern>",
///     &["pattern/name".into()],
/// )?;
/// drop(store); // crash or shutdown —
/// let reopened = DurableRepository::open(&dir, DurableOptions::default())?;
/// assert!(reopened.repository().contains(&id));
/// # std::fs::remove_dir_all(&dir)?;
/// # Ok::<(), up2p_store::StoreError>(())
/// ```
#[derive(Debug)]
pub struct DurableRepository {
    repo: Repository,
    dir: PathBuf,
    fs: Box<dyn StoreFs>,
    wal: Wal,
    manifest: Manifest,
    wal_records: usize,
    opts: DurableOptions,
}

impl DurableRepository {
    /// Opens (or initializes) a durable store in `dir` on the real
    /// filesystem: recovers from the committed manifest when one exists,
    /// otherwise creates generation 0 (empty WAL, no segment).
    ///
    /// # Errors
    ///
    /// I/O failures and [`StoreError::Corrupt`] when committed files are
    /// damaged beyond the recoverable torn-tail case.
    pub fn open(dir: &Path, opts: DurableOptions) -> Result<DurableRepository, StoreError> {
        Self::open_with_fs(Box::new(RealFs), dir, opts)
    }

    /// [`open`](Self::open) with an explicit filesystem — the seam the
    /// crash-injection suites use to run the same store over
    /// [`FailFs`](crate::FailFs).
    ///
    /// # Errors
    ///
    /// As [`open`](Self::open), plus whatever failures `fs` injects.
    pub fn open_with_fs(
        fs: Box<dyn StoreFs>,
        dir: &Path,
        opts: DurableOptions,
    ) -> Result<DurableRepository, StoreError> {
        std::fs::create_dir_all(dir)?;
        let (repo, manifest, wal, wal_records) = match read_manifest(dir)? {
            Some(manifest) => {
                let (repo, valid_len, report) = replay_state(dir, &manifest)?;
                let wal = Wal::open_end(&*fs, &dir.join(&manifest.wal), valid_len, opts.sync)?;
                (repo, manifest, wal, report.wal_records)
            }
            None => {
                let manifest =
                    Manifest { generation: 0, segment: None, wal: Manifest::wal_name(0) };
                let wal = Wal::create(&*fs, &dir.join(&manifest.wal), opts.sync)?;
                write_manifest(&*fs, dir, &manifest)?;
                (Repository::new(), manifest, wal, 0)
            }
        };
        Ok(DurableRepository { repo, dir: dir.to_path_buf(), fs, wal, manifest, wal_records, opts })
    }

    /// Read-only recovery: rebuilds a [`Repository`] from the manifest's
    /// segment + WAL tail without taking over the directory (no
    /// truncation, no new files). A directory without a manifest —
    /// missing, empty, or holding anything else — is refused, never
    /// loaded as an empty store.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when `dir` has no manifest or a committed
    /// file is damaged; I/O and XML errors from reading object bodies.
    pub fn recover(dir: &Path) -> Result<(Repository, RecoveryReport), StoreError> {
        let manifest = read_manifest(dir)?.ok_or_else(|| {
            StoreError::Corrupt(format!("{}: no durable-store manifest", dir.display()))
        })?;
        let (repo, _, report) = replay_state(dir, &manifest)?;
        Ok((repo, report))
    }

    /// Writes a plain [`Repository`]'s current state as the next durable
    /// generation in `dir` (one compacted segment, an empty WAL and the
    /// committing manifest), retiring the generation it finds there.
    /// This is how the servent's `save_state` produces a directory that
    /// [`recover`](Self::recover) loads without re-tokenizing.
    ///
    /// # Errors
    ///
    /// I/O failures from writing the generation's files.
    pub fn save_snapshot(repo: &Repository, dir: &Path) -> Result<(), StoreError> {
        std::fs::create_dir_all(dir)?;
        let retired = read_manifest(dir).ok().flatten();
        write_generation(&RealFs, dir, repo, retired.as_ref(), SyncPolicy::EveryRecord)?;
        Ok(())
    }

    /// Durably publishes an object from XML text: the WAL record is
    /// written (and synced, per policy) before the repository mutates.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidXml`] when the text does not parse; I/O
    /// failures from the WAL append (on which the in-memory state is
    /// left untouched).
    pub fn publish_xml(
        &mut self,
        community: &str,
        xml: &str,
        index_paths: &[String],
    ) -> Result<ResourceId, StoreError> {
        let doc = Document::parse(xml)?;
        self.publish_doc(community, doc, index_paths)
    }

    /// Durably publishes a parsed document, extracting the given field
    /// paths.
    ///
    /// # Errors
    ///
    /// I/O failures from the WAL append.
    pub fn publish_doc(
        &mut self,
        community: &str,
        doc: Document,
        index_paths: &[String],
    ) -> Result<ResourceId, StoreError> {
        let fields = Repository::extract_fields(&doc, index_paths);
        self.publish_fields(community, doc, fields)
    }

    /// Durably publishes with pre-extracted fields. Tokenization happens
    /// exactly once, here; the prepared form rides the WAL record so
    /// recovery replays it for free.
    ///
    /// # Errors
    ///
    /// I/O failures from the WAL append.
    pub fn publish_fields(
        &mut self,
        community: &str,
        doc: Document,
        fields: impl Into<Arc<[(String, String)]>>,
    ) -> Result<ResourceId, StoreError> {
        let fields = fields.into();
        let xml = doc.to_xml_string();
        let prep = prepare_fields(&fields);
        self.wal.append(|out| encode_publish(community, &xml, &fields, &prep, out))?;
        self.wal_records += 1;
        let id = self.repo.admit(community, xml, doc, fields, Some(&prep));
        self.maybe_compact()?;
        Ok(id)
    }

    /// Durably removes an object. A no-op (and no WAL record) when the
    /// id is not stored.
    ///
    /// # Errors
    ///
    /// I/O failures from the WAL append (on which the object stays).
    pub fn remove(&mut self, id: &ResourceId) -> Result<Option<StoredObject>, StoreError> {
        if !self.repo.contains(id) {
            return Ok(None);
        }
        self.wal.append(|out| encode_record(&WalRecord::Remove { id: id.to_string() }, out))?;
        self.wal_records += 1;
        let removed = self.repo.remove(id);
        self.maybe_compact()?;
        Ok(removed)
    }

    /// Forces every appended WAL record to stable storage — the explicit
    /// durability barrier for [`SyncPolicy::EveryN`]/[`SyncPolicy::Manual`].
    ///
    /// # Errors
    ///
    /// I/O failures from the fsync.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.wal.sync().map_err(StoreError::Io)
    }

    /// Folds the live object set into the next segment generation and
    /// starts a fresh WAL. The manifest rename at the end is the commit
    /// point: a crash anywhere before it leaves the previous generation
    /// authoritative, and the partially written next-generation files are
    /// simply ignored by recovery. Retired files are garbage-collected
    /// best-effort after the commit.
    ///
    /// # Errors
    ///
    /// I/O failures; on error the in-memory store still points at the
    /// old (intact) generation.
    pub fn compact(&mut self) -> Result<(), StoreError> {
        let (manifest, wal) =
            write_generation(&*self.fs, &self.dir, &self.repo, Some(&self.manifest), self.opts.sync)?;
        self.manifest = manifest;
        self.wal = wal;
        self.wal_records = 0;
        Ok(())
    }

    /// The in-memory repository (all reads go straight here; mutation
    /// must go through the durable methods so the WAL stays ahead).
    pub fn repository(&self) -> &Repository {
        &self.repo
    }

    /// Current committed generation.
    pub fn generation(&self) -> u64 {
        self.manifest.generation
    }

    /// Records appended to the live WAL since the last compaction.
    pub fn wal_records(&self) -> usize {
        self.wal_records
    }

    fn maybe_compact(&mut self) -> Result<(), StoreError> {
        if self.opts.compact_every.is_some_and(|n| self.wal_records >= n.max(1)) {
            self.compact()?;
        }
        Ok(())
    }
}

/// Writes `repo`'s live set as the generation after `retired` (generation
/// 0 when there is none): segment, fresh WAL, then the manifest rename
/// that commits both. Only after that commit are the retired
/// generation's files garbage-collected, best-effort. Returns the new
/// manifest and its open WAL.
fn write_generation(
    fs: &dyn StoreFs,
    dir: &Path,
    repo: &Repository,
    retired: Option<&Manifest>,
    sync: SyncPolicy,
) -> Result<(Manifest, Wal), StoreError> {
    let generation = retired.map_or(0, |m| m.generation + 1);
    // publish-shaped entries, tokenized here once so recovery never is
    let entries = repo.iter().map(|obj| {
        move |out: &mut Vec<u8>| {
            let prep = prepare_fields(&obj.fields);
            encode_publish(&obj.community, &obj.xml, &obj.fields, &prep, out);
        }
    });
    let seg_name = Manifest::segment_name(generation);
    write_segment(fs, &dir.join(&seg_name), repo.len() as u32, entries)?;
    let wal_name = Manifest::wal_name(generation);
    let wal = Wal::create(fs, &dir.join(&wal_name), sync)?;
    let manifest = Manifest { generation, segment: Some(seg_name), wal: wal_name };
    write_manifest(fs, dir, &manifest)?;
    if let Some(old) = retired {
        for name in old.segment.iter().chain([&old.wal]) {
            let _ = fs.remove_file(&dir.join(name));
        }
    }
    Ok((manifest, wal))
}

/// Rebuilds the repository a manifest describes: segment first, then the
/// WAL tail's valid prefix, last-operation-per-id wins. Returns the WAL's
/// valid byte length (where an appender may resume) alongside the report.
fn replay_state(
    dir: &Path,
    manifest: &Manifest,
) -> Result<(Repository, u64, RecoveryReport), StoreError> {
    let segment_records = match &manifest.segment {
        Some(name) => load_segment(&dir.join(name))?,
        None => Vec::new(),
    };
    let segment_objects = segment_records.len();
    let wal_bytes = match std::fs::read(dir.join(&manifest.wal)) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(StoreError::Io(e)),
    };
    let tail = replay(&wal_bytes);
    let mut live: BTreeMap<ResourceId, WalRecord> = BTreeMap::new();
    for rec in segment_records.into_iter().chain(tail.records.iter().cloned()) {
        match rec {
            WalRecord::Publish { ref community, ref xml, .. } => {
                let id = ResourceId::for_object(community, xml);
                live.insert(id, rec);
            }
            WalRecord::Remove { id } => {
                live.remove(id.as_str());
            }
        }
    }
    let mut repo = Repository::new();
    for rec in live.into_values() {
        let WalRecord::Publish { community, xml, fields, prep } = rec else {
            continue; // unreachable: removes never enter the map
        };
        let doc = Document::parse(&xml)?;
        repo.admit(&community, xml, doc, fields.into(), Some(&prep));
    }
    let report = RecoveryReport {
        generation: manifest.generation,
        segment_objects,
        wal_records: tail.records.len(),
        torn_bytes: tail.torn_bytes,
    };
    Ok((repo, tail.valid_len, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;

    fn dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("up2p-durable-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn track(n: u32) -> String {
        format!("<track><title>Song number {n}</title><artist>Band {}</artist></track>", n % 7)
    }

    fn paths() -> Vec<String> {
        vec!["track/title".into(), "track/artist".into()]
    }

    #[test]
    fn publish_remove_survive_reopen() {
        let d = dir("reopen");
        let mut ids = Vec::new();
        {
            let mut store = DurableRepository::open(&d, DurableOptions::default()).unwrap();
            for n in 0..10 {
                ids.push(store.publish_xml("tracks", &track(n), &paths()).unwrap());
            }
            store.remove(&ids[3]).unwrap();
            assert!(store.remove(&ids[3]).unwrap().is_none());
        }
        let store = DurableRepository::open(&d, DurableOptions::default()).unwrap();
        assert_eq!(store.repository().len(), 9);
        assert!(!store.repository().contains(&ids[3]));
        assert!(store.repository().contains(&ids[9]));
        let hits = store.repository().search(Some("tracks"), &Query::any_keyword("number"));
        assert_eq!(hits.len(), 9);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn compaction_preserves_state_and_drops_old_generation() {
        let d = dir("compact");
        let mut store = DurableRepository::open(&d, DurableOptions::default()).unwrap();
        let mut ids = Vec::new();
        for n in 0..20 {
            ids.push(store.publish_xml("tracks", &track(n), &paths()).unwrap());
        }
        store.remove(&ids[0]).unwrap();
        assert_eq!(store.generation(), 0);
        store.compact().unwrap();
        assert_eq!(store.generation(), 1);
        assert_eq!(store.wal_records(), 0);
        // the retired generation's files are gone
        assert!(!d.join(Manifest::wal_name(0)).exists());
        // post-compaction appends land in the new WAL and reopen cleanly
        store.publish_xml("tracks", &track(99), &paths()).unwrap();
        drop(store);
        let (repo, report) = DurableRepository::recover(&d).unwrap();
        assert_eq!(report.generation, 1);
        assert_eq!(report.segment_objects, 19);
        assert_eq!(report.wal_records, 1);
        assert_eq!(report.torn_bytes, 0);
        assert_eq!(repo.len(), 20);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn auto_compaction_triggers_on_threshold() {
        let d = dir("auto");
        let opts =
            DurableOptions { sync: SyncPolicy::Manual, compact_every: Some(5) };
        let mut store = DurableRepository::open(&d, opts).unwrap();
        for n in 0..12 {
            store.publish_xml("tracks", &track(n), &paths()).unwrap();
        }
        assert_eq!(store.generation(), 2, "12 records, threshold 5 → 2 compactions");
        assert!(store.wal_records() < 5);
        drop(store);
        let (repo, _) = DurableRepository::recover(&d).unwrap();
        assert_eq!(repo.len(), 12);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn snapshot_of_plain_repository_recovers() {
        let d = dir("snapshot");
        let mut repo = Repository::new();
        for n in 0..6 {
            repo.insert_xml("tracks", &track(n), &paths()).unwrap();
        }
        DurableRepository::save_snapshot(&repo, &d).unwrap();
        let (recovered, report) = DurableRepository::recover(&d).unwrap();
        assert_eq!(report.segment_objects, 6);
        assert_eq!(recovered.len(), 6);
        // snapshotting again bumps the generation
        DurableRepository::save_snapshot(&repo, &d).unwrap();
        let (_, report) = DurableRepository::recover(&d).unwrap();
        assert_eq!(report.generation, 1);
        std::fs::remove_dir_all(&d).unwrap();
    }

    /// The on-disk format is pinned: the frame `publish_fields` appends
    /// from borrowed parts, and the segment entry compaction writes for
    /// the same object, are byte for byte the frame of the owned record.
    #[test]
    fn frames_from_borrowed_parts_equal_the_owned_records() {
        use crate::fsio::encode_frame;
        use crate::segment::SEG_MAGIC;
        use crate::wal::WAL_MAGIC;
        let d = dir("pinned");
        let mut store = DurableRepository::open(&d, DurableOptions::default()).unwrap();
        let doc = Document::parse(
            "<track><title>ΣΟΦΟΣ  Song</title><artist a='1'>Band &amp; 7</artist></track>",
        )
        .unwrap();
        let fields = Repository::extract_fields(&doc, &paths());
        let owned = WalRecord::Publish {
            community: "tracks".into(),
            xml: doc.to_xml_string(),
            fields: fields.clone(),
            prep: prepare_fields(&fields),
        };
        let (mut payload, mut frame) = (Vec::new(), Vec::new());
        encode_record(&owned, &mut payload);
        encode_frame(&payload, &mut frame);
        store.publish_fields("tracks", doc, fields).unwrap();
        let wal = std::fs::read(d.join(Manifest::wal_name(0))).unwrap();
        assert_eq!(wal[..WAL_MAGIC.len()], WAL_MAGIC[..]);
        assert_eq!(wal[WAL_MAGIC.len()..], frame[..]);
        store.compact().unwrap();
        let seg = std::fs::read(d.join(Manifest::segment_name(1))).unwrap();
        assert_eq!(seg[..SEG_MAGIC.len()], SEG_MAGIC[..]);
        assert_eq!(seg[SEG_MAGIC.len()..SEG_MAGIC.len() + 4], 1u32.to_le_bytes());
        assert_eq!(seg[SEG_MAGIC.len() + 4..], frame[..]);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn recover_rejects_non_durable_dir() {
        let d = dir("nonstore");
        std::fs::create_dir_all(&d).unwrap();
        assert!(matches!(DurableRepository::recover(&d), Err(StoreError::Corrupt(_))));
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn republish_same_object_stays_idempotent_through_recovery() {
        let d = dir("idem");
        let mut store = DurableRepository::open(&d, DurableOptions::default()).unwrap();
        let a = store.publish_xml("tracks", &track(1), &paths()).unwrap();
        let b = store.publish_xml("tracks", &track(1), &paths()).unwrap();
        assert_eq!(a, b);
        assert_eq!(store.repository().len(), 1);
        drop(store);
        let (repo, report) = DurableRepository::recover(&d).unwrap();
        assert_eq!(repo.len(), 1);
        assert_eq!(report.wal_records, 2);
        std::fs::remove_dir_all(&d).unwrap();
    }
}
