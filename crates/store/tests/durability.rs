//! Crash-injection and corruption tests for the durable store.
//!
//! The harness runs a fixed publish/remove workload against a
//! [`DurableRepository`] mounted on [`FailFs`], which kills the
//! filesystem at a chosen total byte offset — the write that crosses the
//! budget is torn at exactly that byte and every later operation fails,
//! leaving the directory the way a power cut would. Recovery then runs
//! over the real filesystem, and the recovered repository must equal the
//! in-memory oracle after some exact prefix of the attempted operations:
//! at least every acknowledged one, at most one more (a record can be
//! fully written while its fsync acknowledgment is lost). Nothing in
//! between — no half-visible record — and never a panic.

use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::Arc;
use up2p_store::{
    DurableOptions, DurableRepository, FailFs, Query, RealFs, Repository, ResourceId, StoreError,
    StoreFs, StoreWriter, SyncPolicy,
};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir()
        .join(format!("up2p-durability-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// One step of the workload. `Remove(sel)` targets `ids[sel % ids.len()]`
/// among the ids published so far (a no-op when it was already removed),
/// so the same op list is replayable against the oracle and the store.
#[derive(Debug, Clone, Copy)]
enum Op {
    Publish(u32),
    Remove(usize),
}

fn xml_for(n: u32) -> String {
    format!(
        "<track><title>Crash Test Song {n}</title><artist>The Torn Writes {}</artist>\
         <genre>genre{}</genre></track>",
        n % 5,
        n % 3
    )
}

fn index_paths() -> Vec<String> {
    vec!["track/title".into(), "track/artist".into(), "track/genre".into()]
}

/// The oracle: the first `upto` ops applied to a plain in-memory
/// repository (no WAL, no crash).
fn oracle(ops: &[Op], upto: usize) -> Repository {
    let mut repo = Repository::new();
    let mut ids = Vec::new();
    for op in &ops[..upto] {
        match op {
            Op::Publish(n) => {
                ids.push(repo.insert_xml("tracks", &xml_for(*n), &index_paths()).expect("valid xml"));
            }
            Op::Remove(sel) => {
                if !ids.is_empty() {
                    repo.remove(&ids[sel % ids.len()].clone());
                }
            }
        }
    }
    repo
}

/// Applies one op to the durable store; `ids` is every id published so
/// far, in order (what `Remove` selects from).
fn apply_op(store: &mut DurableRepository, ids: &mut Vec<ResourceId>, op: Op) -> Result<(), StoreError> {
    match op {
        Op::Publish(n) => store.publish_xml("tracks", &xml_for(n), &index_paths()).map(|id| ids.push(id)),
        Op::Remove(_) if ids.is_empty() => Ok(()),
        Op::Remove(sel) => {
            let id = ids[sel % ids.len()].clone();
            store.remove(&id).map(|_| ())
        }
    }
}

/// Applies ops to the durable store until the first injected failure,
/// returning how many were acknowledged.
fn apply_until_crash(store: &mut DurableRepository, ops: &[Op]) -> usize {
    let mut ids = Vec::new();
    ops.iter().position(|&op| apply_op(store, &mut ids, op).is_err()).unwrap_or(ops.len())
}

fn probe_queries() -> Vec<Query> {
    vec![
        Query::any_keyword("crash"),
        Query::any_keyword("torn"),
        Query::keyword("genre", "genre1"),
        Query::eq("artist", "the torn writes 2"),
        Query::and([Query::any_keyword("song"), Query::keyword("genre", "genre0")]),
        Query::All,
    ]
}

/// Structural + behavioral equality between a recovered repository and
/// an oracle state. `approx_bytes` is deliberately excluded: the
/// oracle's interner retains strings from removed objects that a
/// recovered index never saw.
fn same_state(recovered: &Repository, expect: &Repository) -> bool {
    if recovered.len() != expect.len() {
        return false;
    }
    type ObjectDump = Vec<(String, String, String, Vec<(String, String)>)>;
    let dump = |r: &Repository| -> ObjectDump {
        r.iter()
            .map(|o| (o.id.to_string(), o.community.clone(), o.xml.clone(), o.fields.to_vec()))
            .collect()
    };
    if dump(recovered) != dump(expect) {
        return false;
    }
    let (a, b) = (recovered.index_stats(), expect.index_stats());
    if (a.objects, a.fields, a.token_postings, a.exact_postings)
        != (b.objects, b.fields, b.token_postings, b.exact_postings)
    {
        return false;
    }
    probe_queries().iter().all(|q| {
        let hits = |r: &Repository| -> Vec<String> {
            r.search(None, q).iter().map(|o| o.id.to_string()).collect()
        };
        hits(recovered) == hits(expect)
    })
}

/// Runs the workload with the filesystem set to die after `budget`
/// bytes, recovers, and asserts the recovered state is an exact op
/// prefix covering at least every acknowledged op.
fn run_kill_case(ops: &[Op], budget: u64, opts: DurableOptions, tag: &str) {
    let dir = fresh_dir(tag);
    let fs = FailFs::new(budget);
    let opened = DurableRepository::open_with_fs(Box::new(fs.clone()), &dir, opts);
    let acked = match opened {
        Ok(mut store) => apply_until_crash(&mut store, ops),
        Err(_) => {
            // died during initialization: either no manifest was
            // committed yet (recover refuses, cleanly) or an empty
            // generation was — both mean zero ops
            if let Ok((repo, _)) = DurableRepository::recover(&dir) {
                assert!(
                    same_state(&repo, &Repository::new()),
                    "budget {budget}: init crash must recover empty"
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
            return;
        }
    };
    let (recovered, report) = DurableRepository::recover(&dir)
        .unwrap_or_else(|e| panic!("budget {budget}: committed store failed recovery: {e}"));
    let attempted = (acked + 1).min(ops.len());
    let matched = (acked..=attempted).find(|&k| same_state(&recovered, &oracle(ops, k)));
    assert!(
        matched.is_some(),
        "budget {budget}: recovered {} objects (report {report:?}) matches no op prefix in \
         [{acked}, {attempted}]",
        recovered.len(),
    );
    // reopening read-write over the crash scar must also work, truncate
    // the torn tail and accept new appends
    let mut reopened = DurableRepository::open(&dir, DurableOptions::default())
        .unwrap_or_else(|e| panic!("budget {budget}: reopen failed: {e}"));
    let id = reopened
        .publish_xml("tracks", &xml_for(9_999), &index_paths())
        .unwrap_or_else(|e| panic!("budget {budget}: append after recovery failed: {e}"));
    drop(reopened);
    let (after, _) = DurableRepository::recover(&dir).expect("recover after append");
    assert!(after.contains(&id), "budget {budget}: post-recovery append lost");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The fixed workload the deterministic offset sweeps use: 36 publishes
/// interleaved with removes, including republished duplicates.
fn sweep_ops() -> Vec<Op> {
    let mut ops = Vec::new();
    for n in 0..36u32 {
        ops.push(Op::Publish(n % 30)); // %30 → six republished duplicates
        if n % 3 == 2 {
            ops.push(Op::Remove((n as usize) * 7 + 1));
        }
    }
    ops
}

/// Total bytes the workload writes when nothing fails, so kill offsets
/// can be chosen to land inside it.
fn measure_total_bytes(ops: &[Op], opts: DurableOptions, tag: &str) -> u64 {
    let dir = fresh_dir(tag);
    let fs = FailFs::unlimited();
    let mut store =
        DurableRepository::open_with_fs(Box::new(fs.clone()), &dir, opts).expect("open");
    assert_eq!(apply_until_crash(&mut store, ops), ops.len());
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    fs.bytes_written()
}

#[test]
fn crash_recovery_sweep_over_100_wal_offsets() {
    let ops = sweep_ops();
    let opts = DurableOptions { sync: SyncPolicy::EveryRecord, compact_every: None };
    let total = measure_total_bytes(&ops, opts, "measure-wal");
    let offsets: BTreeSet<u64> = (0..=105u64).map(|i| i * total / 105).collect();
    assert!(offsets.len() > 100, "workload too small to pick 100+ distinct offsets");
    for budget in offsets {
        run_kill_case(&ops, budget, opts, "sweep-wal");
    }
}

#[test]
fn crash_recovery_sweep_through_compactions() {
    // auto-compaction every 7 records: kills land inside segment writes,
    // WAL swaps and manifest renames, not just WAL appends
    let ops = sweep_ops();
    let opts = DurableOptions { sync: SyncPolicy::EveryRecord, compact_every: Some(7) };
    let total = measure_total_bytes(&ops, opts, "measure-compact");
    for i in 0..=40u64 {
        run_kill_case(&ops, i * total / 40, opts, "sweep-compact");
    }
}

proptest! {
    /// Random workloads, random kill offset, batched sync policies:
    /// recovery always lands on an exact op prefix.
    #[test]
    fn random_workload_recovers_to_exact_prefix(
        raw_ops in prop::collection::vec((0u32..40, 0usize..64, any::<bool>()), 4..40),
        kill_num in 1u64..96,
        policy in 0u8..3,
        compact_every in prop_oneof![Just(None), (2usize..9).prop_map(Some)],
    ) {
        let ops: Vec<Op> = raw_ops
            .iter()
            .map(|&(n, sel, publish)| if publish { Op::Publish(n) } else { Op::Remove(sel) })
            .collect();
        let sync = match policy {
            0 => SyncPolicy::EveryRecord,
            1 => SyncPolicy::EveryN(4),
            _ => SyncPolicy::Manual,
        };
        let opts = DurableOptions { sync, compact_every };
        let total = measure_total_bytes(&ops, opts, "prop-measure");
        run_kill_case(&ops, kill_num * total / 96, opts, "prop-kill");
    }

    /// Recovery admits the folded log one object at a time, as a live
    /// publish does. A random history in which one id is published into
    /// the segment (a compaction follows), then published again in the
    /// WAL, removed and republished, recovers to the sequential oracle.
    #[test]
    fn recovery_of_a_republished_history_equals_the_sequential_oracle(
        head in prop::collection::vec((0u32..6, 0usize..16, any::<bool>()), 0..10),
        tail in prop::collection::vec((0u32..6, 0usize..16, any::<bool>()), 0..14),
        k in 0u32..6,
    ) {
        let op = |&(n, sel, publish): &(u32, usize, bool)| if publish { Op::Publish(n) } else { Op::Remove(sel) };
        let mut ops: Vec<Op> = head.iter().map(op).collect();
        // `Remove(k_at)` selects the publish of `k` pushed next
        let k_at = ops.iter().filter(|op| matches!(op, Op::Publish(_))).count();
        ops.push(Op::Publish(k));
        let segment_ops = ops.len();
        ops.extend([Op::Publish(k), Op::Remove(k_at), Op::Publish(k)]);
        ops.extend(tail.iter().map(op));

        let dir = fresh_dir("prop-republish");
        let opts = DurableOptions { sync: SyncPolicy::Manual, compact_every: None };
        let mut store = DurableRepository::open(&dir, opts).expect("open");
        let mut ids = Vec::new();
        for (i, &op) in ops.iter().enumerate() {
            if i == segment_ops {
                store.compact().expect("compact");
            }
            apply_op(&mut store, &mut ids, op).expect("no fault injected");
        }
        store.sync().expect("sync");
        let (recovered, report) = DurableRepository::recover(&dir).expect("recover");
        prop_assert!(report.segment_objects >= 1 && report.wal_records >= 3, "{:?}", report);
        prop_assert!(same_state(&recovered, &oracle(&ops, ops.len())));
        prop_assert!(same_state(&recovered, store.repository()));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn wal_bitflips_and_truncations_recover_a_prefix_without_panicking() {
    let dir = fresh_dir("wal-corrupt");
    let n_ops = 10usize;
    {
        let mut store = DurableRepository::open(&dir, DurableOptions::default()).expect("open");
        for n in 0..n_ops as u32 {
            store.publish_xml("tracks", &xml_for(n), &index_paths()).expect("publish");
        }
    }
    let wal_path = std::fs::read_dir(&dir)
        .expect("dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "log"))
        .expect("wal file");
    let pristine = std::fs::read(&wal_path).expect("read wal");
    let oracle_states: Vec<Repository> = (0..=n_ops)
        .map(|k| oracle(&(0..n_ops as u32).map(Op::Publish).collect::<Vec<_>>(), k))
        .collect();
    let positions: Vec<usize> =
        (0..pristine.len()).filter(|i| *i < 24 || i % 7 == 0).collect();
    for &i in &positions {
        // single byte flip: recovery stops at the damaged frame and
        // yields an exact publish prefix
        let mut bad = pristine.clone();
        bad[i] ^= 0x10;
        std::fs::write(&wal_path, &bad).expect("write");
        let (repo, report) = DurableRepository::recover(&dir).expect("flip must not error");
        assert!(
            oracle_states.iter().any(|o| same_state(&repo, o)),
            "flip at byte {i}: {} objects is not a clean prefix", repo.len()
        );
        assert!(report.wal_records <= n_ops);
        // truncation at the same point: also a clean prefix
        std::fs::write(&wal_path, &pristine[..i]).expect("write");
        let (repo, _) = DurableRepository::recover(&dir).expect("truncation must not error");
        assert!(
            oracle_states.iter().any(|o| same_state(&repo, o)),
            "truncation at byte {i}: {} objects is not a clean prefix", repo.len()
        );
    }
    // undamaged log still recovers everything
    std::fs::write(&wal_path, &pristine).expect("restore");
    let (repo, report) = DurableRepository::recover(&dir).expect("pristine");
    assert!(same_state(&repo, &oracle_states[n_ops]));
    assert_eq!(report.torn_bytes, 0);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn segment_corruption_is_detected_never_papered_over() {
    let dir = fresh_dir("seg-corrupt");
    {
        let mut store = DurableRepository::open(&dir, DurableOptions::default()).expect("open");
        for n in 0..8u32 {
            store.publish_xml("tracks", &xml_for(n), &index_paths()).expect("publish");
        }
        store.compact().expect("compact");
    }
    let seg_path = std::fs::read_dir(&dir)
        .expect("dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "up2p"))
        .expect("segment file");
    let pristine = std::fs::read(&seg_path).expect("read segment");
    // a committed segment is load-bearing: any flip or truncation must
    // surface as Corrupt (silently dropping compacted objects would lose
    // acknowledged data), and must never panic
    for i in (0..pristine.len()).step_by(11).chain([0, 3, 8, pristine.len() - 1]) {
        let mut bad = pristine.clone();
        bad[i] ^= 0x08;
        std::fs::write(&seg_path, &bad).expect("write");
        assert!(
            matches!(DurableRepository::recover(&dir), Err(StoreError::Corrupt(_))),
            "flip at segment byte {i} went undetected"
        );
        std::fs::write(&seg_path, &pristine[..i]).expect("write");
        assert!(
            matches!(DurableRepository::recover(&dir), Err(StoreError::Corrupt(_))),
            "truncation at segment byte {i} went undetected"
        );
    }
    std::fs::write(&seg_path, &pristine).expect("restore");
    let (repo, _) = DurableRepository::recover(&dir).expect("pristine segment");
    assert_eq!(repo.len(), 8);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn corrupt_manifest_refuses_cleanly() {
    let dir = fresh_dir("manifest-corrupt");
    {
        let mut store = DurableRepository::open(&dir, DurableOptions::default()).expect("open");
        store.publish_xml("tracks", &xml_for(0), &index_paths()).expect("publish");
    }
    std::fs::write(dir.join("MANIFEST"), "up2p-manifest 999\nnope\n").expect("write");
    assert!(matches!(DurableRepository::recover(&dir), Err(StoreError::Corrupt(_))));
    assert!(matches!(
        DurableRepository::open(&dir, DurableOptions::default()),
        Err(StoreError::Corrupt(_))
    ));
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// A filesystem with one transient fault (a single `ENOSPC`, not a dead
/// process): of all writes to WAL files, the one reached after
/// `good_writes` others lands half its buffer and fails; every write
/// before and after it works.
#[derive(Debug)]
struct TearOnceFs {
    good_writes: Arc<AtomicIsize>,
}

#[derive(Debug)]
struct TearOnceWriter {
    inner: Box<dyn StoreWriter>,
    good_writes: Arc<AtomicIsize>,
}

impl std::io::Write for TearOnceWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.good_writes.fetch_sub(1, Ordering::SeqCst) == 0 {
            self.inner.write_all(&buf[..buf.len() / 2])?;
            return Err(std::io::Error::other("injected: no space left on device"));
        }
        self.inner.write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

impl StoreWriter for TearOnceWriter {
    fn sync(&mut self) -> std::io::Result<()> {
        self.inner.sync()
    }
}

impl TearOnceFs {
    fn wrap(&self, path: &std::path::Path, inner: Box<dyn StoreWriter>) -> Box<dyn StoreWriter> {
        let is_wal = path.extension().is_some_and(|e| e == "log");
        if is_wal {
            Box::new(TearOnceWriter { inner, good_writes: Arc::clone(&self.good_writes) })
        } else {
            inner
        }
    }
}

impl StoreFs for TearOnceFs {
    fn create(&self, path: &std::path::Path) -> std::io::Result<Box<dyn StoreWriter>> {
        Ok(self.wrap(path, RealFs.create(path)?))
    }
    fn append_truncated(
        &self,
        path: &std::path::Path,
        len: u64,
    ) -> std::io::Result<Box<dyn StoreWriter>> {
        Ok(self.wrap(path, RealFs.append_truncated(path, len)?))
    }
    fn rename(&self, from: &std::path::Path, to: &std::path::Path) -> std::io::Result<()> {
        RealFs.rename(from, to)
    }
    fn remove_file(&self, path: &std::path::Path) -> std::io::Result<()> {
        RealFs.remove_file(path)
    }
    fn sync_dir(&self, dir: &std::path::Path) -> std::io::Result<()> {
        RealFs.sync_dir(dir)
    }
}

#[test]
fn failed_append_poisons_the_wal_until_reopen() {
    let dir = fresh_dir("poison");
    // WAL writes: the magic header, a's frame, then b's frame is torn
    let fs = TearOnceFs { good_writes: Arc::new(AtomicIsize::new(2)) };
    let mut store = DurableRepository::open_with_fs(Box::new(fs), &dir, DurableOptions::default())
        .expect("open");
    let publish = |store: &mut DurableRepository, n: u32| {
        store.publish_xml("tracks", &xml_for(n), &index_paths())
    };
    let a = publish(&mut store, 0).expect("a is acknowledged");
    assert!(publish(&mut store, 1).is_err(), "b's frame is torn");
    // the writer works again, but replay stops at b's torn frame: a frame
    // written behind it would be acknowledged and then lost
    assert!(publish(&mut store, 2).is_err(), "c must not be acknowledged behind a torn frame");
    assert!(store.sync().is_err());
    assert!(store.remove(&a).is_err());
    // reads keep working, and nothing unacknowledged became visible
    assert_eq!(store.repository().len(), 1);
    assert!(store.repository().contains(&a));
    drop(store);

    let mut store = DurableRepository::open(&dir, DurableOptions::default())
        .expect("reopening truncates the torn tail");
    assert_eq!(store.repository().len(), 1);
    publish(&mut store, 2).expect("c is acknowledged after the reopen");
    drop(store);
    let (repo, report) = DurableRepository::recover(&dir).expect("recover");
    assert_eq!((report.wal_records, report.torn_bytes), (2, 0));
    assert!(same_state(&repo, &oracle(&[Op::Publish(0), Op::Publish(2)], 2)));
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
