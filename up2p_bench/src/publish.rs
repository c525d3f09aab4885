//! `author_publish`: the write path. An op is `Servent::create_object`,
//! `Servent::publish` and a durable ack on a harness-owned store beside
//! the servent. The traced phase replays each op decomposed — the same
//! public functions the servent calls, in the same order, one span each —
//! and checks the decomposed path against the servent call.

use crate::countfs::{dir_bytes, fs_type_of, CountingFs, FsCounters, FsSnapshot};
use crate::gen::{self, PublishOp};
use crate::harness::{BlockStats, Config, Layers, MsgCount, Workload};
use crate::metrics::Json;
use crate::oracle::Tally;
use crate::trace::Tracer;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use up2p_core::stylesheets::StylesheetCache;
use up2p_core::{Community, CoreError, FormKind, FormModel, PayloadPlane, Servent, SharedObject};
use up2p_net::{build_network, PeerId, PeerNetwork, ProtocolKind, ResourceRecord, SharedFields};
use up2p_store::{
    prepare_fields, DurableOptions, DurableRepository, MetadataIndex, Query, Repository,
    ResourceId, SyncPolicy,
};
use up2p_xml::{Document, XPath};

const BLOCK_OPS: usize = 8_000;
const WARMUP_OPS: usize = 2_000;
const NET_PEERS: usize = 64;
const AUTHOR: PeerId = PeerId(1);
const READER: PeerId = PeerId(2);
/// The durable store fsyncs once per this many acknowledged publishes.
const SYNC_EVERY: usize = 1_024;
/// Published objects whose findability over the network is checked
/// after each block.
const FINDABLE_CHECKS: usize = 256;

type Net = Box<dyn PeerNetwork + Send>;

/// A durable store on the counting file system.
struct Store {
    repo: DurableRepository,
    fs: Arc<FsCounters>,
    dir: PathBuf,
}

impl Drop for Store {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Store {
    fn open(dir: PathBuf) -> Store {
        let _ = std::fs::remove_dir_all(&dir);
        let fs = CountingFs::default();
        let counters = Arc::clone(&fs.counters);
        let opts = DurableOptions {
            sync: SyncPolicy::EveryN(SYNC_EVERY),
            compact_every: None,
        };
        let repo = DurableRepository::open_with_fs(Box::new(fs), &dir, opts)
            .expect("the scratch directory is writable");
        Store {
            repo,
            fs: counters,
            dir,
        }
    }

    /// The durable ack of one publish: tokenize, append to the WAL,
    /// insert. ROADMAP item 5a moves this inside `Servent`; until then it
    /// is this one function.
    fn ack(&mut self, object: &SharedObject, fields: SharedFields) -> bool {
        self.repo
            .publish_fields(&object.community_id, object.doc.clone(), fields)
            .is_ok()
    }
}

/// What a servent's publish touches, owned by the harness.
struct Fabric {
    net: Net,
    plane: PayloadPlane,
    store: Store,
}

impl Fabric {
    fn new(dir: PathBuf) -> Fabric {
        Fabric {
            net: build_network(ProtocolKind::Napster, NET_PEERS, gen::OVERLAY_SEED),
            plane: PayloadPlane::new(),
            store: Store::open(dir),
        }
    }
}

/// The servent's side of a block.
struct World {
    servent: Servent,
    fabric: Fabric,
}

/// The decomposed twin: the servent's private state spelled out.
struct Shadow {
    repo: Repository,
    fabric: Fabric,
}

/// Harness-owned index for the unit-cost probes.
#[derive(Default)]
struct ProbeIndex {
    index: MetadataIndex,
    ids: VecDeque<ResourceId>,
}

pub struct AuthorPublish {
    communities: Vec<Community>,
    world: Option<World>,
    shadow: Option<Shadow>,
    probe: ProbeIndex,
    /// WAL traffic and acknowledged ops over the traced blocks.
    wal: FsSnapshot,
    wal_ops: u64,
    /// XML bytes the latest traced block stored (its store directory is
    /// the one still on disk).
    user_bytes: u64,
    token_passes: u64,
    style_lookups: u64,
    style_entries_before: usize,
}

fn str_pairs<'a>(values: &'a [(&'static str, String)]) -> Vec<(&'a str, &'a str)> {
    values.iter().map(|(k, v)| (*k, v.as_str())).collect()
}

/// `Servent::publish`'s field extraction: the community's index
/// stylesheet when it has one, native extraction otherwise.
pub fn index_fields(
    community: &Community,
    doc: &Document,
    t: &mut Tracer,
) -> Result<Vec<(String, String)>, CoreError> {
    let Some(xslt) = &community.index_style else {
        let paths = t.span("schema.indexed_paths", || community.indexed_paths());
        return Ok(t.span("store.extract_fields", || {
            Repository::extract_fields(doc, &paths)
        }));
    };
    let id = t.begin("core.index_style");
    let fields = StylesheetCache::global().get(xslt).and_then(|sheet| {
        let result = t.span("xslt.apply", || sheet.apply(doc))?;
        let mut out = Vec::new();
        if let Some(root) = result.document_element() {
            for field in result.children_named(root, "field") {
                let value = result.text_content(field);
                if let (Some(path), false) = (result.attr(field, "path"), value.trim().is_empty()) {
                    out.push((path.to_string(), value.trim().to_string()));
                }
            }
        }
        Ok(out)
    });
    t.end(id);
    fields
}

/// `Servent::publish` after extraction: local insert, payload plane,
/// network announce.
pub fn publish_decomposed(
    repo: &mut Repository,
    net: &mut dyn PeerNetwork,
    plane: &mut PayloadPlane,
    peer: PeerId,
    object: &SharedObject,
    fields: SharedFields,
    t: &mut Tracer,
) {
    let doc = t.span("xml.clone", || object.doc.clone());
    let shared = SharedFields::clone(&fields);
    t.span("store.repo_insert", || {
        repo.insert_with_fields(&object.community_id, doc, shared)
    });
    t.span("core.payload_put", || plane.put(object));
    let record = ResourceRecord {
        key: object.key.clone(),
        community: object.community_id.clone(),
        fields,
    };
    t.span("net.publish", || net.publish(peer, record));
}

impl Shadow {
    /// One op, decomposed. Returns the object key and indexed fields.
    fn op(
        &mut self,
        community: &Community,
        values: &[(&str, &str)],
        t: &mut Tracer,
    ) -> Result<(String, SharedFields), CoreError> {
        // Servent::create_object
        let form = t.span("core.form_derive", || {
            FormModel::derive(community, FormKind::Create)
        });
        let doc = t.span("core.form_fill", || {
            form.fill(community.object_root_name(), values)
        })?;
        t.span("schema.validate", || community.validate(&doc))?;
        let xml = t.span("xml.serialize", || doc.to_xml_string());
        let key = t.span("store.resource_id", || {
            ResourceId::for_object(&community.id, &xml).to_string()
        });
        let object = SharedObject {
            key,
            community_id: community.id.clone(),
            doc,
            attachments: Vec::new(),
        };
        // Servent::publish
        let fields: SharedFields = index_fields(community, &object.doc, t)?.into();
        let Fabric { net, plane, store } = &mut self.fabric;
        publish_decomposed(
            &mut self.repo,
            &mut **net,
            plane,
            AUTHOR,
            &object,
            SharedFields::clone(&fields),
            t,
        );
        // the durable ack
        let acked = t.span("store.durable_publish", || {
            store.ack(&object, SharedFields::clone(&fields))
        });
        if !acked {
            return Err(CoreError::Unavailable("durable store".to_string()));
        }
        Ok((object.key, fields))
    }
}

impl World {
    fn new(communities: &[Community], dir: PathBuf) -> World {
        let mut servent = Servent::new(AUTHOR);
        for c in communities {
            servent.join(c.clone());
        }
        World {
            servent,
            fabric: Fabric::new(dir),
        }
    }

    /// One op through the servent. Returns the object key.
    fn op(&mut self, community: &Community, values: &[(&str, &str)]) -> Result<String, CoreError> {
        let object = self.servent.create_object(&community.id, values)?;
        let Fabric { net, plane, store } = &mut self.fabric;
        let key = self.servent.publish(&mut **net, plane, &object)?;
        let stored = self
            .servent
            .repository()
            .get(&ResourceId::from_key(&key))
            .ok_or_else(|| CoreError::Unavailable(format!("object {key}")))?;
        if !store.ack(&object, SharedFields::clone(&stored.fields)) {
            return Err(CoreError::Unavailable("durable store".to_string()));
        }
        Ok(key)
    }

    /// After a block: every op's object must be in the servent's
    /// repository and in the durable store, and a sample must be findable
    /// over the network by its unique word. Returns the XML bytes stored.
    fn verify(
        &mut self,
        communities: &[Community],
        ops: &[PublishOp],
        keys: &[Option<String>],
        tally: &mut Tally,
    ) -> u64 {
        let stride = ops.len().div_ceil(FINDABLE_CHECKS).max(1);
        let mut user_bytes = 0;
        for (i, (op, key)) in ops.iter().zip(keys).enumerate() {
            let Some(key) = key else {
                tally.op(false);
                continue;
            };
            let id = ResourceId::from_key(key);
            let stored = self.servent.repository().get(&id);
            user_bytes += stored.map_or(0, |s| s.xml.len() as u64);
            let mut ok = stored.is_some() && self.fabric.store.repo.repository().contains(&id);
            if ok && i % stride == 0 {
                let community = &communities[op.community];
                let field = op.values[0].0;
                let found = self.fabric.net.search(
                    READER,
                    &community.id,
                    &Query::keyword(field, &op.probe),
                );
                ok = found.hits.len() == 1 && found.hits[0].key == *key;
            }
            tally.op(ok);
        }
        user_bytes
    }
}

impl AuthorPublish {
    /// A store directory of this process's own, so concurrent runs of
    /// the benchmark never share one.
    fn dir(cfg: &Config, name: &str) -> PathBuf {
        cfg.scratch
            .join("tmp")
            .join(format!("{name}-{}", std::process::id()))
    }

    /// Unit-cost probes on the object a traced op just published.
    fn probes(
        &mut self,
        op: &PublishOp,
        key: &str,
        fields: &SharedFields,
        xml: &str,
        t: &mut Tracer,
    ) {
        let id = ResourceId::from_key(key);
        let prep = t.span("store.tokenize", || prepare_fields(fields));
        let p = &mut self.probe;
        t.span("store.index_insert", || {
            p.index
                .insert_tokenized(id.clone(), SharedFields::clone(fields), &prep)
        });
        p.ids.push_back(id);
        if p.ids.len().is_multiple_of(16) {
            let query = Query::keyword(op.values[0].0, &op.probe);
            let found = t.span("store.index_query", || p.index.execute(&query));
            std::hint::black_box(found.len());
            if let Some(oldest) = p.ids.pop_front() {
                t.span("store.index_remove", || p.index.remove(&oldest));
            }
        }
        let parsed = t.span("xml.parse", || Document::parse(xml));
        if let Ok(doc) = parsed {
            let truthy = t.span("xml.xpath", || {
                XPath::parse("count(/*/*) > 2")
                    .ok()
                    .and_then(|xp| xp.eval_root(&doc).ok())
            });
            std::hint::black_box(truthy.is_some());
        }
    }
}

impl Workload for AuthorPublish {
    const NAME: &'static str = "author_publish";

    fn setup(cfg: &Config) -> Self {
        let communities = gen::object_communities();
        let mut world = World::new(&communities, Self::dir(cfg, "warmup"));
        for op in gen::publish_ops(cfg.seed, u32::MAX, cfg.scaled(WARMUP_OPS, 20)) {
            let _ = world.op(&communities[op.community], &str_pairs(&op.values));
        }
        AuthorPublish {
            communities,
            world: None,
            shadow: None,
            probe: ProbeIndex::default(),
            wal: FsSnapshot::default(),
            wal_ops: 0,
            user_bytes: 0,
            token_passes: 0,
            style_lookups: 0,
            style_entries_before: StylesheetCache::global().len(),
        }
    }

    fn block(
        &mut self,
        cfg: &Config,
        block: u32,
        mut tracer: Option<&mut Tracer>,
        tally: &mut Tally,
    ) -> BlockStats {
        // fresh world per block; the previous one goes first so two
        // never count toward peak RSS
        drop(self.world.take());
        drop(self.shadow.take());
        let mut world = World::new(&self.communities, Self::dir(cfg, "servent"));
        let mut shadow = tracer.is_some().then(|| Shadow {
            repo: Repository::new(),
            fabric: Fabric::new(Self::dir(cfg, "shadow")),
        });
        let ops = gen::publish_ops(cfg.seed, block, cfg.scaled(BLOCK_OPS, 40));
        let stats_before = world.fabric.net.stats().clone();
        let fs_before = world.fabric.store.fs.snapshot();
        let mut op_ns = Vec::with_capacity(ops.len());
        let mut keys = Vec::with_capacity(ops.len());
        for op in &ops {
            let community = &self.communities[op.community];
            let values = str_pairs(&op.values);
            let (Some(t), Some(shadow)) = (tracer.as_deref_mut(), shadow.as_mut()) else {
                let started = Instant::now();
                let key = world.op(community, &values);
                op_ns.push(started.elapsed().as_nanos() as u64);
                keys.push(key.ok());
                continue;
            };
            let passes_before = up2p_store::token_passes();
            let root = t.begin_op();
            let decomposed = shadow.op(community, &values, t);
            op_ns.push(t.end_op(root));
            self.token_passes += up2p_store::token_passes() - passes_before;
            // the same op through the servent: key and fields must agree
            let key = world.op(community, &values).ok();
            let agreed = match (&decomposed, &key) {
                (Ok((dkey, dfields)), Some(key)) => {
                    let stored = world.servent.repository().get(&ResourceId::from_key(key));
                    dkey == key && stored.is_some_and(|s| *s.fields == **dfields)
                }
                _ => false,
            };
            if let (true, Ok((dkey, dfields))) = (agreed, &decomposed) {
                self.style_lookups += u64::from(community.index_style.is_some());
                let xml = shadow
                    .repo
                    .get(&ResourceId::from_key(dkey))
                    .map(|s| s.xml.clone())
                    .unwrap_or_default();
                self.probes(op, dkey, dfields, &xml, t);
            }
            keys.push(key.filter(|_| agreed));
        }
        let msgs = MsgCount::delta(&stats_before, world.fabric.net.stats());
        let user_bytes = world.verify(&self.communities, &ops, &keys, tally);
        if tracer.is_some() {
            self.wal += world.fabric.store.fs.snapshot().since(&fs_before);
            self.wal_ops += ops.len() as u64;
            self.user_bytes = user_bytes;
        }
        self.world = Some(world);
        self.shadow = shadow;
        BlockStats::per_op(op_ns, msgs)
    }

    fn layers(&mut self, cfg: &Config, _tracer: &mut Tracer, tally: &mut Tally, out: &mut Layers) {
        let ops = self.wal_ops.max(1) as f64;
        out.insert("store.token_passes", self.token_passes as f64 / ops);
        out.insert("store.wal_append_us", self.wal.io_ns as f64 / 1e3 / ops);
        out.insert("store.wal_bytes_per_op", self.wal.bytes as f64 / ops);
        out.insert("store.wal_fsyncs_per_op", self.wal.syncs as f64 / ops);
        out.insert("store.wal_writes_per_op", self.wal.writes as f64 / ops);
        let cache = StylesheetCache::global().len();
        out.insert("core.style_cache.entries", cache as f64);
        let compiled = (cache - self.style_entries_before) as f64;
        out.insert(
            "core.style_cache.hit_ratio",
            1.0 - compiled / self.style_lookups.max(1) as f64,
        );
        let Some(world) = &mut self.world else { return };
        let store = &mut world.fabric.store;
        let index = store.repo.repository().index_stats();
        out.insert("store.index_bytes", index.approx_bytes as f64);
        out.insert("store.token_postings", index.token_postings as f64);
        out.insert(
            "store.disk_bytes_per_user_byte",
            dir_bytes(&store.dir) as f64 / self.user_bytes.max(1) as f64,
        );
        // the restart record: replay the block's WAL, compact it, then
        // snapshot the servent and load it back
        let _ = store.repo.sync();
        let started = Instant::now();
        let recovered = DurableRepository::recover(&store.dir);
        out.insert("store.recover_ms", started.elapsed().as_secs_f64() * 1e3);
        let started = Instant::now();
        let compacted = store.repo.compact();
        out.insert("store.compact_ms", started.elapsed().as_secs_f64() * 1e3);
        let state = Self::dir(cfg, "state");
        let _ = std::fs::remove_dir_all(&state);
        let started = Instant::now();
        let saved = world.servent.save_state(&state);
        out.insert("store.save_state_ms", started.elapsed().as_secs_f64() * 1e3);
        let restarted = saved.is_ok()
            && compacted.is_ok()
            && recovered.is_ok_and(|(repo, _)| repo.len() == store.repo.repository().len())
            && same_state(&world.servent, &state);
        let _ = std::fs::remove_dir_all(&state);
        tally.op(restarted);
    }

    fn info(&self) -> Json {
        let dir = self
            .world
            .as_ref()
            .map(|w| w.fabric.store.dir.clone())
            .unwrap_or_default();
        Json::obj([
            ("net", Json::Str(format!("Napster, {NET_PEERS} peers"))),
            ("communities", Json::Num(self.communities.len() as f64)),
            (
                "flush_policy",
                Json::Str(format!(
                    "SyncPolicy::EveryN({SYNC_EVERY}), no auto-compaction"
                )),
            ),
            ("store_dir", Json::Str(dir.display().to_string())),
            ("store_fs", Json::Str(fs_type_of(&dir))),
        ])
    }
}

/// Does the state saved under `dir` load back to what `servent` holds?
fn same_state(servent: &Servent, dir: &Path) -> bool {
    let Ok(loaded) = Servent::load_state(servent.peer(), dir) else {
        return false;
    };
    let ids = |s: &Servent| {
        let mut ids: Vec<String> = s.communities().map(|c| c.id.clone()).collect();
        ids.sort();
        ids
    };
    ids(&loaded) == ids(servent)
        && loaded.repository().len() == servent.repository().len()
        && loaded.repository().iter().all(|o| {
            servent
                .repository()
                .get(&o.id)
                .is_some_and(|mine| mine.xml == o.xml && mine.fields == o.fields)
        })
}
