//! `search_napster`, `search_flood`, `search_guided`: one client
//! searching the same 100 000-record track corpus over 2 000 peers on
//! the three substrates.

use crate::gen::{self, QuerySpec, SearchOp, SearchOpGen};
use crate::harness::{BlockStats, Config, Layers, MsgCount, Workload};
use crate::metrics::Json;
use crate::oracle::{Oracle, Tally};
use crate::trace::Tracer;
use std::marker::PhantomData;
use std::time::Instant;
use up2p_core::Servent;
use up2p_net::{
    build_network_with, DigestConfig, MsgKind, NetConfig, PeerId, PeerNetwork, ProtocolKind,
    ResourceRecord, SearchRequest, ShardedIndexNode, SharedFields,
};
use up2p_store::{parse_cmip, MetadataIndex, Query, ResourceId, ValuePattern};

const PEERS: usize = 2_000;
const RECORDS: usize = 100_000;
/// Ops of the warm-up pass at the end of set-up.
const WARMUP_OPS: usize = 64;

/// What differs between the three search workloads.
pub trait Substrate {
    const NAME: &'static str;
    const PROTOCOL: ProtocolKind;
    /// Digest-guided forwarding instead of the blind flood.
    const GUIDED: bool = false;
    /// Ops per block at scale 1, sized so a block takes about half a
    /// second.
    const BLOCK_OPS: usize;
    /// Writes per thousand ops, half publishes and half unpublishes.
    const WRITE_PERMILLE: usize = 0;
    /// Span around the servent's search call.
    const SEARCH_SPAN: &'static str;
}

pub struct Napster;
pub struct Flood;
pub struct Guided;

impl Substrate for Napster {
    const NAME: &'static str = "search_napster";
    const PROTOCOL: ProtocolKind = ProtocolKind::Napster;
    const BLOCK_OPS: usize = 8_000;
    const SEARCH_SPAN: &'static str = "net.napster.search";
}

impl Substrate for Flood {
    const NAME: &'static str = "search_flood";
    const PROTOCOL: ProtocolKind = ProtocolKind::Gnutella;
    const BLOCK_OPS: usize = 600;
    const SEARCH_SPAN: &'static str = "net.gnutella.search";
}

impl Substrate for Guided {
    const NAME: &'static str = "search_guided";
    const PROTOCOL: ProtocolKind = ProtocolKind::FastTrack;
    const GUIDED: bool = true;
    const BLOCK_OPS: usize = 4_000;
    const WRITE_PERMILLE: usize = 50;
    const SEARCH_SPAN: &'static str = "net.fasttrack.search";
}

/// Replicas the traced phase probes: the same records in a harness-owned
/// index node and metadata index, so one node's evaluation cost can be
/// timed apart from the substrate around it.
struct Probes {
    node: ShardedIndexNode,
    index: MetadataIndex,
    guards_before: u64,
    node_hits: u64,
    node_queries: u64,
}

pub struct SearchWorkload<S: Substrate> {
    net: Box<dyn PeerNetwork + Send>,
    /// One servent per online peer, by peer number.
    servents: Vec<Option<Servent>>,
    community: String,
    oracle: Oracle,
    ops: SearchOpGen,
    alive: Vec<bool>,
    probes: Option<Probes>,
    records: usize,
    digest_build_ms: f64,
    /// Searches of the first traced block, for the batch-serving
    /// comparison.
    batch: Vec<SearchRequest>,
    /// Timed writes and the digest messages the timed ops caused.
    writes: u64,
    digest_msgs: u64,
    /// Messages of the traced blocks, probes included.
    traced_msgs: u64,
    /// Servent search time minus the direct network search of the same
    /// query, summed over the probed ops.
    overhead_ns: i64,
    _substrate: PhantomData<S>,
}

/// Times `f`; when tracing, as an op whose one child span is `name`.
fn timed<R>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> (R, u64) {
    let Some(t) = tracer.as_deref_mut() else {
        let started = Instant::now();
        let out = f();
        return (out, started.elapsed().as_nanos() as u64);
    };
    let root = t.begin_op();
    let out = t.span(name, f);
    (out, t.end_op(root))
}

impl<S: Substrate> SearchWorkload<S> {
    /// Runs one op, then has the oracle judge it; returns the op's
    /// duration in nanoseconds.
    fn exec(&mut self, op: &SearchOp, mut tracer: Option<&mut Tracer>, tally: &mut Tally) -> u64 {
        let (net, community) = (&mut *self.net, &self.community);
        match op {
            SearchOp::Search { origin, spec } => {
                let (query, filter) = (spec.query(), spec.cmip_filter());
                let Some(servent) = &mut self.servents[*origin as usize] else {
                    tally.op(false);
                    return 0;
                };
                let (outcome, ns) = timed(&mut tracer, S::SEARCH_SPAN, || match &filter {
                    Some(f) => servent.search_cmip(net, community, f),
                    None => servent.search(net, community, &query),
                });
                match outcome {
                    Ok(out) => tally.search(self.oracle.judge(spec, &out.hits, true)),
                    Err(_) => tally.op(false),
                }
                ns
            }
            SearchOp::Publish {
                record,
                provider,
                track,
            } => {
                let record = ResourceRecord {
                    key: gen::track_key(*record),
                    community: community.clone(),
                    fields: self.oracle.publish(*record, *provider, track),
                };
                self.writes += 1;
                tally.op(true);
                timed(&mut tracer, "net.fasttrack.publish", || {
                    net.publish(PeerId(*provider), record)
                })
                .1
            }
            SearchOp::Unpublish { record, provider } => {
                let key = gen::track_key(*record);
                self.oracle.unpublish(*record);
                self.writes += 1;
                tally.op(true);
                timed(&mut tracer, "net.fasttrack.unpublish", || {
                    net.unpublish(PeerId(*provider), &key)
                })
                .1
            }
        }
    }

    /// Unit-cost probes after a traced search: the same query against
    /// the replica index node and metadata index, the CMIP parser, and
    /// (every eighth op of a read-only workload) the network without the
    /// servent in front. Returns the messages the probes sent.
    fn probe(
        &mut self,
        origin: u32,
        spec: &QuerySpec,
        nth: usize,
        op_ns: u64,
        tracer: &mut Tracer,
    ) -> u64 {
        let query = spec.query();
        if let Some(p) = &mut self.probes {
            let alive = &self.alive;
            let mut hits = 0u64;
            let id = tracer.begin("net.index_node.eval");
            p.node.search(
                &self.community,
                &query,
                |peer| alive[peer.index()],
                |_, _, _| hits += 1,
            );
            tracer.end(id);
            p.node_hits += hits;
            p.node_queries += 1;
            let mut matched = 0u64;
            let id = tracer.begin("store.index_query");
            p.index.for_each_match(&query, |_, _| matched += 1);
            tracer.end(id);
            if nth.is_multiple_of(16) {
                // what an `artistNN*` wildcard costs: no posting list
                // serves it, so the index scans every stored value
                let pattern = ValuePattern::from_wildcard(&format!("artist{:02}*", nth % 100));
                let wildcard = Query::Match {
                    field: "track/artist".to_string(),
                    pattern,
                };
                let id = tracer.begin("store.index_wildcard");
                p.index.for_each_match(&wildcard, |_, _| matched += 1);
                tracer.end(id);
            }
            std::hint::black_box(matched);
        }
        if let Some(filter) = spec.cmip_filter() {
            let parsed = tracer.span("store.cmip_parse", || parse_cmip(&filter));
            std::hint::black_box(parsed.is_ok());
        }
        if !nth.is_multiple_of(8) || S::WRITE_PERMILLE != 0 {
            return 0;
        }
        let (net, community) = (&mut self.net, &self.community);
        let started = Instant::now();
        let out = tracer.span("net.search_direct", || {
            net.search(PeerId(origin), community, &query)
        });
        self.overhead_ns += op_ns as i64 - started.elapsed().as_nanos() as i64;
        out.messages
    }
}

impl<S: Substrate> Workload for SearchWorkload<S> {
    const NAME: &'static str = S::NAME;

    fn setup(cfg: &Config) -> Self {
        let peers = cfg.scaled(PEERS, 16);
        let records = cfg.scaled(RECORDS, 200);
        let community = gen::track_community();
        let alive = gen::liveness(peers);
        let digests = if S::GUIDED {
            DigestConfig::guided()
        } else {
            DigestConfig::default()
        };
        let mut net = build_network_with(
            S::PROTOCOL,
            peers,
            gen::OVERLAY_SEED,
            &NetConfig::new().digests(digests),
        );
        let mut oracle = Oracle::new(peers);
        let mut probes = (cfg.trace && S::PROTOCOL == ProtocolKind::Napster).then(|| Probes {
            node: ShardedIndexNode::new(),
            index: MetadataIndex::new(),
            guards_before: 0,
            node_hits: 0,
            node_queries: 0,
        });
        for (i, track) in gen::track_corpus(cfg.seed, records).iter().enumerate() {
            let provider = (i % peers) as u32;
            let record = ResourceRecord {
                key: gen::track_key(i as u32),
                community: community.id.clone(),
                fields: oracle.publish(i as u32, provider, track),
            };
            if let Some(p) = &mut probes {
                p.node.insert(PeerId(provider), &record);
                p.index.insert_shared(
                    ResourceId::from_key(&record.key),
                    SharedFields::clone(&record.fields),
                );
            }
            net.publish(PeerId(provider), record);
        }
        for (p, &up) in alive.iter().enumerate() {
            if !up {
                net.set_alive(PeerId(p as u32), false);
                oracle.set_alive(p as u32, false);
            }
        }
        if let Some(p) = &mut probes {
            p.guards_before = p.node.write_guard_count();
        }
        // the first guided search builds the routing digests
        let started = Instant::now();
        if S::GUIDED {
            let online = alive.iter().position(|&up| up).unwrap_or(0);
            net.search(PeerId(online as u32), &community.id, &Query::All);
        }
        let digest_build_ms = started.elapsed().as_secs_f64() * 1e3;
        let servents = (0..peers as u32)
            .map(|p| {
                alive[p as usize].then(|| {
                    let mut servent = Servent::new(PeerId(p));
                    servent.join(community.clone());
                    servent
                })
            })
            .collect();
        let community_id = community.id;
        let ops = SearchOpGen::new(cfg.seed, records, &alive, S::WRITE_PERMILLE);
        let mut world = SearchWorkload {
            net,
            servents,
            community: community_id,
            oracle,
            ops,
            alive,
            probes,
            records,
            digest_build_ms,
            batch: Vec::new(),
            writes: 0,
            digest_msgs: 0,
            traced_msgs: 0,
            overhead_ns: 0,
            _substrate: PhantomData::<S>,
        };
        let mut warm_up = Tally::default();
        for op in world.ops.block(WARMUP_OPS) {
            world.exec(&op, None, &mut warm_up);
        }
        world.writes = 0;
        world.net.reset_stats();
        world
    }

    fn block(
        &mut self,
        cfg: &Config,
        _block: u32,
        mut tracer: Option<&mut Tracer>,
        tally: &mut Tally,
    ) -> BlockStats {
        let ops = self.ops.block(cfg.scaled(S::BLOCK_OPS, 20));
        if tracer.is_some() && self.batch.is_empty() {
            self.batch = ops
                .iter()
                .filter_map(|op| match op {
                    SearchOp::Search { origin, spec } => Some(SearchRequest::new(
                        PeerId(*origin),
                        self.community.clone(),
                        spec.query(),
                    )),
                    _ => None,
                })
                .collect();
        }
        let before = self.net.stats().clone();
        let mut probe_msgs = 0;
        let mut op_ns = Vec::with_capacity(ops.len());
        for (i, op) in ops.iter().enumerate() {
            let ns = self.exec(op, tracer.as_deref_mut(), tally);
            op_ns.push(ns);
            if let (Some(t), SearchOp::Search { origin, spec }) = (tracer.as_deref_mut(), op) {
                probe_msgs += self.probe(*origin, spec, i, ns, t);
            }
        }
        let mut msgs = MsgCount::delta(&before, self.net.stats());
        if tracer.is_some() {
            self.traced_msgs += msgs.total;
        }
        msgs.total -= probe_msgs;
        self.digest_msgs += msgs.by_kind[MsgKind::DigestPush as usize]
            + msgs.by_kind[MsgKind::DigestRequest as usize];
        BlockStats::per_op(op_ns, msgs)
    }

    fn layers(&mut self, _cfg: &Config, tracer: &mut Tracer, _tally: &mut Tally, out: &mut Layers) {
        let stats = tracer.stats();
        let search = stats.get(S::SEARCH_SPAN).copied().unwrap_or_default();
        let direct = stats.get("net.search_direct").copied().unwrap_or_default();
        if direct.calls > 0 {
            out.insert(
                "core.servent_overhead_us",
                self.overhead_ns as f64 / 1e3 / direct.calls as f64,
            );
        }
        // wall time of the traced searches over the messages the network
        // counted for them
        let net = self.net.stats();
        let ns_per_msg =
            (search.total_ns + direct.total_ns) as f64 / self.traced_msgs.max(1) as f64;
        match S::PROTOCOL {
            ProtocolKind::Gnutella => {
                out.insert("net.gnutella.ns_per_msg", ns_per_msg);
                out.insert("net.gnutella.msgs_per_query", net.messages_per_query());
                let hits: u64 = net.hit_hops.values().sum();
                let hops: u64 = net.hit_hops.iter().map(|(&h, &n)| u64::from(h) * n).sum();
                out.insert("net.gnutella.mean_hops", hops as f64 / hits.max(1) as f64);
            }
            ProtocolKind::FastTrack => {
                out.insert("net.fasttrack.ns_per_msg", ns_per_msg);
                out.insert(
                    "net.digest.msgs_per_write",
                    self.digest_msgs as f64 / self.writes.max(1) as f64,
                );
                out.insert("net.digest.build_ms", self.digest_build_ms);
            }
            ProtocolKind::Napster => {}
        }
        if let Some(p) = &self.probes {
            out.insert(
                "net.index_node.hits_per_query",
                p.node_hits as f64 / p.node_queries.max(1) as f64,
            );
            out.insert(
                "net.sharded.write_guards",
                (p.node.write_guard_count() - p.guards_before) as f64,
            );
            let index = p.index.stats();
            out.insert("store.index_bytes", index.approx_bytes as f64);
            out.insert("store.token_postings", index.token_postings as f64);
            // the serving pool at one worker and at one per hardware thread
            let workers = std::thread::available_parallelism().map_or(1, usize::from);
            let mut serve = |w: usize| {
                let started = Instant::now();
                let outcomes = self.net.search_batch(&self.batch, w);
                std::hint::black_box(outcomes.len());
                started.elapsed().as_secs_f64().max(1e-9)
            };
            let (one, many) = (serve(1), serve(workers));
            out.insert("net.pool.batch_ops_per_s", self.batch.len() as f64 / many);
            out.insert("net.pool.batch_speedup", one / many);
        }
    }

    fn info(&self) -> Json {
        Json::obj([
            ("peers", Json::Num(self.alive.len() as f64)),
            ("records", Json::Num(self.records as f64)),
            (
                "offline_peers",
                Json::Num(self.alive.iter().filter(|a| !**a).count() as f64),
            ),
            ("protocol", Json::Str(self.net.protocol_name().to_string())),
        ])
    }
}
