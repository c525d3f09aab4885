//! `des_guided`: the discrete-event engine running digest-guided
//! Gnutella at 10 000 peers under churn. A block schedules its queries,
//! its churn and its digest refreshes on one virtual timeline and drains
//! it in one call, so throughput is wall-clock queries per second while
//! the latency samples are the simulated `SearchOutcome::latency`.

use crate::gen::{self, DesQuery, DES_QUERY_GAP_US};
use crate::harness::{BlockStats, Config, Layers, MsgCount, Workload};
use crate::metrics::Json;
use crate::oracle::{Oracle, Tally, Verdict};
use crate::trace::{self, Tracer};
use std::time::Instant;
use up2p_net::{
    DesNetwork, DigestConfig, LatencySpec, NetConfig, PeerId, PeerNetwork, ProtocolKind,
    ResourceRecord, SearchOutcome,
};

const PEERS: usize = 10_000;
const RECORDS: usize = 100_000;
const BLOCK_QUERIES: usize = 3_000;
const WARMUP_QUERIES: usize = 64;
/// A digest refresh is scheduled after every this many queries.
const REFRESH_EVERY: usize = 1_000;
/// Mean online and offline spells of the churn schedule, in virtual µs
/// (a block spans `BLOCK_QUERIES` ms, so peers flap a few times in it).
const MEAN_SESSION_US: u64 = 8_000_000;
const MEAN_DOWNTIME_US: u64 = 2_000_000;
/// Digest width: 2^10 bits per layer. The default 2^15 would need
/// 4 KiB × 5 layers on each of 40 000 directed edges.
const LOG2_BITS: u8 = 10;
/// Link delay by coordinate distance, so simulated latencies are spread
/// out rather than multiples of one constant.
const LATENCY: LatencySpec = LatencySpec::Coordinate {
    base: 5_000,
    per_unit: 100_000,
};

pub struct DesGuided {
    net: DesNetwork,
    community: String,
    oracle: Oracle,
    peers: usize,
    records: usize,
    /// Virtual time at which the next block starts.
    next_start: u64,
    refresh_ms: f64,
    /// Events and wall time of the traced blocks.
    traced_events: u64,
    traced_ns: u64,
}

impl DesGuided {
    /// Schedules and drains one timeline; returns the outcomes in
    /// scheduling order and the wall time in nanoseconds.
    fn drive(
        &mut self,
        queries: &[DesQuery],
        churn: &[up2p_net::churn::ChurnEvent],
        mut tracer: Option<&mut Tracer>,
    ) -> (Vec<SearchOutcome>, u64) {
        let root = tracer.as_deref_mut().map(Tracer::begin_op);
        let started = Instant::now();
        let (net, community) = (&mut self.net, &self.community);
        trace::span_opt(&mut tracer, "net.des.schedule", || {
            net.schedule_churn(churn);
            for (i, q) in queries.iter().enumerate() {
                net.schedule_query(q.at, PeerId(q.origin), community, q.spec.query());
                if (i + 1) % REFRESH_EVERY == 0 {
                    net.schedule_digest_refresh(q.at);
                }
            }
        });
        let outcomes = trace::span_opt(&mut tracer, "net.des.run", || net.run());
        let ns = started.elapsed().as_nanos() as u64;
        if let (Some(t), Some(id)) = (tracer, root) {
            t.end_op(id);
        }
        (outcomes, ns)
    }

    /// Replays the churn beside the queries, so each query is judged
    /// against the peers that were online when it was issued.
    fn judge(
        &mut self,
        queries: &[DesQuery],
        churn: &[up2p_net::churn::ChurnEvent],
        outcomes: &[SearchOutcome],
        tally: &mut Tally,
    ) {
        let mut flips = churn.iter().peekable();
        for (q, out) in queries.iter().zip(outcomes) {
            while let Some(e) = flips.next_if(|e| e.at <= q.at) {
                self.oracle.set_alive(e.peer.0, e.online);
            }
            if self.oracle.is_alive(q.origin) {
                tally.search(self.oracle.judge(&q.spec, &out.hits, false));
            } else {
                // an offline client can be given no answer
                tally.search(Verdict {
                    false_positives: out.hits.len() as u32,
                    ..Verdict::default()
                });
            }
        }
        for e in flips {
            self.oracle.set_alive(e.peer.0, e.online);
        }
    }

    fn timeline(
        &self,
        cfg: &Config,
        block: u32,
        n: usize,
    ) -> (Vec<DesQuery>, Vec<up2p_net::churn::ChurnEvent>) {
        let queries = gen::des_queries(cfg.seed, block, self.next_start, n, self.peers);
        let horizon = n as u64 * DES_QUERY_GAP_US;
        let churn = gen::churn_schedule(
            cfg.seed,
            block,
            self.next_start,
            horizon,
            self.peers,
            MEAN_SESSION_US,
            MEAN_DOWNTIME_US,
        );
        (queries, churn)
    }

    /// Every peer back online: each block's churn starts from there.
    fn revive(&mut self) {
        for p in 0..self.peers as u32 {
            self.net.set_alive(PeerId(p), true);
            self.oracle.set_alive(p, true);
        }
    }
}

impl Workload for DesGuided {
    const NAME: &'static str = "des_guided";
    const SIMULATED_LATENCY: bool = true;

    fn setup(cfg: &Config) -> Self {
        let peers = cfg.scaled(PEERS, 64);
        let records = cfg.scaled(RECORDS, 200);
        let community = gen::track_community().id;
        let digests = DigestConfig {
            log2_bits: LOG2_BITS,
            ..DigestConfig::guided()
        };
        let mut net = DesNetwork::build(
            ProtocolKind::Gnutella,
            peers,
            gen::OVERLAY_SEED,
            &NetConfig::new().latency(LATENCY).digests(digests),
        );
        let mut oracle = Oracle::new(peers);
        for (i, track) in gen::track_corpus(cfg.seed, records).iter().enumerate() {
            let provider = (i % peers) as u32;
            let record = ResourceRecord {
                key: gen::track_key(i as u32),
                community: community.clone(),
                fields: oracle.publish(i as u32, provider, track),
            };
            net.publish(PeerId(provider), record);
        }
        let started = Instant::now();
        net.refresh_digests();
        let refresh_ms = started.elapsed().as_secs_f64() * 1e3;
        let mut world = DesGuided {
            net,
            community,
            oracle,
            peers,
            records,
            next_start: 0,
            refresh_ms,
            traced_events: 0,
            traced_ns: 0,
        };
        let (queries, _) = world.timeline(cfg, u32::MAX, WARMUP_QUERIES);
        world.drive(&queries, &[], None);
        world.next_start = world.net.clock() + DES_QUERY_GAP_US;
        world.net.reset_stats();
        world
    }

    fn block(
        &mut self,
        cfg: &Config,
        block: u32,
        tracer: Option<&mut Tracer>,
        tally: &mut Tally,
    ) -> BlockStats {
        self.revive();
        let (queries, churn) = self.timeline(cfg, block, cfg.scaled(BLOCK_QUERIES, 50));
        let traced = tracer.is_some();
        let before = self.net.stats().clone();
        let events_before = self.net.events_processed();
        let (outcomes, busy_ns) = self.drive(&queries, &churn, tracer);
        let msgs = MsgCount::delta(&before, self.net.stats());
        if traced {
            self.traced_events += self.net.events_processed() - events_before;
            self.traced_ns += busy_ns;
        }
        self.next_start = self.net.clock() + DES_QUERY_GAP_US;
        if outcomes.len() == queries.len() {
            self.judge(&queries, &churn, &outcomes, tally);
        } else {
            // the engine lost queries: none of the block's ops count as done
            for _ in &queries {
                tally.op(false);
            }
        }
        let op_ns = outcomes.iter().map(|o| o.latency * 1_000).collect();
        BlockStats {
            op_ns,
            busy_ns,
            msgs,
        }
    }

    fn layers(
        &mut self,
        _cfg: &Config,
        _tracer: &mut Tracer,
        _tally: &mut Tally,
        out: &mut Layers,
    ) {
        let secs = self.traced_ns as f64 / 1e9;
        out.insert(
            "net.des.events_per_s",
            self.traced_events as f64 / secs.max(1e-9),
        );
        out.insert(
            "net.des.ns_per_event",
            self.traced_ns as f64 / self.traced_events.max(1) as f64,
        );
        out.insert("net.des.peak_queue_len", self.net.peak_queue_len() as f64);
        out.insert(
            "net.des.bytes_per_peer",
            self.net.approx_bytes() as f64 / self.peers as f64,
        );
        out.insert("net.des.refresh_ms", self.refresh_ms);
    }

    fn info(&self) -> Json {
        Json::obj([
            ("peers", Json::Num(self.peers as f64)),
            ("records", Json::Num(self.records as f64)),
            ("digest_log2_bits", Json::Num(LOG2_BITS.into())),
            (
                "latency_samples",
                Json::Str("virtual microseconds".to_string()),
            ),
        ])
    }
}
