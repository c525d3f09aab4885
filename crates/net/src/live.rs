//! A live, threaded [`PeerNetwork`]: every peer is an OS thread, messages
//! travel over channels, and searches complete under a wall-clock
//! deadline — evidence that the paper's "generic interface with
//! primitives for create, search and retrieve" is not bound to
//! discrete-event simulation. The same `Servent` drives it unchanged.
//!
//! Protocol: Gnutella-style flooding with per-query duplicate suppression;
//! hits are returned to the querying peer on a per-search response channel
//! (out-of-band, like a direct HTTP callback — the 2002 clients' PUSH
//! descriptor played a similar role). Each peer thread evaluates queries
//! against its own [`crate::ShardedIndexNode`], the read-mostly
//! community-sharded share table: query evaluation takes read guards
//! only, so a publish into one community never stalls concurrent
//! searches of another — and concurrent searches of the *same*
//! community share a read guard instead of convoying on a mutex.
//!
//! Forward accounting is per-query, not global: every in-flight query
//! carries its own atomic forward counter in the message, so the
//! threads serving one query never contend on a counter with the
//! threads serving another, and batch serving can attribute messages
//! to requests exactly. (The previous design funneled every forward of
//! every query through one shared `AtomicU64`.) The duplicate
//! suppression lives in the same shared per-query state, so a peer
//! thread keeps nothing about a query once its copies are consumed and
//! a long-lived network does not grow with the queries it has served.

use crate::message::{ResourceRecord, SearchHit, DEFAULT_TTL};
use crate::overlay;
use crate::peer::PeerId;
use crate::sharded::ShardedIndexNode;
use crate::stats::{MsgKind, NetStats, RetrieveOutcome, SearchOutcome};
use crate::topology::Topology;
use crate::traits::{PeerNetwork, SearchRequest};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use up2p_store::Query;

/// What every copy of one query shares; freed with the last of them.
struct QueryShared {
    /// Forward counter: bumped once per overlay crossing by whichever
    /// peer thread forwards the query.
    forwards: AtomicU64,
    /// One flag per peer, set by the first copy to reach it (the GUID
    /// cache, kept with the query instead of with the peer).
    visited: Vec<AtomicBool>,
}

enum LiveMsg {
    Query {
        state: Arc<QueryShared>,
        reply: Sender<SearchHit>,
        community: String,
        query: Query,
        ttl: u8,
        hops: u8,
    },
    Shutdown,
}

struct PeerState {
    tx: Sender<LiveMsg>,
    alive: Arc<AtomicBool>,
    shared: Arc<ShardedIndexNode>,
}

/// A query in flight: issued, not yet drained.
struct PendingSearch {
    reply_rx: Receiver<SearchHit>,
    state: Arc<QueryShared>,
    started: Instant,
}

/// A threaded flooding network. Peers live as long as the network; drop
/// shuts every thread down.
pub struct LiveNetwork {
    peers: Vec<PeerState>,
    handles: Vec<std::thread::JoinHandle<()>>,
    stats: NetStats,
    /// How long a search waits for hits to arrive.
    pub search_deadline: Duration,
}

impl std::fmt::Debug for LiveNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveNetwork").field("peers", &self.peers.len()).finish()
    }
}

impl LiveNetwork {
    /// Spawns one thread per peer over the given overlay.
    pub fn new(topology: Topology) -> LiveNetwork {
        let n = topology.len();
        let mut txs = Vec::with_capacity(n);
        let mut rxs: Vec<Receiver<LiveMsg>> = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            txs.push(tx);
            rxs.push(rx);
        }
        let mut peers = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for (i, rx) in rxs.into_iter().enumerate() {
            let alive = Arc::new(AtomicBool::new(true));
            // the shard lock classes (sharded.*) are named, so the
            // debug-build order checker and the static analyzer cover
            // the live substrate's locking through the shared node
            let shared = Arc::new(ShardedIndexNode::new());
            let neighbor_txs: Vec<Sender<LiveMsg>> = topology
                .neighbors(PeerId(i as u32))
                .map(|nb| txs[nb.index()].clone())
                .collect();
            let own_id = PeerId(i as u32);
            let thread_alive = Arc::clone(&alive);
            let thread_shared = Arc::clone(&shared);
            let handle = std::thread::spawn(move || {
                peer_loop(own_id, rx, neighbor_txs, thread_alive, thread_shared)
            });
            peers.push(PeerState { tx: txs[i].clone(), alive, shared });
            handles.push(handle);
        }
        LiveNetwork {
            peers,
            handles,
            stats: NetStats::new(),
            search_deadline: Duration::from_millis(200),
        }
    }

    /// Issues one query into the overlay without waiting for replies.
    /// Returns `None` when the origin is unknown or offline (the query
    /// never leaves — same accounting as a failed [`PeerNetwork::search`]).
    fn issue(&mut self, origin: PeerId, community: &str, query: &Query) -> Option<PendingSearch> {
        self.stats.queries += 1;
        let p = self.peers.get(origin.index())?;
        if !p.alive.load(Ordering::Relaxed) {
            return None;
        }
        let (reply_tx, reply_rx) = unbounded::<SearchHit>();
        let state = Arc::new(QueryShared {
            forwards: AtomicU64::new(0),
            visited: self.peers.iter().map(|_| AtomicBool::new(false)).collect(),
        });
        let started = Instant::now();
        let _ = p.tx.send(LiveMsg::Query {
            state: Arc::clone(&state),
            reply: reply_tx,
            community: community.to_string(),
            query: query.clone(),
            ttl: DEFAULT_TTL,
            hops: 0,
        });
        Some(PendingSearch { reply_rx, state, started })
    }

    /// Collects an in-flight query's hits until the deadline, then folds
    /// its forward counter into the stats — per-request accounting
    /// identical to sequential serving.
    fn drain(&mut self, pending: PendingSearch) -> SearchOutcome {
        let mut outcome = SearchOutcome::default();
        let mut dedup: HashMap<(String, PeerId), ()> = HashMap::new();
        let deadline = pending.started + self.search_deadline;
        while let Some(remaining) = deadline.checked_duration_since(Instant::now()) {
            match pending.reply_rx.recv_timeout(remaining) {
                Ok(hit) => {
                    if dedup.insert((hit.key.clone(), hit.provider), ()).is_none() {
                        let arrival = pending.started.elapsed().as_micros() as u64;
                        outcome.first_hit_latency =
                            Some(outcome.first_hit_latency.map_or(arrival, |f| f.min(arrival)));
                        outcome.latency = arrival;
                        self.stats.hit(hit.hops);
                        // each hit crossed the reply channel: a QueryHit
                        // message the provider sent back to the origin
                        self.stats.sent(MsgKind::QueryHit);
                        outcome.hits.push(hit);
                    }
                }
                Err(_) => break,
            }
        }
        // every overlay crossing counted by the peer threads is a Query
        // forward — attribute them to the kind counter instead of bumping
        // the raw total (which used to leave `by_kind()` blind to live
        // traffic: the stat-conservation drift up2p-analyzer flags)
        let forwarded = pending.state.forwards.load(Ordering::Relaxed);
        self.stats.sent_n(MsgKind::Query, forwarded);
        outcome.messages = forwarded;
        if !outcome.hits.is_empty() {
            self.stats.queries_with_hits += 1;
        }
        outcome
    }
}

fn peer_loop(
    own_id: PeerId,
    rx: Receiver<LiveMsg>,
    neighbors: Vec<Sender<LiveMsg>>,
    alive: Arc<AtomicBool>,
    shared: Arc<ShardedIndexNode>,
) {
    while let Ok(msg) = rx.recv() {
        match msg {
            LiveMsg::Shutdown => return,
            LiveMsg::Query { state, reply, community, query, ttl, hops } => {
                if !alive.load(Ordering::Relaxed) {
                    continue; // dead peers drop traffic
                }
                // duplicate suppression (GUID cache): the flag is only
                // claimed, it publishes no other data, hence Relaxed
                if state.visited[own_id.index()].swap(true, Ordering::Relaxed) {
                    continue;
                }
                // evaluation takes read guards only (inside the sharded
                // node) and the hits are sent after they drop: a slow or
                // blocked reply channel must never extend how long a
                // shard is read-pinned against publishes
                let mut hits: Vec<SearchHit> = Vec::new();
                shared.search(&community, &query, |_| true, |key, _, fields| {
                    hits.push(SearchHit {
                        key: key.to_string(),
                        provider: own_id,
                        fields: fields.clone(),
                        hops,
                    });
                });
                for hit in hits {
                    // ignore send failure: the searcher may have
                    // stopped listening after its deadline
                    let _ = reply.send(hit);
                }
                if ttl > 0 {
                    for nb in &neighbors {
                        state.forwards.fetch_add(1, Ordering::Relaxed);
                        let _ = nb.send(LiveMsg::Query {
                            state: Arc::clone(&state),
                            reply: reply.clone(),
                            community: community.clone(),
                            query: query.clone(),
                            ttl: ttl - 1,
                            hops: hops + 1,
                        });
                    }
                }
            }
        }
    }
}

impl Drop for LiveNetwork {
    fn drop(&mut self) {
        for p in &self.peers {
            let _ = p.tx.send(LiveMsg::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl PeerNetwork for LiveNetwork {
    fn protocol_name(&self) -> &'static str {
        "Gnutella" // same routing semantics, live transport
    }

    fn peer_count(&self) -> usize {
        self.peers.len()
    }

    fn is_alive(&self, peer: PeerId) -> bool {
        self.peers
            .get(peer.index())
            .map(|p| p.alive.load(Ordering::Relaxed))
            .unwrap_or(false)
    }

    fn set_alive(&mut self, peer: PeerId, alive: bool) {
        if let Some(p) = self.peers.get(peer.index()) {
            p.alive.store(alive, Ordering::Relaxed);
        }
    }

    fn publish(&mut self, provider: PeerId, record: ResourceRecord) {
        let Some(p) = self.peers.get(provider.index()) else { return };
        // a peer republishing a key replaces its own record (upsert);
        // the write lands on the one shard owning the community while
        // searches of other communities keep flowing
        p.shared.upsert(provider, &record);
    }

    fn unpublish(&mut self, provider: PeerId, key: &str) {
        if let Some(p) = self.peers.get(provider.index()) {
            p.shared.remove(provider, key);
        }
    }

    fn search(&mut self, origin: PeerId, community: &str, query: &Query) -> SearchOutcome {
        match self.issue(origin, community, query) {
            Some(pending) => self.drain(pending),
            None => SearchOutcome::default(),
        }
    }

    fn search_batch(&mut self, requests: &[SearchRequest], workers: usize) -> Vec<SearchOutcome> {
        // the serving parallelism here is the peer threads themselves:
        // issuing the whole batch up front puts every query in flight at
        // once (they propagate and get answered concurrently), then the
        // replies are drained in request order under overlapping
        // deadlines — wall-clock cost ~one deadline, not one per request
        let _ = workers;
        let pending: Vec<Option<PendingSearch>> = requests
            .iter()
            .map(|r| self.issue(r.origin, &r.community, &r.query))
            .collect();
        pending
            .into_iter()
            .map(|p| match p {
                Some(pending) => self.drain(pending),
                None => SearchOutcome::default(),
            })
            .collect()
    }

    fn retrieve(&mut self, origin: PeerId, provider: PeerId, key: &str) -> RetrieveOutcome {
        let origin_alive = self.is_alive(origin);
        let target = self.peers.get(provider.index());
        overlay::retrieve(
            &mut self.stats,
            origin_alive,
            target.map(|p| p.alive.load(Ordering::Relaxed)),
            provider,
            || target.is_some_and(|p| p.shared.has_provider(key, provider)),
            || 0,
        )
    }

    fn stats(&self) -> &NetStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = NetStats::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(key: &str, name: &str) -> ResourceRecord {
        ResourceRecord::new(key, "c", vec![("o/name".to_string(), name.to_string())])
    }

    fn live(n: usize) -> LiveNetwork {
        LiveNetwork::new(Topology::small_world(n, 2, 0.2, 7))
    }

    #[test]
    fn publish_search_over_threads() {
        let mut net = live(16);
        let rec = record("k1", "observer");
        net.publish(PeerId(9), rec.clone());
        let out = net.search(PeerId(0), "c", &Query::any_keyword("observer"));
        assert_eq!(out.hits.len(), 1);
        assert_eq!(out.hits[0].provider, PeerId(9));
        assert!(out.messages > 0, "flooding sent real messages");
        // hit metadata is the published allocation (refcount bump across
        // threads, no copy, no routing side-channel fields)
        assert_eq!(out.hits[0].fields, rec.fields);
    }

    #[test]
    fn community_scoping_and_misses() {
        let mut net = live(8);
        net.publish(PeerId(3), record("k1", "observer"));
        let out = net.search(PeerId(0), "other", &Query::any_keyword("observer"));
        assert!(out.hits.is_empty());
        let out = net.search(PeerId(0), "c", &Query::any_keyword("missing"));
        assert!(out.hits.is_empty());
    }

    #[test]
    fn dead_peers_drop_out() {
        let mut net = live(12);
        net.publish(PeerId(5), record("k1", "x"));
        net.set_alive(PeerId(5), false);
        let out = net.search(PeerId(0), "c", &Query::any_keyword("x"));
        assert!(out.hits.is_empty(), "dead provider must not answer");
        assert!(!net.retrieve(PeerId(0), PeerId(5), "k1").is_fetched());
        net.set_alive(PeerId(5), true);
        let out = net.search(PeerId(0), "c", &Query::any_keyword("x"));
        assert_eq!(out.hits.len(), 1);
        assert!(net.retrieve(PeerId(0), PeerId(5), "k1").is_fetched());
    }

    #[test]
    fn duplicate_suppression_bounds_live_messages() {
        let mut net = live(16);
        let out = net.search(PeerId(0), "c", &Query::any_keyword("nothing"));
        // small-world n=16, 2k=4: 32 edges → ≤ 64 directed crossings
        assert!(out.messages <= 64 + 16, "messages {} too high", out.messages);
    }

    #[test]
    fn servent_runs_unchanged_on_live_transport() {
        // the protocol-independence claim, live: the same Servent code
        // that drives the simulated substrates drives threads
        use up2p_core_shim::*;
        let mut net = live(16);
        roundtrip(&mut net);
    }

    /// Minimal servent-shaped round trip without depending on up2p-core
    /// (which would be a dependency cycle): publish a community-shaped
    /// record, find it, retrieve it.
    mod up2p_core_shim {
        use super::*;

        pub fn roundtrip(net: &mut LiveNetwork) {
            net.publish(
                PeerId(2),
                ResourceRecord::new(
                    "community-object",
                    "up2p:root",
                    vec![
                        ("community/name".to_string(), "mp3".to_string()),
                        ("community/keywords".to_string(), "music audio".to_string()),
                    ],
                ),
            );
            let out = net.search(PeerId(11), "up2p:root", &Query::any_keyword("music"));
            assert_eq!(out.hits.len(), 1, "community discovered over live transport");
            assert!(net
                .retrieve(PeerId(11), out.hits[0].provider, &out.hits[0].key)
                .is_fetched());
        }
    }

    #[test]
    fn live_traffic_lands_in_kind_counters() {
        // regression: live search traffic used to bump only the raw
        // `messages` total, leaving `by_kind()` blind to the transport
        let mut net = live(8);
        net.publish(PeerId(3), record("k1", "x"));
        let out = net.search(PeerId(0), "c", &Query::any_keyword("x"));
        assert_eq!(out.hits.len(), 1);
        let stats = net.stats();
        assert_eq!(stats.count(MsgKind::Query), out.messages, "forwards are Query messages");
        assert_eq!(stats.count(MsgKind::QueryHit), 1, "each deduped hit is a QueryHit");
        assert_eq!(stats.messages, out.messages + 1, "total = forwards + hits");
        assert!(stats.by_kind().contains_key("Query"));
    }

    #[test]
    fn batch_serving_matches_sequential_hits_and_accounting() {
        let mut net = live(16);
        net.publish(PeerId(9), record("k1", "observer"));
        net.publish(PeerId(4), record("k2", "visitor"));
        net.set_alive(PeerId(6), false);
        let requests = vec![
            SearchRequest::new(PeerId(0), "c", Query::any_keyword("observer")),
            SearchRequest::new(PeerId(1), "c", Query::any_keyword("visitor")),
            SearchRequest::new(PeerId(6), "c", Query::any_keyword("observer")), // dead origin
            SearchRequest::new(PeerId(2), "c", Query::any_keyword("nothing")),
        ];
        let outcomes = net.search_batch(&requests, 4);
        assert_eq!(outcomes.len(), 4);
        assert_eq!(outcomes[0].hits.len(), 1);
        assert_eq!(outcomes[0].hits[0].provider, PeerId(9));
        assert_eq!(outcomes[1].hits.len(), 1);
        assert_eq!(outcomes[1].hits[0].provider, PeerId(4));
        assert!(outcomes[2].hits.is_empty(), "dead origin never issues");
        assert_eq!(outcomes[2].messages, 0);
        assert!(outcomes[3].hits.is_empty());
        // per-request forward attribution sums to the batch totals,
        // exactly as sequential serving accounts them
        let stats = net.stats();
        assert_eq!(stats.queries, 4);
        assert_eq!(stats.queries_with_hits, 2);
        let forwarded: u64 = outcomes.iter().map(|o| o.messages).sum();
        assert_eq!(stats.count(MsgKind::Query), forwarded);
        assert_eq!(stats.count(MsgKind::QueryHit), 2);
        assert_eq!(stats.messages, forwarded + 2, "total = forwards + hits");
    }

    #[test]
    fn concurrent_publishes_land_during_in_flight_queries() {
        // the read-mostly claim end to end: queries already in flight
        // keep being served while records are published into other
        // communities (writes touch only the owning shard)
        let mut net = live(8);
        net.publish(PeerId(3), record("k1", "x"));
        let requests: Vec<SearchRequest> =
            (0..4).map(|i| SearchRequest::new(PeerId(i), "c", Query::any_keyword("x"))).collect();
        let pendings: Vec<Option<PendingSearch>> =
            requests.iter().map(|r| net.issue(r.origin, &r.community, &r.query)).collect();
        for i in 0..8u32 {
            net.publish(
                PeerId(i % 8),
                ResourceRecord::new(
                    format!("other{i}"),
                    format!("community{i}"),
                    vec![("o/name".to_string(), "y".to_string())],
                ),
            );
        }
        for pending in pendings.into_iter().flatten() {
            let out = net.drain(pending);
            assert_eq!(out.hits.len(), 1, "in-flight query still answered");
        }
    }

    #[test]
    fn a_drained_query_leaves_no_state_behind_in_the_peers() {
        // regression: every peer thread used to remember every query id
        // in a set of its own, forever. The dedup flags now travel with
        // the query, so once its copies are consumed the only holder of
        // its shared state is whoever kept a handle — here, the test.
        let mut net = live(16);
        net.publish(PeerId(9), record("k1", "observer"));
        let pending =
            net.issue(PeerId(0), "c", &Query::any_keyword("observer")).expect("live origin");
        let state = Arc::clone(&pending.state);
        assert_eq!(net.drain(pending).hits.len(), 1);
        assert!(state.visited[9].load(Ordering::Relaxed), "the provider was reached");
        // copies can still sit in peer inboxes when the drain returns
        let give_up = Instant::now() + Duration::from_secs(10);
        while Arc::strong_count(&state) > 1 && Instant::now() < give_up {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(Arc::strong_count(&state), 1, "a peer still holds the query's state");
    }

    #[test]
    fn unpublish_live() {
        let mut net = live(8);
        net.publish(PeerId(3), record("k1", "x"));
        net.unpublish(PeerId(3), "k1");
        let out = net.search(PeerId(0), "c", &Query::any_keyword("x"));
        assert!(out.hits.is_empty());
    }

    #[test]
    fn shutdown_is_clean() {
        let net = live(8);
        drop(net); // must not hang or panic
    }
}
