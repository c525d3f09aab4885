//! Napster-style centralized substrate: one index server, direct
//! peer-to-peer transfers.
//!
//! Publish uploads metadata to the server; search is a single
//! request/response round trip; retrieve is a direct connection to the
//! provider learned from the hit. The server answers only with records
//! whose provider is currently online (Napster dropped a user's records
//! with their session). The server's records live in a
//! [`ShardedIndexNode`] — an [`crate::IndexNode`] behind one `RwLock` —
//! so a query is a posting-list lookup under the read guard and each
//! candidate's providers are one read of a table indexed by the posting
//! list's own doc-ids; the rest of a search is building the
//! [`SearchHit`]s (a key `String` each; the fields are shared).
//! [`PeerNetwork::search_batch`] serves many in-flight queries from a
//! thread pool at once (timed by `search_napster`'s `net.pool.*` probes).

use crate::latency::LatencyModel;
use crate::message::{ResourceRecord, SearchHit, Time};
use crate::overlay;
use crate::peer::PeerId;
use crate::pool::serve_batch;
use crate::sharded::ShardedIndexNode;
use crate::stats::{MsgKind, NetStats, RetrieveOutcome, SearchOutcome};
use crate::traits::{PeerNetwork, SearchRequest};
use up2p_store::Query;

/// The centralized (Napster) substrate.
pub struct CentralizedNetwork {
    alive: Vec<bool>,
    /// The server's indexed record table.
    server: ShardedIndexNode,
    latency: Box<dyn LatencyModel + Send + Sync>,
    pub(crate) stats: NetStats,
}

impl std::fmt::Debug for CentralizedNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CentralizedNetwork")
            .field("peers", &self.alive.len())
            .field("records", &self.server.len())
            .finish()
    }
}

impl CentralizedNetwork {
    /// Creates a network of `n` peers, all online, with the given link
    /// latency model (used for peer↔server and peer↔peer links alike).
    pub fn new(n: usize, latency: Box<dyn LatencyModel + Send + Sync>) -> Self {
        CentralizedNetwork {
            alive: vec![true; n],
            server: ShardedIndexNode::new(),
            latency,
            stats: NetStats::new(),
        }
    }

    /// Number of records the server currently indexes.
    pub fn server_record_count(&self) -> usize {
        self.server.len()
    }

    /// Deterministic estimate of resident state in bytes: liveness and
    /// the server's records.
    pub(crate) fn approx_bytes(&self) -> u64 {
        self.alive.len() as u64 + self.server.len() as u64 * 256
    }

    /// Opens a query: counts it, and for a live origin counts the round
    /// trip — one request up, one response down, the reply comes whether
    /// or not it carries hits — and draws the delay of its two legs.
    /// `None` means the query never leaves.
    pub(crate) fn begin_query(&mut self, origin: PeerId) -> Option<(Time, Time)> {
        self.stats.queries += 1;
        if !self.is_alive(origin) {
            return None;
        }
        self.stats.sent(MsgKind::Query);
        self.stats.sent(MsgKind::QueryHit);
        Some((self.latency.delay(origin, SERVER), self.latency.delay(SERVER, origin)))
    }

    /// The server's answer to a query whose reply lands at `arrival`:
    /// the matching records of every provider online *now*, one hop
    /// away. Takes the server and the liveness apart from the network so
    /// `search_batch` workers can evaluate against them concurrently.
    fn evaluate(
        server: &ShardedIndexNode,
        alive: &[bool],
        community: &str,
        query: &Query,
        outcome: &mut SearchOutcome,
        arrival: Time,
    ) {
        outcome.messages = 2;
        outcome.latency = arrival;
        server.search(community, query, |p| overlay::is_alive(alive, p), |key, provider, fields| {
            outcome.hits.push(SearchHit {
                key: key.to_string(),
                provider,
                fields: fields.clone(),
                hops: 1,
            });
        });
        if !outcome.hits.is_empty() {
            outcome.first_hit_latency = Some(arrival);
        }
    }

    /// [`CentralizedNetwork::evaluate`] on this network, with the hits
    /// counted; whether the query found anything is left to the caller's
    /// close of the query.
    pub(crate) fn answer(
        &mut self,
        community: &str,
        query: &Query,
        outcome: &mut SearchOutcome,
        arrival: Time,
    ) {
        Self::evaluate(&self.server, &self.alive, community, query, outcome, arrival);
        self.stats.hits(1, outcome.hits.len() as u64);
    }
}

/// Pseudo peer-id used for latency sampling on peer↔server links.
const SERVER: PeerId = PeerId(u32::MAX);

impl PeerNetwork for CentralizedNetwork {
    fn protocol_name(&self) -> &'static str {
        "Napster"
    }

    fn peer_count(&self) -> usize {
        self.alive.len()
    }

    fn is_alive(&self, peer: PeerId) -> bool {
        overlay::is_alive(&self.alive, peer)
    }

    fn set_alive(&mut self, peer: PeerId, alive: bool) {
        if let Some(a) = self.alive.get_mut(peer.index()) {
            *a = alive;
        }
    }

    fn publish(&mut self, provider: PeerId, record: ResourceRecord) {
        if !self.is_alive(provider) {
            return;
        }
        self.stats.sent(MsgKind::Publish);
        self.server.insert(provider, &record);
    }

    fn unpublish(&mut self, provider: PeerId, key: &str) {
        if provider.index() >= self.alive.len() {
            return; // an id outside the network has no session to end
        }
        self.stats.sent(MsgKind::Unpublish);
        self.server.remove(provider, key);
    }

    fn search(&mut self, origin: PeerId, community: &str, query: &Query) -> SearchOutcome {
        let mut outcome = SearchOutcome::default();
        if let Some((up, down)) = self.begin_query(origin) {
            self.answer(community, query, &mut outcome, up + down);
            self.stats.queries_with_hits += u64::from(!outcome.hits.is_empty());
        }
        outcome
    }

    fn search_batch(&mut self, requests: &[SearchRequest], workers: usize) -> Vec<SearchOutcome> {
        // the latency model is stateful (&mut), so the per-request legs
        // are sampled sequentially in request order — the same call
        // sequence sequential serving makes — before the parallel phase
        let legs: Vec<Option<(Time, Time)>> =
            requests.iter().map(|r| self.begin_query(r.origin)).collect();
        // parallel phase: the pool's workers evaluate against the shared
        // server side by side, each under the read guard
        let server = &self.server;
        let alive = &self.alive;
        let outcomes = serve_batch(workers, requests.len(), |i| {
            let r = &requests[i];
            let mut outcome = SearchOutcome::default();
            if let Some((up, down)) = legs[i] {
                Self::evaluate(server, alive, &r.community, &r.query, &mut outcome, up + down);
            }
            outcome
        });
        // hit counters merge afterwards: identical totals and by_kind()
        // view to issuing the batch through `search` one at a time
        for outcome in &outcomes {
            self.stats.hits(1, outcome.hits.len() as u64);
            self.stats.queries_with_hits += u64::from(!outcome.hits.is_empty());
        }
        outcomes
    }

    fn retrieve(&mut self, origin: PeerId, provider: PeerId, key: &str) -> RetrieveOutcome {
        let Self { alive, server, latency, stats } = self;
        overlay::retrieve(
            stats,
            overlay::is_alive(alive, origin),
            alive.get(provider.index()).copied(),
            provider,
            || server.has_provider(key, provider),
            || latency.delay(origin, provider) + latency.delay(provider, origin),
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
    use crate::latency::ConstantLatency;

    fn record(key: &str, community: &str, name: &str) -> ResourceRecord {
        ResourceRecord::new(key, community, vec![("o/name".to_string(), name.to_string())])
    }

    fn net(n: usize) -> CentralizedNetwork {
        CentralizedNetwork::new(n, Box::new(ConstantLatency(10_000)))
    }

    #[test]
    fn publish_search_retrieve_round_trip() {
        let mut net = net(4);
        net.publish(PeerId(1), record("k1", "patterns", "Observer"));
        let out = net.search(PeerId(0), "patterns", &Query::any_keyword("observer"));
        assert_eq!(out.hits.len(), 1);
        assert_eq!(out.hits[0].provider, PeerId(1));
        assert_eq!(out.messages, 2);
        assert_eq!(out.latency, 20_000);
        let got = net.retrieve(PeerId(0), PeerId(1), "k1");
        assert!(got.is_fetched());
    }

    #[test]
    fn community_scoping() {
        let mut net = net(3);
        net.publish(PeerId(1), record("k1", "patterns", "Observer"));
        net.publish(PeerId(2), record("k2", "songs", "Observer"));
        let out = net.search(PeerId(0), "patterns", &Query::any_keyword("observer"));
        assert_eq!(out.hits.len(), 1);
        assert_eq!(out.hits[0].key, "k1");
    }

    #[test]
    fn dead_providers_filtered_from_results() {
        let mut net = net(3);
        net.publish(PeerId(1), record("k1", "c", "x"));
        net.publish(PeerId(2), record("k1", "c", "x"));
        net.set_alive(PeerId(1), false);
        let out = net.search(PeerId(0), "c", &Query::any_keyword("x"));
        assert_eq!(out.hits.len(), 1);
        assert_eq!(out.hits[0].provider, PeerId(2));
        // retrieval from the dead one fails, from the live one succeeds
        assert!(!net.retrieve(PeerId(0), PeerId(1), "k1").is_fetched());
        assert!(net.retrieve(PeerId(0), PeerId(2), "k1").is_fetched());
        // and one where the provider never had the object fails loudly
        assert!(!net.retrieve(PeerId(0), PeerId(0), "k1").is_fetched());
        assert_eq!(net.stats().count(MsgKind::Retrieve), 3);
        assert_eq!(net.stats().count(MsgKind::RetrieveOk), 1);
        assert_eq!(net.stats().count(MsgKind::RetrieveFail), 1);
        assert_eq!(net.stats().dropped, 1, "the dead provider's request is dropped");
    }

    #[test]
    fn replication_increases_providers() {
        let mut net = net(4);
        net.publish(PeerId(1), record("k1", "c", "x"));
        net.publish(PeerId(3), record("k1", "c", "x"));
        let out = net.search(PeerId(0), "c", &Query::any_keyword("x"));
        assert_eq!(out.hits.len(), 2);
        assert_eq!(out.distinct_keys(), 1);
    }

    #[test]
    fn unpublish_removes_record() {
        let mut net = net(2);
        net.publish(PeerId(1), record("k1", "c", "x"));
        net.unpublish(PeerId(1), "k1");
        assert_eq!(net.server_record_count(), 0);
        let out = net.search(PeerId(0), "c", &Query::All);
        assert!(out.hits.is_empty());
    }

    #[test]
    fn stats_accumulate() {
        let mut net = net(2);
        net.publish(PeerId(1), record("k1", "c", "x"));
        net.search(PeerId(0), "c", &Query::any_keyword("x"));
        net.search(PeerId(0), "c", &Query::any_keyword("zzz"));
        let s = net.stats();
        assert_eq!(s.queries, 2);
        assert_eq!(s.queries_with_hits, 1);
        assert_eq!(s.query_success_rate(), 0.5);
        assert_eq!(s.count(MsgKind::Publish), 1);
        assert_eq!(s.count(MsgKind::Query), 2);
    }

    #[test]
    fn dead_origin_gets_nothing() {
        let mut net = net(2);
        net.publish(PeerId(1), record("k1", "c", "x"));
        net.set_alive(PeerId(0), false);
        let out = net.search(PeerId(0), "c", &Query::All);
        assert!(out.hits.is_empty());
        assert_eq!(out.messages, 0);
        // the same for retrieves: a dead origin sends nothing
        let before = net.stats().messages;
        assert!(!net.retrieve(PeerId(0), PeerId(1), "k1").is_fetched());
        assert_eq!(net.stats().messages, before, "a dead peer cannot send");
        assert_eq!(net.stats().retrieves, 1);
    }

    #[test]
    fn batch_serving_is_exactly_sequential_serving() {
        // same requests through search() and search_batch() on twin
        // networks: outcomes and cumulative stats must be identical,
        // including the stateful (seeded) latency model's RTT stream
        use crate::latency::UniformLatency;
        for workers in [1, 4] {
            let build = || {
                let mut n = CentralizedNetwork::new(8, Box::new(UniformLatency::new(1_000, 9_000, 7)));
                n.publish(PeerId(1), record("k1", "patterns", "Observer"));
                n.publish(PeerId(2), record("k2", "patterns", "Visitor Observer"));
                n.publish(PeerId(3), record("k3", "songs", "Jazz"));
                n.set_alive(PeerId(5), false);
                n
            };
            let requests = vec![
                SearchRequest::new(PeerId(0), "patterns", Query::any_keyword("observer")),
                SearchRequest::new(PeerId(5), "patterns", Query::any_keyword("observer")),
                SearchRequest::new(PeerId(4), "songs", Query::any_keyword("jazz")),
                SearchRequest::new(PeerId(6), "songs", Query::any_keyword("absent")),
            ];
            let mut sequential = build();
            let expected: Vec<SearchOutcome> = requests
                .iter()
                .map(|r| sequential.search(r.origin, &r.community, &r.query))
                .collect();
            let mut batched = build();
            let got = batched.search_batch(&requests, workers);
            assert_eq!(got.len(), expected.len());
            for (g, e) in got.iter().zip(&expected) {
                assert_eq!(g.messages, e.messages);
                assert_eq!(g.latency, e.latency);
                assert_eq!(g.first_hit_latency, e.first_hit_latency);
                let key = |h: &SearchHit| (h.key.clone(), h.provider, h.hops);
                assert_eq!(g.hits.iter().map(key).collect::<Vec<_>>(), e.hits.iter().map(key).collect::<Vec<_>>());
            }
            let (s, b) = (sequential.stats(), batched.stats());
            assert_eq!(s.messages, b.messages, "workers={workers}");
            assert_eq!(s.by_kind(), b.by_kind());
            assert_eq!(s.queries, b.queries);
            assert_eq!(s.queries_with_hits, b.queries_with_hits);
            assert_eq!(s.hits, b.hits);
            assert_eq!(s.hit_hops, b.hit_hops);
        }
    }

    #[test]
    fn hits_share_the_server_metadata() {
        let mut net = net(2);
        let rec = record("k1", "c", "x");
        net.publish(PeerId(1), rec.clone());
        let out = net.search(PeerId(0), "c", &Query::any_keyword("x"));
        assert!(
            crate::message::SharedFields::ptr_eq(&out.hits[0].fields, &rec.fields),
            "hit metadata is the published allocation"
        );
    }
}
