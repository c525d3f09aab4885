//! Napster-style centralized substrate: one index server, direct
//! peer-to-peer transfers.
//!
//! Publish uploads metadata to the server; search is a single
//! request/response round trip; retrieve is a direct connection to the
//! provider learned from the hit. The server answers only with records
//! whose provider is currently online (Napster dropped a user's records
//! with their session). The server's records live in an [`IndexNode`],
//! as every super-peer's do, so a query is a posting-list lookup and each
//! candidate's providers are one read of a table indexed by the posting
//! list's own doc-ids; the rest of a search is building the
//! [`SearchHit`]s (a key `String` each; the fields are shared).

use crate::index_node::IndexNode;
use crate::latency::LatencyModel;
use crate::message::{ResourceRecord, SearchHit, Time};
use crate::overlay;
use crate::peer::PeerId;
use crate::stats::{MsgKind, NetStats, RetrieveOutcome, SearchOutcome};
use crate::traits::PeerNetwork;
use up2p_store::Query;

/// The centralized (Napster) substrate.
pub struct CentralizedNetwork {
    alive: Vec<bool>,
    /// The server's indexed record table.
    server: IndexNode,
    latency: Box<dyn LatencyModel + Send>,
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
    pub fn new(n: usize, latency: Box<dyn LatencyModel + Send>) -> Self {
        CentralizedNetwork {
            alive: vec![true; n],
            server: IndexNode::new(),
            latency,
            stats: NetStats::new(),
        }
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
    /// away, with the hits counted; whether the query found anything is
    /// left to the caller's close of the query.
    pub(crate) fn answer(
        &mut self,
        community: &str,
        query: &Query,
        outcome: &mut SearchOutcome,
        arrival: Time,
    ) {
        outcome.messages = 2;
        outcome.latency = arrival;
        let Self { server, alive, .. } = self;
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
        self.server.remove_slot(provider, key);
    }

    fn search(&mut self, origin: PeerId, community: &str, query: &Query) -> SearchOutcome {
        let mut outcome = SearchOutcome::default();
        if let Some((up, down)) = self.begin_query(origin) {
            self.answer(community, query, &mut outcome, up + down);
            self.stats.queries_with_hits += u64::from(!outcome.hits.is_empty());
        }
        outcome
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
        let mut net = net(3);
        net.publish(PeerId(1), record("k1", "c", "x"));
        net.publish(PeerId(2), record("k1", "c", "x"));
        net.unpublish(PeerId(1), "k1");
        let out = net.search(PeerId(0), "c", &Query::All);
        assert_eq!(out.hits.iter().map(|h| h.provider).collect::<Vec<_>>(), vec![PeerId(2)]);
        net.unpublish(PeerId(2), "k1");
        assert!(net.search(PeerId(0), "c", &Query::All).hits.is_empty());
        assert!(!net.retrieve(PeerId(0), PeerId(2), "k1").is_fetched(), "the last provider left");
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
