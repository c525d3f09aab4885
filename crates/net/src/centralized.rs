//! Napster: one index server, direct peer-to-peer transfers.
//!
//! Publish uploads metadata to the server; search is a single
//! request/response round trip; retrieve is a direct connection to the
//! provider learned from the hit. The server answers only with records
//! whose provider is currently online (Napster dropped a user's records
//! with their session). The server's records live in an [`crate::IndexNode`],
//! as every super-peer's do, so a query is a posting-list lookup and each
//! candidate's providers are one read of a table indexed by the posting
//! list's own doc-ids. The rest of a search is building the
//! [`SearchHit`]s (a key `String` each; the fields are shared, one
//! refcount bump a hit), which the index node starts only once it has
//! read every candidate's row, into a vector sized by their count.
//!
//! What is Napster's alone — the round trip and the server's answer —
//! is here; the rest of the protocol is the one [`Substrate`]'s and its
//! driver's, [`crate::DesNetwork`].

use crate::event::PropMode;
use crate::message::{SearchHit, SharedFields, Time};
use crate::overlay::{is_alive, Hop, Progress, ENTRY};
use crate::peer::PeerId;
use crate::stats::MsgKind;
use crate::substrate::{Protocol, Substrate};
use up2p_store::Query;

/// Pseudo peer-id of the index server, for latency sampling on
/// peer↔server links.
const SERVER: PeerId = PeerId(u32::MAX);

impl Hop {
    /// The request a Napster query sends to the server.
    pub(crate) const SERVER: Hop = Hop { to: SERVER.0, via: ENTRY, ttl: 0, mode: PropMode::Flood };
}

impl Substrate {
    /// The round trip of a query from a live `origin` issued at `t`: one
    /// request up, one response down — the reply comes whether or not it
    /// carries hits — counted, with the delay of both legs drawn. The
    /// reply lands at `p`'s quiescence; returns when the request reaches
    /// the server.
    pub(crate) fn server_trip(&mut self, p: &mut Progress, t: Time, origin: PeerId) -> Time {
        self.stats.sent(MsgKind::Query);
        self.stats.sent(MsgKind::QueryHit);
        p.outcome.messages = 2;
        let up = t + self.latency.delay(origin, SERVER);
        p.quiescence = up + self.latency.delay(SERVER, origin);
        p.last_hit_at = p.quiescence;
        up
    }

    /// The server's answer to a request that reached it: the matching
    /// records of every provider online *now*, one hop away, counted and
    /// landing with the reply. Returns how many there are; whether the
    /// query found anything is left to the close of the query.
    #[inline(always)]
    pub(crate) fn answer(&mut self, p: &mut Progress, community: &str, query: &Query) -> u32 {
        let Substrate { alive, stats, protocol: Protocol::Napster(server), .. } = self else {
            return 0;
        };
        let hits = &mut p.outcome.hits;
        server.search_sized(community, query, |peer| is_alive(alive, peer), |rows| {
            hits.reserve(rows);
            |key: &str, provider: PeerId, fields: &SharedFields| {
                let (key, fields) = (key.to_string(), fields.clone());
                hits.push(SearchHit { key, provider, fields, hops: 1 });
            }
        });
        if !hits.is_empty() {
            p.outcome.first_hit_latency = Some(p.quiescence);
        }
        stats.hits(1, hits.len() as u64);
        hits.len() as u32
    }
}

#[cfg(test)]
mod tests {
    use crate::des::DesNetwork;
    use crate::latency::LatencySpec;
    use crate::message::ResourceRecord;
    use crate::peer::PeerId;
    use crate::stats::{Fate, MsgKind, RetrieveOutcome};
    use crate::substrate::Substrate;
    use crate::traits::PeerNetwork;
    use up2p_store::Query;

    fn record(key: &str, community: &str, name: &str) -> ResourceRecord {
        ResourceRecord::new(key, community, vec![("o/name".to_string(), name.to_string())])
    }

    fn net(n: usize) -> DesNetwork {
        DesNetwork::new(Substrate::napster(n, LatencySpec::Constant(10_000).build(n, 1)))
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
        assert_ne!(got, RetrieveOutcome::Unavailable);
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
        assert_eq!(net.retrieve(PeerId(0), PeerId(1), "k1"), RetrieveOutcome::Unavailable);
        assert_ne!(net.retrieve(PeerId(0), PeerId(2), "k1"), RetrieveOutcome::Unavailable);
        // and one where the provider never had the object fails loudly
        assert_eq!(net.retrieve(PeerId(0), PeerId(0), "k1"), RetrieveOutcome::Unavailable);
        assert_eq!(net.stats().count(MsgKind::Retrieve), 3);
        assert_eq!(net.stats().count(MsgKind::RetrieveOk), 1);
        assert_eq!(net.stats().count(MsgKind::RetrieveFail), 1);
        let offline = net.stats().fate_count(Fate::ProviderOffline);
        assert_eq!(offline, 1, "the dead provider's request is dropped");
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
        let last = net.retrieve(PeerId(0), PeerId(2), "k1");
        assert_eq!(last, RetrieveOutcome::Unavailable, "the last provider left");
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
        assert_eq!(net.retrieve(PeerId(0), PeerId(1), "k1"), RetrieveOutcome::Unavailable);
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
