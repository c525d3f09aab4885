//! The generic peer-to-peer interface.
//!
//! The paper's conclusion proposes "to model the peer-to-peer layer as
//! providing a generic interface with primitives for create, search and
//! retrieve". [`PeerNetwork`] is that interface; the servent in
//! `up2p-core` is written against it and runs unchanged on all three
//! substrates (experiment E6).

use crate::message::ResourceRecord;
use crate::peer::PeerId;
use crate::stats::{NetStats, RetrieveOutcome, SearchOutcome};
use up2p_store::Query;

/// One query of a [`PeerNetwork::search_batch`] call: the same
/// parameters [`PeerNetwork::search`] takes, owned so a batch can be
/// built ahead of serving it.
#[derive(Debug, Clone)]
pub struct SearchRequest {
    /// Issuing peer.
    pub origin: PeerId,
    /// Community scope of the query.
    pub community: String,
    /// The metadata query.
    pub query: Query,
}

impl SearchRequest {
    /// Convenience constructor.
    pub fn new(origin: PeerId, community: impl Into<String>, query: Query) -> SearchRequest {
        SearchRequest { origin, community: community.into(), query }
    }
}

/// A peer-to-peer substrate offering the paper's three primitives
/// (publish ≈ create, search, retrieve) plus liveness control for churn
/// experiments.
///
/// All three implementations are deterministic discrete-event simulations:
/// `search` runs one query to quiescence in virtual time and reports the
/// message/latency cost it incurred.
pub trait PeerNetwork {
    /// Substrate name as it appears in the community schema's `protocol`
    /// enumeration (Fig. 3): `Napster`, `Gnutella` or `FastTrack`.
    fn protocol_name(&self) -> &'static str;

    /// Number of peers (dense ids `0..peer_count`).
    fn peer_count(&self) -> usize;

    /// Is the peer currently online?
    fn is_alive(&self, peer: PeerId) -> bool;

    /// Sets a peer online/offline (churn control).
    fn set_alive(&mut self, peer: PeerId, alive: bool);

    /// Shares a resource record from `provider` (create primitive). The
    /// metadata becomes discoverable; the object itself stays at the
    /// provider until retrieved.
    fn publish(&mut self, provider: PeerId, record: ResourceRecord);

    /// Withdraws a shared record.
    fn unpublish(&mut self, provider: PeerId, key: &str);

    /// Issues a metadata query from `origin` scoped to `community`,
    /// simulating propagation to quiescence.
    fn search(&mut self, origin: PeerId, community: &str, query: &Query) -> SearchOutcome;

    /// Answers a batch of in-flight queries, returning one outcome per
    /// request in request order, with cumulative statistics identical to
    /// issuing the requests through [`PeerNetwork::search`] one at a
    /// time (same totals, same [`NetStats::by_kind`] view).
    ///
    /// Every substrate serves a batch through this sequential default,
    /// one [`PeerNetwork::search`] after another: nothing in the crate
    /// runs on a second thread, and `workers` is ignored.
    fn search_batch(&mut self, requests: &[SearchRequest], workers: usize) -> Vec<SearchOutcome> {
        let _ = workers;
        requests.iter().map(|r| self.search(r.origin, &r.community, &r.query)).collect()
    }

    /// Downloads the object `key` from `provider` (learned from a search
    /// hit).
    fn retrieve(&mut self, origin: PeerId, provider: PeerId, key: &str) -> RetrieveOutcome;

    /// Cumulative statistics.
    fn stats(&self) -> &NetStats;

    /// Zeroes the statistics (between experiment phases).
    fn reset_stats(&mut self);
}

/// Which substrate to build — mirrors the `protocol` field of the
/// community schema in Fig. 3 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// Centralized index server (Napster).
    Napster,
    /// TTL-limited flooding over an overlay (Gnutella).
    Gnutella,
    /// Two-tier super-peer network (FastTrack).
    FastTrack,
}

impl ProtocolKind {
    /// Parses the schema enumeration value (empty string maps to
    /// `Gnutella`, the paper's default-flavored decentralized choice).
    ///
    /// Values are matched exactly as the Fig. 3 schema enumerates them —
    /// case-sensitive, no aliases:
    ///
    /// ```
    /// use up2p_net::ProtocolKind;
    ///
    /// assert_eq!(ProtocolKind::from_schema_value("Napster"), Some(ProtocolKind::Napster));
    /// assert_eq!(ProtocolKind::from_schema_value("Gnutella"), Some(ProtocolKind::Gnutella));
    /// assert_eq!(ProtocolKind::from_schema_value("FastTrack"), Some(ProtocolKind::FastTrack));
    /// // unset protocol → the decentralized default
    /// assert_eq!(ProtocolKind::from_schema_value(""), Some(ProtocolKind::Gnutella));
    /// // anything else is rejected, including case variants
    /// assert_eq!(ProtocolKind::from_schema_value("napster"), None);
    /// assert_eq!(ProtocolKind::from_schema_value("Kazaa"), None);
    /// // every kind round-trips through its schema value
    /// for kind in [ProtocolKind::Napster, ProtocolKind::Gnutella, ProtocolKind::FastTrack] {
    ///     assert_eq!(ProtocolKind::from_schema_value(kind.schema_value()), Some(kind));
    /// }
    /// ```
    pub fn from_schema_value(v: &str) -> Option<ProtocolKind> {
        match v {
            "" | "Gnutella" => Some(ProtocolKind::Gnutella),
            "Napster" => Some(ProtocolKind::Napster),
            "FastTrack" => Some(ProtocolKind::FastTrack),
            _ => None,
        }
    }

    /// The schema enumeration value.
    ///
    /// ```
    /// use up2p_net::ProtocolKind;
    /// assert_eq!(ProtocolKind::FastTrack.schema_value(), "FastTrack");
    /// assert_eq!(ProtocolKind::FastTrack.to_string(), "FastTrack");
    /// ```
    pub fn schema_value(self) -> &'static str {
        match self {
            ProtocolKind::Napster => "Napster",
            ProtocolKind::Gnutella => "Gnutella",
            ProtocolKind::FastTrack => "FastTrack",
        }
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.schema_value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_values_round_trip() {
        for p in [ProtocolKind::Napster, ProtocolKind::Gnutella, ProtocolKind::FastTrack] {
            assert_eq!(ProtocolKind::from_schema_value(p.schema_value()), Some(p));
        }
        assert_eq!(ProtocolKind::from_schema_value(""), Some(ProtocolKind::Gnutella));
        assert_eq!(ProtocolKind::from_schema_value("Kazaa"), None);
    }
}
