//! Event vocabulary for the whole-network discrete-event engine.
//!
//! [`crate::DesNetwork`] runs every occurrence of a simulation — a query
//! leaving its origin, a copy reaching a node, hits landing, a churn
//! transition, a digest refresh — as a timestamped event on one global
//! virtual-time queue, so a churn storm can land *while* a query is
//! still in flight. This module defines that event vocabulary.

use crate::peer::PeerId;

/// How a query copy propagates through the overlay-search core: blind
/// flooding uses [`PropMode::Flood`] throughout; guided
/// search forwards digest-selected copies as [`PropMode::Guided`] and
/// falls back to TTL'd random walkers ([`PropMode::Walk`]) when no
/// neighbor digest matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropMode {
    /// Forward to every neighbor except the sender (baseline).
    Flood,
    /// Forward along digest-selected neighbors, capped at the fanout.
    Guided,
    /// Random-walk fallback; survives revisits.
    Walk,
}

/// One timestamped occurrence on the global DES timeline.
///
/// `qid` fields index into the engine's per-query state table. A
/// [`DesEvent::Query`] is the overlay core's in-flight query copy with a
/// query id attached: like it, the event names the visit that sent it
/// (`via`, an index into the query's trail of forwarding visits) instead
/// of carrying the route travelled so far. The trail is built only from
/// earlier events of the same run, so two runs with equal events took
/// equal routes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DesEvent {
    /// A scheduled query leaves its origin.
    QueryIssue {
        /// Query state index.
        qid: u32,
    },
    /// A query copy arrives at a node of the searched overlay: a peer
    /// (Gnutella) or a super-peer index (FastTrack).
    Query {
        /// Query state index.
        qid: u32,
        /// Destination node.
        to: u32,
        /// The forwarding visit, on the query's trail, that sent this
        /// copy (`u32::MAX`: none, the query is entering the overlay).
        via: u32,
        /// Remaining hops.
        ttl: u8,
        /// Propagation mode of this copy.
        mode: PropMode,
    },
    /// A Napster-style query arrives at the index server.
    ServerQuery {
        /// Query state index.
        qid: u32,
    },
    /// A batch of hits arrives back at the querying origin.
    HitDeliver {
        /// Query state index.
        qid: u32,
        /// Newly recorded hits in the batch.
        hits: u32,
    },
    /// A peer's session starts (`online`) or ends.
    Churn {
        /// The peer changing liveness.
        peer: PeerId,
        /// New liveness.
        online: bool,
    },
    /// A scheduled routing-digest rebuild.
    DigestRefresh,
}
