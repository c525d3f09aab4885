//! Event vocabulary for the whole-network discrete-event engine.
//!
//! The step-based substrates simulate each *search* to quiescence on a
//! private [`crate::sim::EventQueue`]; everything between searches
//! (churn, digest refreshes, the next query) happens instantaneously
//! from the simulation's point of view. [`crate::DesNetwork`] promotes
//! all of those occurrences to first-class timestamped events on one
//! global virtual-time queue, so a churn storm can land *while* a query
//! is still in flight. This module defines that event vocabulary.

use crate::message::Time;
use crate::peer::PeerId;

/// How a query copy propagates, on every driver of the overlay-search
/// core: blind flooding uses [`PropMode::Flood`] throughout; guided
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
/// of carrying the route travelled so far.
#[derive(Debug, Clone)]
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

impl DesEvent {
    /// One deterministic log line for the replay tests: everything that
    /// identifies the event, rendered without hashing or addresses so
    /// two same-seed runs produce byte-identical logs. A query copy is
    /// logged with the route it travelled (*excluding* the destination;
    /// the last element is the immediate sender), which `route(qid, via)`
    /// resolves through the query's trail — asked only for a
    /// [`DesEvent::Query`], so only a run that logs pays for routes.
    pub fn log_line(&self, t: Time, route: impl FnOnce(u32, u32) -> Vec<u32>) -> String {
        match self {
            DesEvent::QueryIssue { qid } => format!("{t} issue q{qid}"),
            DesEvent::Query { qid, to, via, ttl, mode } => {
                let path = route(*qid, *via);
                format!("{t} query q{qid} -> {to} ttl={ttl} mode={mode:?} path={path:?}")
            }
            DesEvent::ServerQuery { qid } => format!("{t} server-query q{qid}"),
            DesEvent::HitDeliver { qid, hits } => format!("{t} hits q{qid} n={hits}"),
            DesEvent::Churn { peer, online } => format!("{t} churn {peer} online={online}"),
            DesEvent::DigestRefresh => format!("{t} digest-refresh"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_lines_are_stable() {
        let ev = DesEvent::Query { qid: 3, to: 7, via: 1, ttl: 5, mode: PropMode::Flood };
        let trail = |qid, via| {
            assert_eq!((qid, via), (3, 1), "the event's own query and visit are resolved");
            vec![0, 2]
        };
        assert_eq!(ev.log_line(40, trail), "40 query q3 -> 7 ttl=5 mode=Flood path=[0, 2]");
        let no_route = |_, _| unreachable!("only a query copy has a route");
        assert_eq!(DesEvent::DigestRefresh.log_line(9, no_route), "9 digest-refresh");
        assert_eq!(
            DesEvent::Churn { peer: PeerId(1), online: false }.log_line(2, no_route),
            "2 churn peer-1 online=false"
        );
    }
}
