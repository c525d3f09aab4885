//! Message and latency accounting for the simulated substrates.
//!
//! **Message conservation.** Each protocol sends a fixed set of
//! [`MsgKind`]s, and E6's cost comparison (§IV-B, §V) is their counts.
//! Each kind is counted once, where a step substrate sends it: the
//! overlay walk, the provider fetch and the digest refresh in the shared
//! overlay core; the Napster round trip and the publish uploads in their
//! substrates. `tests/conservation.rs` runs one script on every protocol,
//! blind and guided, under both schedulers, and holds the set of kinds
//! each sends to a table written in the test: a dropped emission empties
//! its kind, and a stray one (a Gnutella `Publish`) adds one.
//! `tests/des_equivalence.rs` holds [`DesNetwork`](crate::DesNetwork) to
//! the step substrate's count of every kind, so the DES engine counts
//! nothing of its own.

use crate::message::Time;
use std::collections::BTreeMap;

/// Declares [`MsgKind`], [`MsgKind::ALL`] and [`MsgKind::name`] from one
/// list, so no variant can be missing from the counter order or the
/// printed names.
macro_rules! msg_kinds {
    ($($(#[$doc:meta])* $kind:ident,)*) => {
        /// Dense discriminant of every message kind the substrates count.
        /// The per-message counter is an array bump indexed by this enum —
        /// no map lookup, string compare or allocation on the hot path.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum MsgKind {
            $($(#[$doc])* $kind,)*
        }

        impl MsgKind {
            /// Every kind, in counter order.
            pub const ALL: [MsgKind; 9] = [$(MsgKind::$kind),*];

            /// Kind name as the experiment tables print it.
            pub fn name(self) -> &'static str {
                match self {
                    $(MsgKind::$kind => stringify!($kind),)*
                }
            }
        }
    };
}

msg_kinds! {
    /// A metadata query propagating through the overlay.
    Query,
    /// Results travelling back toward the origin.
    QueryHit,
    /// Metadata upload to an index node.
    Publish,
    /// Removal of published metadata.
    Unpublish,
    /// Direct download request.
    Retrieve,
    /// Download response (success).
    RetrieveOk,
    /// Download response (failure).
    RetrieveFail,
    /// Routing digest advertisement to a neighbor (guided search).
    DigestPush,
    /// Digest handshake request to a new neighbor (guided search).
    DigestRequest,
}

/// Cumulative network statistics. Every substrate increments these; the
/// experiment harness reads them to produce the E3/E5/E6 tables.
#[derive(Debug, Clone, Default)]
pub struct NetStats {
    /// Total messages sent (any kind).
    pub messages: u64,
    /// Per-kind message counters, indexed by `MsgKind` discriminant.
    kind_counts: [u64; MsgKind::ALL.len()],
    /// Messages dropped at dead peers.
    pub dropped: u64,
    /// Queries issued.
    pub queries: u64,
    /// Queries that returned at least one hit.
    pub queries_with_hits: u64,
    /// Total hits returned.
    pub hits: u64,
    /// Retrievals attempted.
    pub retrieves: u64,
    /// Retrievals that succeeded.
    pub retrieves_ok: u64,
    /// Histogram of hop counts at which hits were found.
    pub hit_hops: BTreeMap<u8, u64>,
}

impl NetStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sent message of the given kind.
    pub fn sent(&mut self, kind: MsgKind) {
        self.messages += 1;
        self.kind_counts[kind as usize] += 1;
    }

    /// Records `n` sent messages of the given kind in one bump (digest
    /// refreshes report whole batches).
    pub fn sent_n(&mut self, kind: MsgKind, n: u64) {
        self.messages += n;
        self.kind_counts[kind as usize] += n;
    }

    /// Messages sent of one kind.
    pub fn count(&self, kind: MsgKind) -> u64 {
        self.kind_counts[kind as usize]
    }

    /// Messages by kind name (`Query`, `QueryHit`, ...), kinds with zero
    /// sends omitted — the reporting view over the dense counters.
    pub fn by_kind(&self) -> BTreeMap<&'static str, u64> {
        MsgKind::ALL
            .into_iter()
            .filter(|&k| self.count(k) > 0)
            .map(|k| (k.name(), self.count(k)))
            .collect()
    }

    /// Records `n` hits found at `hops` — one answer's worth; none
    /// leaves the histogram without an entry for `hops`.
    pub fn hits(&mut self, hops: u8, n: u64) {
        if n == 0 {
            return;
        }
        self.hits += n;
        *self.hit_hops.entry(hops).or_insert(0) += n;
    }

    /// Success rate of queries (hits ≥ 1).
    pub fn query_success_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.queries_with_hits as f64 / self.queries as f64
        }
    }

    /// Success rate of retrieves.
    pub fn retrieve_success_rate(&self) -> f64 {
        if self.retrieves == 0 {
            0.0
        } else {
            self.retrieves_ok as f64 / self.retrieves as f64
        }
    }

    /// Mean messages per issued query.
    pub fn messages_per_query(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.messages as f64 / self.queries as f64
        }
    }
}

/// Outcome of a single search operation.
#[derive(Debug, Clone, Default)]
pub struct SearchOutcome {
    /// Unique hits (key, provider) in arrival order.
    pub hits: Vec<crate::message::SearchHit>,
    /// Messages generated by this search (queries + hits).
    pub messages: u64,
    /// Virtual time from issue to the *last* hit arrival (or to
    /// quiescence when no hits).
    pub latency: Time,
    /// Virtual time to the first hit, if any.
    pub first_hit_latency: Option<Time>,
}

impl SearchOutcome {
    /// Distinct resource keys among the hits.
    pub fn distinct_keys(&self) -> usize {
        let mut keys: Vec<&str> = self.hits.iter().map(|h| h.key.as_str()).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.len()
    }
}

/// Outcome of a retrieve operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RetrieveOutcome {
    /// Object fetched from the given provider after the given delay.
    Fetched {
        /// Providing peer.
        provider: crate::peer::PeerId,
        /// Round-trip virtual time.
        latency: Time,
    },
    /// No live provider had the object.
    Unavailable,
}

impl RetrieveOutcome {
    /// `true` for [`RetrieveOutcome::Fetched`].
    pub fn is_fetched(&self) -> bool {
        matches!(self, RetrieveOutcome::Fetched { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates() {
        let mut s = NetStats::new();
        assert_eq!(s.query_success_rate(), 0.0);
        s.queries = 4;
        s.queries_with_hits = 3;
        assert_eq!(s.query_success_rate(), 0.75);
        s.retrieves = 2;
        s.retrieves_ok = 1;
        assert_eq!(s.retrieve_success_rate(), 0.5);
        s.messages = 40;
        assert_eq!(s.messages_per_query(), 10.0);
    }

    #[test]
    fn kind_counting() {
        let mut s = NetStats::new();
        s.sent(MsgKind::Query);
        s.sent(MsgKind::Query);
        s.sent(MsgKind::QueryHit);
        s.sent_n(MsgKind::DigestPush, 5);
        assert_eq!(s.messages, 8);
        assert_eq!(s.count(MsgKind::Query), 2);
        assert_eq!(s.count(MsgKind::QueryHit), 1);
        assert_eq!(s.count(MsgKind::DigestPush), 5);
        assert_eq!(s.count(MsgKind::Publish), 0);
        let view = s.by_kind();
        assert_eq!(view["Query"], 2);
        assert_eq!(view["QueryHit"], 1);
        assert_eq!(view["DigestPush"], 5);
        assert!(!view.contains_key("Publish"), "zero counts omitted");
        // names stay distinct and in counter order
        let names: Vec<&str> = MsgKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 9);
        assert_eq!(names[0], "Query");
    }

    #[test]
    fn hit_histogram() {
        let mut s = NetStats::new();
        s.hits(1, 1);
        s.hits(3, 2);
        s.hits(5, 0);
        assert_eq!(s.hits, 3);
        assert_eq!(s.hit_hops[&3], 2);
        assert!(!s.hit_hops.contains_key(&5), "an empty answer leaves no entry");
    }

    #[test]
    fn outcome_distinct_keys() {
        use crate::message::{SearchHit, SharedFields};
        use crate::peer::PeerId;
        let fields: SharedFields = Vec::new().into();
        let hit = |key: &str, provider, hops| SearchHit {
            key: key.into(),
            provider: PeerId(provider),
            fields: SharedFields::clone(&fields),
            hops,
        };
        let o = SearchOutcome {
            hits: vec![hit("a", 1, 1), hit("a", 2, 2), hit("b", 1, 1)],
            ..SearchOutcome::default()
        };
        assert_eq!(o.distinct_keys(), 2);
        assert!(!RetrieveOutcome::Unavailable.is_fetched());
    }
}
