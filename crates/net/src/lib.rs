//! # up2p-net
//!
//! Simulated peer-to-peer substrates for the U-P2P reproduction.
//!
//! The paper deliberately treats the network as a pluggable layer: a
//! community's schema names its `protocol` (Fig. 3: Napster, Gnutella or
//! FastTrack) and the servent only needs create/search/retrieve
//! primitives. This crate provides that trait ([`PeerNetwork`]) and one
//! deterministic discrete-event implementation of it, [`DesNetwork`],
//! driving a [`Substrate`] of one of three protocols:
//!
//! * Napster — a centralized index server,
//! * Gnutella — TTL flooding over an overlay,
//! * FastTrack — a two-tier super-peer network.
//!
//! A substrate keeps once what the protocols keep alike — liveness,
//! latency model, statistics, the opening of a query, the retrieve rule —
//! and beside it only what its protocol keeps alone: the server's index,
//! every peer's records in one [`RecordArena`], or the supers' indexes.
//! The two overlay protocols share one search core (the private
//! `overlay` module: visit and dedup rules, reverse-path `QueryHit`
//! accounting, frontier stop, blind and digest-guided forwarding). One
//! scheduler drives a substrate: [`DesNetwork`] owns it and moves every
//! query on one global virtual-time queue, a sequential search as much
//! as a timeline on which churn lands while queries are in flight. A
//! Gnutella hop verifies only the records whose signatures admit the
//! query. [`Substrate::build`] takes a [`NetConfig`] — latency model and
//! digest layer — for [`DesNetwork::build`] and so [`build_network_with`];
//! TTL, dedup and super-peer sizing are said once, on each protocol's
//! own constructor and config.
//!
//! No 2002 network exists to join, so the substrate reproduces *routing
//! semantics* (which peers are asked, how many messages, how many hops)
//! under seeded latency models, overlay topologies and churn — the
//! quantities experiments E3/E5/E6 report.
//!
//! ```
//! use up2p_net::{
//!     DesNetwork, FloodingConfig, LatencySpec, PeerId, PeerNetwork, ResourceRecord, Substrate,
//!     Topology,
//! };
//! use up2p_store::Query;
//!
//! let topo = Topology::small_world(64, 2, 0.2, 1);
//! let latency = LatencySpec::Constant(20_000).build(64, 1);
//! let mut net = DesNetwork::new(Substrate::gnutella(topo, latency, FloodingConfig::default()));
//! net.publish(PeerId(9), ResourceRecord::new(
//!     "k1",
//!     "patterns",
//!     vec![("pattern/name".to_string(), "Observer".to_string())],
//! ));
//! let out = net.search(PeerId(0), "patterns", &Query::any_keyword("observer"));
//! assert_eq!(out.hits.len(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod centralized;
pub mod churn;
mod des;
mod digest;
mod event;
mod flooding;
mod index_node;
mod latency;
mod message;
mod overlay;
mod peer;
pub mod sim;
mod stats;
mod substrate;
mod superpeer;
mod topology;
mod traits;

pub use des::DesNetwork;
pub use digest::{
    sign_record, DigestConfig, EntryVisitor, Probe, RouteTable, RoutingDigest, Signature,
};
pub use event::{DesEvent, PropMode};
pub use flooding::{FloodingConfig, RecordArena};
pub use index_node::{Entries, IndexNode};
pub use latency::{Latency, LatencySpec};
pub use message::{ResourceRecord, SearchHit, SharedFields, Time, DEFAULT_TTL};
pub use peer::PeerId;
pub use stats::{Fate, MsgKind, NetStats, RetrieveOutcome, SearchOutcome};
pub use substrate::Substrate;
pub use superpeer::SuperPeerConfig;
pub use topology::Topology;
pub use traits::{PeerNetwork, ProtocolKind, SearchRequest};

/// [`IndexNode`] under the second name `up2p_bench` compiles against.
pub type ShardedIndexNode = IndexNode;

/// What [`build_network_with`] / [`DesNetwork::build`] let a caller
/// choose. The rest is [`FloodingConfig::default`] (TTL, dedup) and
/// [`SuperPeerConfig::default`] (overlay degree and TTL) at
/// `ceil(sqrt(n))` super-peers; to set one of those, build the substrate
/// itself — [`Substrate::gnutella`], [`Substrate::fasttrack`] — and drive
/// it through [`DesNetwork::new`].
///
/// ```
/// use up2p_net::{DigestConfig, LatencySpec, NetConfig, PeerNetwork, ProtocolKind};
///
/// let config = NetConfig::new()
///     .latency(LatencySpec::Coordinate { base: 5_000, per_unit: 45_000 })
///     .digests(DigestConfig::guided());
/// let net = up2p_net::build_network_with(ProtocolKind::FastTrack, 256, 7, &config);
/// assert_eq!(net.peer_count(), 256);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Link latency model (all substrates).
    pub latency: LatencySpec,
    /// Routing-digest layer (guided search) for Gnutella and FastTrack.
    /// Disabled by default: blind flooding is the baseline behavior.
    pub digests: DigestConfig,
}

impl Default for NetConfig {
    /// Constant 20 ms links, no digests.
    fn default() -> Self {
        NetConfig { latency: LatencySpec::Constant(20_000), digests: DigestConfig::default() }
    }
}

impl NetConfig {
    /// The default configuration (builder entry point).
    pub fn new() -> NetConfig {
        NetConfig::default()
    }

    /// Sets the link latency model.
    pub fn latency(mut self, spec: LatencySpec) -> NetConfig {
        self.latency = spec;
        self
    }

    /// Sets the routing-digest (guided search) configuration.
    pub fn digests(mut self, digests: DigestConfig) -> NetConfig {
        self.digests = digests;
        self
    }

    /// The super-peer count an `n`-peer FastTrack substrate gets:
    /// `ceil(sqrt(n))`, clamped to `1..=n`.
    pub fn super_count(&self, n: usize) -> usize {
        ((n as f64).sqrt().ceil() as usize).clamp(1, n.max(1))
    }

    /// The Gnutella substrate's configuration: its defaults, with this
    /// digest layer.
    pub(crate) fn flooding(&self) -> FloodingConfig {
        FloodingConfig { digests: self.digests, ..FloodingConfig::default() }
    }

    /// The FastTrack substrate's configuration for `n` peers: its
    /// defaults at [`super_count`](Self::super_count), with this digest layer.
    pub(crate) fn super_peer(&self, n: usize) -> SuperPeerConfig {
        SuperPeerConfig { supers: self.super_count(n), digests: self.digests, ..SuperPeerConfig::default() }
    }
}

/// Builds a network of the given kind from an explicit configuration:
/// `n` peers, seeded topology/latency, all peers online, driven by
/// [`DesNetwork::build`].
pub fn build_network_with(
    kind: ProtocolKind,
    n: usize,
    seed: u64,
    config: &NetConfig,
) -> Box<dyn PeerNetwork + Send> {
    Box::new(DesNetwork::build(kind, n, seed, config))
}

/// Builds a network with the default [`NetConfig`], constant 20 ms
/// links and no digests:
///
/// * Napster: one index server.
/// * Gnutella: small-world overlay (2k = 4 neighbors, β = 0.2), TTL 7.
/// * FastTrack: `ceil(sqrt(n))` super-peers, TTL 4 on the super overlay.
pub fn build_network(kind: ProtocolKind, n: usize, seed: u64) -> Box<dyn PeerNetwork + Send> {
    build_network_with(kind, n, seed, &NetConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use up2p_store::Query;

    #[test]
    fn factory_builds_all_three() {
        for kind in [ProtocolKind::Napster, ProtocolKind::Gnutella, ProtocolKind::FastTrack] {
            let mut net = build_network(kind, 64, 7);
            assert_eq!(net.peer_count(), 64);
            assert_eq!(net.protocol_name(), kind.schema_value());
            net.publish(
                PeerId(3),
                ResourceRecord::new("k", "c", vec![("o/name".to_string(), "target".to_string())]),
            );
            let out = net.search(PeerId(40), "c", &Query::any_keyword("target"));
            assert_eq!(out.hits.len(), 1, "{kind} must find the record");
            let got = net.retrieve(PeerId(40), PeerId(3), "k");
            assert_ne!(got, RetrieveOutcome::Unavailable, "{kind} retrieve");
        }
    }

    #[test]
    fn net_config_defaults_match_build_network() {
        let config = NetConfig::default();
        assert_eq!(config.latency, LatencySpec::Constant(20_000));
        assert_eq!(config.flooding().ttl, DEFAULT_TTL);
        assert!(config.flooding().dedup);
        assert_eq!(config.super_count(64), 8, "sqrt sizing");
        assert_eq!(config.super_count(0), 1, "clamped to at least one");
    }

    #[test]
    fn build_network_with_honors_the_config() {
        let config = NetConfig::new().latency(LatencySpec::Constant(1_000));
        let latency = || config.latency.build(32, 7);
        let flooding = FloodingConfig { ttl: 2, dedup: false, ..FloodingConfig::default() };
        let supers = SuperPeerConfig { supers: 4, super_degree: 1, ttl: 2, ..SuperPeerConfig::default() };
        let nets: [(ProtocolKind, Box<dyn PeerNetwork>); 3] = [
            (ProtocolKind::Napster, build_network_with(ProtocolKind::Napster, 32, 7, &config)),
            (
                ProtocolKind::Gnutella,
                Box::new(DesNetwork::new(Substrate::gnutella(
                    Topology::small_world(32, 2, 0.2, 7),
                    latency(),
                    flooding,
                ))),
            ),
            (
                ProtocolKind::FastTrack,
                Box::new(DesNetwork::new(Substrate::fasttrack(32, supers, latency(), 7))),
            ),
        ];
        for (kind, mut net) in nets {
            net.publish(
                PeerId(1),
                ResourceRecord::new("k", "c", vec![("o/name".to_string(), "x".to_string())]),
            );
            let out = net.search(PeerId(1), "c", &Query::any_keyword("x"));
            assert_eq!(out.hits.len(), 1, "{kind}: own record is always reachable");
        }
        // Napster latency follows the configured model: 1 ms each way
        let mut net = build_network_with(ProtocolKind::Napster, 4, 7, &config);
        let out = net.search(PeerId(0), "c", &Query::All);
        assert_eq!(out.latency, 2_000);
    }

    #[test]
    fn message_cost_ordering_napster_fasttrack_gnutella() {
        // the E6 headline shape: centralized ≤ super-peer ≤ flooding
        let mut costs = Vec::new();
        for kind in [ProtocolKind::Napster, ProtocolKind::FastTrack, ProtocolKind::Gnutella] {
            let mut net = build_network(kind, 128, 11);
            net.publish(
                PeerId(5),
                ResourceRecord::new("k", "c", vec![("o/name".to_string(), "x".to_string())]),
            );
            let out = net.search(PeerId(100), "c", &Query::any_keyword("x"));
            costs.push((kind, out.messages));
        }
        assert!(costs[0].1 <= costs[1].1, "{costs:?}");
        assert!(costs[1].1 <= costs[2].1, "{costs:?}");
    }

    #[test]
    fn unknown_peer_operations_send_nothing_on_any_substrate() {
        // every protocol, with digests on where they apply
        let config = NetConfig::new().digests(DigestConfig::guided());
        let record =
            || ResourceRecord::new("k", "c", vec![("o/name".to_string(), "x".to_string())]);
        for kind in [ProtocolKind::Napster, ProtocolKind::Gnutella, ProtocolKind::FastTrack] {
            let mut net = build_network_with(kind, 16, 7, &config);
            net.publish(PeerId(2), record());
            net.reset_stats();
            for ghost in [PeerId(16), PeerId(u32::MAX)] {
                net.publish(ghost, record());
                net.unpublish(ghost, "k");
                let out = net.search(ghost, "c", &Query::any_keyword("x"));
                assert!(out.hits.is_empty() && out.messages == 0, "{kind}");
                for (origin, provider) in [(ghost, PeerId(2)), (PeerId(1), ghost)] {
                    let fetched = net.retrieve(origin, provider, "k");
                    assert_eq!(fetched, RetrieveOutcome::Unavailable, "{kind}");
                }
            }
            assert_eq!(net.stats().messages, 0, "{kind}: {:?}", net.stats().by_kind());
            let fates = Fate::ALL.map(|f| net.stats().fate_count(f));
            assert_eq!(fates, [0; 9], "{kind}");
            let got = net.retrieve(PeerId(1), PeerId(2), "k");
            assert_ne!(got, RetrieveOutcome::Unavailable, "{kind}: record intact");
        }
        // the accessor beside the trait: nobody is a ghost's super
        let net = DesNetwork::build(ProtocolKind::FastTrack, 16, 7, &config);
        for ghost in [PeerId(16), PeerId(u32::MAX)] {
            assert_eq!(net.substrate().super_of(ghost), None);
        }
        assert!(net.substrate().super_of(PeerId(9)).is_some());
    }
}
