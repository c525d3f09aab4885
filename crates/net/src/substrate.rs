//! The one substrate: Napster, Gnutella and FastTrack as one value.
//!
//! What every protocol keeps alike lives once, in [`Substrate`]: which
//! peers are online, the latency model, the statistics, the opening of a
//! query and the assembly of its walk. What differs is the private
//! `Protocol`: the Napster server's [`IndexNode`] (`centralized.rs`),
//! every Gnutella peer's records in one [`RecordArena`] (`flooding.rs`),
//! FastTrack's supers with their indexes (`superpeer.rs`); the two overlay
//! protocols share one [`Overlay`].
//!
//! A substrate is protocol state, not a network one can drive:
//! [`crate::DesNetwork`] owns one and moves each query a hop at a time on
//! its timeline through [`Substrate::issue`] and [`Substrate::deliver`],
//! and its [`crate::PeerNetwork`] impl writes, retrieves and toggles
//! liveness here. A hop is the overlay walk (`overlay.rs`) or the
//! server's answer, built here.

use crate::digest::{Probe, RouteTable};
use crate::flooding::{FloodingConfig, RecordArena};
use crate::index_node::IndexNode;
use crate::latency::Latency;
use crate::message::Time;
use crate::overlay::{is_alive, Eval, Hop, Overlay, Progress, Sink, Walk};
use crate::peer::PeerId;
use crate::stats::{Fate, NetStats};
use crate::superpeer::{SuperPeerConfig, Supers};
use crate::topology::Topology;
use crate::traits::ProtocolKind;
use crate::NetConfig;
use up2p_store::Query;

/// A simulated peer-to-peer network of one protocol: Napster's index
/// server, Gnutella's TTL-limited flood over an overlay, or FastTrack's
/// super-peer flood with leaves uploading to their super.
///
/// Build it with [`Substrate::build`] from a [`NetConfig`], or with the
/// per-protocol constructors to set the overlay, TTL, dedup rule or
/// super count; then hand it to [`crate::DesNetwork::new`], which drives
/// it.
pub struct Substrate {
    pub(crate) alive: Vec<bool>,
    pub(crate) latency: Latency,
    pub(crate) stats: NetStats,
    pub(crate) protocol: Protocol,
}

/// What one protocol keeps that the others do not.
pub(crate) enum Protocol {
    /// The server's indexed record table.
    Napster(IndexNode),
    /// The flat overlay and what every peer shares from its own store.
    Gnutella(Overlay, RecordArena),
    /// The overlay among the supers and their leaves' records.
    FastTrack(Overlay, Supers),
}

impl std::fmt::Debug for Substrate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Substrate")
            .field("kind", &self.kind())
            .field("peers", &self.alive.len())
            .field("edges", &self.topology().map(Topology::edge_count))
            .finish()
    }
}

impl Substrate {
    fn new(peers: usize, latency: Latency, protocol: Protocol) -> Substrate {
        Substrate { alive: vec![true; peers], latency, stats: NetStats::new(), protocol }
    }

    /// Napster: `peers` peers, all online, and one index server; `latency`
    /// times peer↔server and peer↔peer links alike.
    pub fn napster(peers: usize, latency: Latency) -> Substrate {
        Substrate::new(peers, latency, Protocol::Napster(IndexNode::new()))
    }

    /// Gnutella over `topology`, every peer online.
    pub fn gnutella(topology: Topology, latency: Latency, config: FloodingConfig) -> Substrate {
        let n = topology.len();
        let walk_seed = 0xd16e_57ed ^ n as u64;
        let overlay = Overlay::new(topology, config.digests, walk_seed, config.ttl, config.dedup);
        Substrate::new(n, latency, Protocol::Gnutella(overlay, RecordArena::with_peers(n)))
    }

    /// FastTrack: `peers` peers, all online. The first `config.supers`
    /// ids are super-peers; every other peer is assigned a uniformly
    /// random super (seeded).
    ///
    /// # Panics
    ///
    /// Panics if `config.supers` is zero or exceeds `peers`.
    pub fn fasttrack(
        peers: usize,
        config: SuperPeerConfig,
        latency: Latency,
        seed: u64,
    ) -> Substrate {
        let (supers, topology) = Supers::new(peers, config, seed);
        let overlay = Overlay::new(topology, config.digests, seed ^ 0x3a1f_7a1c, config.ttl, true);
        Substrate::new(peers, latency, Protocol::FastTrack(overlay, supers))
    }

    /// A substrate of `kind` for `peers` peers from `config`, seeded by
    /// `seed` — the mapping [`crate::DesNetwork::build`], and with it
    /// [`crate::build_network_with`], drives:
    ///
    /// * Napster: one index server.
    /// * Gnutella: small-world overlay (2k = 4 neighbors, β = 0.2) under
    ///   [`NetConfig`]'s digests and [`FloodingConfig`]'s defaults.
    /// * FastTrack: [`NetConfig::super_count`] super-peers under
    ///   [`NetConfig`]'s digests and [`SuperPeerConfig`]'s defaults.
    pub fn build(kind: ProtocolKind, peers: usize, seed: u64, config: &NetConfig) -> Substrate {
        let latency = config.latency.build(peers, seed);
        match kind {
            ProtocolKind::Napster => Substrate::napster(peers, latency),
            ProtocolKind::Gnutella => {
                let topology = Topology::small_world(peers, 2, 0.2, seed);
                Substrate::gnutella(topology, latency, config.flooding())
            }
            ProtocolKind::FastTrack => {
                Substrate::fasttrack(peers, config.super_peer(peers), latency, seed)
            }
        }
    }

    /// Which protocol this substrate runs.
    pub fn kind(&self) -> ProtocolKind {
        match self.protocol {
            Protocol::Napster(_) => ProtocolKind::Napster,
            Protocol::Gnutella(..) => ProtocolKind::Gnutella,
            Protocol::FastTrack(..) => ProtocolKind::FastTrack,
        }
    }

    fn overlay(&self) -> Option<&Overlay> {
        match &self.protocol {
            Protocol::Napster(_) => None,
            Protocol::Gnutella(overlay, _) | Protocol::FastTrack(overlay, _) => Some(overlay),
        }
    }

    /// The graph a query walks: the peers' overlay (Gnutella) or the
    /// supers' (FastTrack, whose node ids are super indices). `None` on
    /// Napster.
    pub fn topology(&self) -> Option<&Topology> {
        self.overlay().map(|o| &o.topology)
    }

    /// The routing digests over the overlay; `None` on Napster. They are
    /// built by the first guided search, and only with digests enabled.
    pub fn routes(&self) -> Option<&RouteTable> {
        self.overlay().map(|o| &o.routes)
    }

    /// The super-peer index `peer` reports to; `None` for an id outside
    /// the network and on every protocol but FastTrack.
    pub fn super_of(&self, peer: PeerId) -> Option<usize> {
        match &self.protocol {
            Protocol::FastTrack(_, supers) => supers.super_of(peer),
            _ => None,
        }
    }

    /// Deterministic estimate of resident state in bytes: liveness, the
    /// protocol's records and, on an overlay, its edges and digests.
    pub(crate) fn approx_bytes(&self) -> u64 {
        let records = match &self.protocol {
            Protocol::Napster(server) => server.len() as u64 * 256,
            Protocol::Gnutella(_, shared) => shared.approx_bytes(),
            Protocol::FastTrack(_, supers) => supers.approx_bytes(),
        };
        self.alive.len() as u64 + records + self.overlay().map_or(0, Overlay::approx_bytes)
    }

    /// Brings the routing digests up to date with the writes since the
    /// last refresh and repropagates the attenuated layers they changed,
    /// counting the `DigestRequest`/`DigestPush` exchange the refresh
    /// costs. A no-op on Napster, when guided search is disabled, or when
    /// nothing changed since the last refresh; guided searches call this
    /// lazily.
    pub fn refresh_digests(&mut self) {
        let Substrate { stats, protocol, .. } = self;
        match protocol {
            Protocol::Napster(_) => {}
            Protocol::Gnutella(overlay, shared) => {
                overlay.refresh(stats, |p, visit| shared.for_each_record(p, visit))
            }
            Protocol::FastTrack(overlay, supers) => {
                overlay.refresh(stats, |s, visit| supers.index(s).for_each_record(visit))
            }
        }
    }

    /// Opens a query: counts it, and for a live origin brings the digests
    /// up to date. `false` means the query never leaves.
    fn begin_query(&mut self, origin: PeerId) -> bool {
        self.stats.queries += 1;
        let live = is_alive(&self.alive, origin);
        if live {
            self.refresh_digests();
        }
        live
    }

    /// Where a query from `origin` enters the overlay: its super on
    /// FastTrack, the origin itself (`None`) on Gnutella.
    fn entry(&self, origin: PeerId) -> Option<u32> {
        self.super_of(origin).map(|s| s as u32)
    }

    /// The walk of one query over the overlay, and the local evaluation
    /// its hops run: a Gnutella peer in the query's admitted set verifies
    /// the records its signatures admit for `probe`, the query compiled
    /// for `community`; a super answers for its live leaves from its own
    /// index. On Gnutella the admitted set in `p`, and the community's
    /// interned id with it, are first brought up to the arena's writes.
    /// `None` on Napster, which has no overlay.
    #[inline(always)]
    pub(crate) fn walk<'a>(
        &'a mut self,
        p: &mut Progress,
        community: &'a str,
        query: &'a Query,
        probe: &'a Probe,
    ) -> Option<(Walk<'a>, impl Eval + 'a)> {
        let Substrate { alive, latency, stats, protocol } = self;
        let alive: &'a [bool] = alive;
        let (overlay, shares) = match protocol {
            Protocol::Napster(_) => return None,
            Protocol::Gnutella(overlay, shared) => {
                let cid = p.admit(shared.writes(), |set| {
                    shared.admitted(probe, set);
                    shared.community_id(community)
                });
                (overlay, Shares::Arena(shared, cid))
            }
            Protocol::FastTrack(overlay, supers) => (overlay, Shares::Index(supers)),
        };
        let eval = move |node: u32, admitted: &[u64]| match shares {
            Shares::Arena(shared, Some(cid)) => {
                shared.verify(node, cid, query, shared.candidates(node, admitted, probe))
            }
            Shares::Arena(_, None) => Vec::new(),
            Shares::Index(supers) => {
                let mut matches = Vec::new();
                let live = |p| is_alive(alive, p);
                supers.index(node).search(community, query, live, |key, provider, fields| {
                    matches.push((key.to_string(), provider, fields.clone()))
                });
                matches
            }
        };
        Some((overlay.walk(alive, latency, stats, probe), eval))
    }

    /// The first event of a query the DES engine scheduled at `origin`,
    /// at `t`: opens it, then sends the Napster request toward the server
    /// or starts the overlay walk. Returns the fate of the hop this was,
    /// if it was one ([`Walk::start`]).
    #[expect(clippy::too_many_arguments, reason = "the DES engine passes the query's fields apart, borrowed from its own event and progress state")]
    pub(crate) fn issue<S: Sink>(
        &mut self,
        p: &mut Progress,
        t: Time,
        origin: PeerId,
        community: &str,
        query: &Query,
        probe: &Probe,
        sink: &mut S,
    ) -> Option<Fate> {
        if !self.begin_query(origin) {
            return None;
        }
        if let Protocol::Napster(_) = self.protocol {
            let at = self.server_trip(p, t, origin);
            sink.forward(at, Hop::SERVER);
            return None;
        }
        let entry = self.entry(origin);
        let (mut walk, eval) = self.walk(p, community, query, probe)?;
        walk.start(p, t, origin.0, entry, eval, sink)
    }

    /// A copy of the query reaches `hop.to` at `t`: an overlay node runs
    /// its hop, or the server answers, its reply landing when
    /// [`Substrate::issue`] drew it. Returns the hop's fate.
    #[expect(clippy::too_many_arguments, reason = "the DES engine passes the query's fields apart, borrowed from its own event and progress state")]
    #[inline(always)]
    pub(crate) fn deliver<S: Sink>(
        &mut self,
        p: &mut Progress,
        t: Time,
        hop: Hop,
        community: &str,
        query: &Query,
        probe: &Probe,
        sink: &mut S,
    ) -> Fate {
        if let Some((mut walk, eval)) = self.walk(p, community, query, probe) {
            return walk.arrive(p, t, hop, eval, sink);
        }
        let hits = self.answer(p, community, query);
        sink.hits_return(p.quiescence, hits);
        Fate::Answered
    }
}

/// The records a hop of the walk evaluates: a Gnutella peer's in the
/// arena, with the query's community interned there (`None`: no record
/// of it exists), or a super's index.
#[derive(Clone, Copy)]
enum Shares<'a> {
    Arena(&'a RecordArena, Option<u32>),
    Index(&'a Supers),
}
