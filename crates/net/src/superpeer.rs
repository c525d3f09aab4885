//! FastTrack: leaves publish metadata to their super-peer; queries
//! flood only the (much smaller) super-peer overlay.
//!
//! Sits between Napster and Gnutella in the E6 comparison: no single
//! server, but message cost scales with super-peer edges rather than all
//! peers. Every super-peer's record table is an [`IndexNode`], so each
//! super answers a query with a posting-list lookup over its leaves'
//! records instead of scanning them. What is FastTrack's alone — the
//! leaves' assignment and its repair when a super leaves, the supers'
//! indexes and the leaf↔super write path — is [`Supers`]; the rest of
//! the protocol is the one [`crate::Substrate`]'s and its driver's,
//! [`crate::DesNetwork`]. Who
//! shares what is said once, by the provider sets of those indexes: a
//! retrieve asks the provider's super, as Napster's asks its server.

use crate::digest::{DigestConfig, RouteTable};
use crate::index_node::IndexNode;
use crate::message::{ResourceRecord, SharedFields};
use crate::overlay::is_alive;
use crate::peer::PeerId;
use crate::stats::{MsgKind, NetStats};
use crate::topology::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use up2p_store::{ResourceId, SymbolTable};

/// Configuration for the super-peer substrate.
#[derive(Debug, Clone, Copy)]
pub struct SuperPeerConfig {
    /// Number of super-peers (the first `supers` peer ids).
    pub supers: usize,
    /// Each-side neighbor count of the super-peer ring lattice before
    /// small-world rewiring.
    pub super_degree: usize,
    /// TTL for flooding among super-peers.
    pub ttl: u8,
    /// Routing-digest layer over the super overlay; `enabled: true`
    /// prunes the super-peer flood, as the `search_guided` workload runs it.
    pub digests: DigestConfig,
}

impl Default for SuperPeerConfig {
    fn default() -> Self {
        SuperPeerConfig { supers: 8, super_degree: 2, ttl: 4, digests: DigestConfig::default() }
    }
}

/// The supers of a FastTrack network and what they index: super `s` is
/// peer `s`, node `s` of the super overlay, and holds index `s`.
///
/// A leaf's upload is queued at its super and applied with every other
/// queued one by [`Supers::settle`], the one way to the indexes: what
/// reads them settles first, so it sees each upload as if it had been
/// applied when sent. Applied together, a super's uploads find its index
/// warm in cache; applied as they arrive, interleaved over every super,
/// each would find its index cold.
pub(crate) struct Supers {
    settled: Settled,
    /// Per super, the uploads not yet in its index, in arrival order.
    uploads: Vec<Vec<Upload>>,
    /// Whether any of `uploads` holds one.
    queued: bool,
    /// The community names of queued uploads.
    communities: SymbolTable,
}

/// One queued upload: what the super's index keeps of the record.
struct Upload {
    provider: PeerId,
    id: ResourceId,
    /// The community, interned in [`Supers`]'s `communities`.
    community: u32,
    fields: SharedFields,
}

/// The supers with every upload applied, handed out by
/// [`Supers::settle`].
///
/// Every live leaf is homed at a live super, unless no super is live:
/// [`Settled::rehome`] restores that after each change of liveness.
pub(crate) struct Settled {
    /// peer index → index of its super-peer (supers map to themselves).
    super_of: Vec<u32>,
    /// Per-super metadata index over its leaves' records, and with its
    /// provider sets the one record of which peer shares which key.
    indexes: Vec<IndexNode>,
    /// How many times leaves have moved to another super: a query that
    /// saw another count at issue may meet a leaf's records at two.
    moves: u64,
}

impl Supers {
    /// The supers of `n` peers and the overlay among them: the first
    /// `config.supers` ids are supers, every other peer is assigned a
    /// uniformly random one (seeded).
    ///
    /// # Panics
    ///
    /// Panics if `config.supers` is zero or exceeds `n`.
    #[expect(clippy::disallowed_macros, reason = "`# Panics` unless 1 <= supers <= n; `Substrate::build` passes `NetConfig::super_count`, clamped to 1..=n, and builds at least one peer; the other callers are tests with literal counts below n")]
    pub fn new(n: usize, config: SuperPeerConfig, seed: u64) -> (Supers, Topology) {
        assert!(config.supers > 0 && config.supers <= n, "invalid super count");
        let mut rng = StdRng::seed_from_u64(seed);
        let super_of = (0..n)
            .map(|i| if i < config.supers { i } else { rng.gen_range(0..config.supers) } as u32)
            .collect();
        let topology = if config.supers <= 3 {
            Topology::ring_lattice(config.supers, 1)
        } else {
            Topology::small_world(config.supers, config.super_degree, 0.2, seed ^ 0x5eed)
        };
        let settled = Settled {
            super_of,
            indexes: std::iter::repeat_with(IndexNode::new).take(config.supers).collect(),
            moves: 0,
        };
        let uploads = std::iter::repeat_with(Vec::new).take(config.supers).collect();
        let communities = SymbolTable::default();
        (Supers { settled, uploads, queued: false, communities }, topology)
    }

    /// The super-peer index a peer is attached to; `None` for an id
    /// outside the network.
    pub fn super_of(&self, peer: PeerId) -> Option<usize> {
        self.settled.super_of(peer)
    }

    /// A live peer of the network shares `record`: a leaf uploads it to
    /// its super (one `Publish`), which queues it for [`Supers::settle`].
    pub fn publish(&mut self, provider: PeerId, record: ResourceRecord, stats: &mut NetStats) {
        let s = self.settled.super_of[provider.index()];
        if s != provider.0 {
            stats.sent(MsgKind::Publish); // leaf → super upload
        }
        let ResourceRecord { key, community, fields } = record;
        let (id, community) = (ResourceId::from_key(&key), self.communities.intern(&community));
        self.uploads[s as usize].push(Upload { provider, id, community, fields });
        self.queued = true;
    }

    /// The supers with every queued upload applied, super by super in
    /// arrival order through [`IndexNode::insert`]'s rule (the first
    /// record under a key wins); `routes` hears of each record that
    /// entered an index.
    #[inline]
    pub fn settle(&mut self, routes: &mut RouteTable) -> &mut Settled {
        if std::mem::take(&mut self.queued) {
            self.apply_uploads(routes);
        }
        &mut self.settled
    }

    fn apply_uploads(&mut self, routes: &mut RouteTable) {
        let indexes = &mut self.settled.indexes;
        for ((s, queue), index) in (0u32..).zip(&mut self.uploads).zip(indexes) {
            // taken, not drained: the queue's memory goes back before
            // the next index grows
            for Upload { provider, id, community, fields } in std::mem::take(queue) {
                let community = self.communities.name(community);
                index.upload(provider, id, community, fields, |entries| {
                    routes.record_added(s, |visit| entries.visit(visit))
                });
            }
        }
    }
}

impl Settled {
    /// The super-peer index a peer is attached to; `None` for an id
    /// outside the network.
    fn super_of(&self, peer: PeerId) -> Option<usize> {
        self.super_of.get(peer.index()).map(|&s| s as usize)
    }

    /// Super `s`'s index.
    pub fn index(&self, s: u32) -> &IndexNode {
        &self.indexes[s as usize]
    }

    /// Super `s`'s index, to read its records' digest entries off
    /// ([`IndexNode::for_each_entry`]).
    pub fn index_mut(&mut self, s: u32) -> &mut IndexNode {
        &mut self.indexes[s as usize]
    }

    /// Does `provider` hold the object `key`? Its super's index lists it
    /// among the record's providers exactly while it shares the key.
    pub fn owns(&self, provider: PeerId, key: &str) -> bool {
        self.super_of(provider).is_some_and(|s| self.indexes[s].has_provider(key, provider))
    }

    /// A peer of the network withdraws `key`: a leaf tells its super (one
    /// `Unpublish`). `routes` hears of the record when it left the index
    /// with its last provider.
    pub fn unpublish(
        &mut self,
        provider: PeerId,
        key: &str,
        stats: &mut NetStats,
        routes: &mut RouteTable,
    ) {
        let s = self.super_of[provider.index()];
        if s != provider.0 {
            stats.sent(MsgKind::Unpublish);
        }
        self.indexes[s as usize].withdraw(provider, key, |entries| {
            routes.record_removed(s, |visit| entries.visit(visit))
        });
    }

    /// How many times leaves have moved to another super so far.
    pub fn moves(&self) -> u64 {
        self.moves
    }

    /// Restores the invariant after `peer`'s liveness became the one
    /// `alive` gives it. A super gone offline hands its live leaves,
    /// together, to the live super with the fewest records (ties to the
    /// lowest id); a leaf back online under an offline super moves there
    /// alone; the first super back while none was live takes every live
    /// leaf. A super that returns does not take back the leaves that
    /// moved away. Each moved record is the leaf's re-upload (one
    /// `Publish`); `routes` hears of every record that left or entered
    /// an index.
    pub fn rehome(
        &mut self,
        peer: PeerId,
        alive: &[bool],
        stats: &mut NetStats,
        routes: &mut RouteTable,
    ) {
        let live = |p: u32| is_alive(alive, PeerId(p));
        let Some(&home) = self.super_of.get(peer.index()) else { return };
        let supers = 0..self.indexes.len() as u32;
        if home != peer.0 {
            // a leaf: it moves only when it came online under an offline super
            if live(peer.0) && !live(home) {
                if let Some(to) = self.emptiest(alive) {
                    self.move_leaves(home, to, |leaf| leaf == peer.0, stats, routes);
                }
            }
        } else if !live(home) {
            if let Some(to) = self.emptiest(alive) {
                self.move_leaves(home, to, live, stats, routes);
            }
        } else if supers.clone().filter(|&s| live(s)).count() == 1 {
            // the first super back: every live leaf was homed at an offline one
            for from in supers.filter(|&s| s != home) {
                self.move_leaves(from, home, live, stats, routes);
            }
        }
    }

    /// The live super with the fewest records, ties to the lowest id;
    /// `None` when no super is live.
    fn emptiest(&self, alive: &[bool]) -> Option<u32> {
        let supers = 0..self.indexes.len() as u32;
        let live = supers.filter(|&s| is_alive(alive, PeerId(s)));
        live.min_by_key(|&s| (self.indexes[s as usize].len(), s))
    }

    /// Moves the leaves homed at `from` that `which` picks to `to`, with
    /// their records: `from`'s index is read once, and each picked share
    /// enters `to`'s as a `Publish` with the id, fields and term symbols
    /// `from` holds — no value is tokenized again — before it leaves
    /// `from`'s.
    fn move_leaves(
        &mut self,
        from: u32,
        to: u32,
        which: impl Fn(u32) -> bool,
        stats: &mut NetStats,
        routes: &mut RouteTable,
    ) {
        let picked = |leaf: u32| leaf != from && which(leaf);
        let mut shares = Vec::new();
        self.indexes[from as usize].for_each_share(|share, provider| {
            if picked(provider.0) {
                shares.push((share, provider));
            }
        });
        for (share, provider) in shares {
            let Ok([src, dst]) = self.indexes.get_disjoint_mut([from as usize, to as usize]) else {
                break; // `from` is `to`: nothing moves
            };
            stats.sent(MsgKind::Publish); // the leaf's re-upload
            dst.take_over(provider, src, share, |entries| {
                routes.record_added(to, |visit| entries.visit(visit))
            });
            src.remove_share(provider, share, |entries| {
                routes.record_removed(from, |visit| entries.visit(visit))
            });
        }
        let mut moved = false;
        for (leaf, home) in (0u32..).zip(&mut self.super_of) {
            if *home == from && picked(leaf) {
                *home = to;
                moved = true;
            }
        }
        self.moves += u64::from(moved);
    }

    /// Deterministic estimate of resident bytes: super indexes and the
    /// leaves' assignment.
    pub fn approx_bytes(&self) -> u64 {
        let indexes: u64 = self.indexes.iter().map(|i| i.len() as u64 * 256).sum();
        indexes + self.super_of.len() as u64 * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::exponential_schedule;
    use crate::digest::for_each_record_entry;
    use crate::des::DesNetwork;
    use crate::latency::LatencySpec;
    use crate::stats::{Fate, RetrieveOutcome, SearchOutcome};
    use crate::substrate::{Protocol, Substrate};
    use crate::traits::{PeerNetwork, SearchRequest};
    use proptest::collection::vec as pvec;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};
    use up2p_store::Query;

    fn record(key: &str, name: &str) -> ResourceRecord {
        ResourceRecord::new(key, "c", vec![("o/name".to_string(), name.to_string())])
    }

    fn net(n: usize, supers: usize) -> DesNetwork {
        DesNetwork::new(Substrate::fasttrack(
            n,
            SuperPeerConfig { supers, super_degree: 2, ttl: 6, ..SuperPeerConfig::default() },
            LatencySpec::Constant(1_000).build(n, 1),
            42,
        ))
    }

    #[test]
    fn leaves_are_assigned_to_supers() {
        let net = net(50, 5);
        for p in 0..50u32 {
            let s = net.substrate().super_of(PeerId(p)).expect("in range");
            assert!(s < 5);
            // a peer is a super exactly when it is its own super
            assert_eq!(s == p as usize, p < 5, "peer {p} under super {s}");
        }
    }

    #[test]
    fn publish_search_across_supers() {
        let mut net = net(50, 5);
        net.publish(PeerId(30), record("k", "observer"));
        let out = net.search(PeerId(40), "c", &Query::any_keyword("observer"));
        assert_eq!(out.hits.len(), 1);
        assert_eq!(out.hits[0].provider, PeerId(30));
        assert!(out.messages >= 2, "at least uplink + some flooding");
    }

    #[test]
    fn message_cost_scales_with_supers_not_peers() {
        let mut big_flat = net(400, 5);
        big_flat.publish(PeerId(300), record("k", "x"));
        let out = big_flat.search(PeerId(200), "c", &Query::any_keyword("x"));
        // super overlay has 5 nodes / ~10 edges; cost must not approach 400
        assert!(out.messages < 50, "messages {} should be tiny", out.messages);
        assert_eq!(out.hits.len(), 1);
    }

    #[test]
    fn a_dead_supers_leaves_search_from_a_live_one_and_stay_there() {
        let mut net = net(20, 4);
        let (leaf, other) = (PeerId(15), PeerId(10));
        let s = net.substrate().super_of(leaf).expect("in range");
        net.publish(other, record("k", "x"));
        net.publish(leaf, record("k15", "y"));
        let homed_at_s = |p: &&PeerId| net.substrate().super_of(**p) == Some(s);
        let moved = [other, leaf].iter().filter(homed_at_s).count() as u64;
        net.reset_stats();
        net.set_alive(PeerId(s as u32), false);
        let to = net.substrate().super_of(leaf).expect("in range");
        assert_ne!(to, s, "the leaf left its offline super");
        assert_eq!(net.stats().count(MsgKind::Publish), moved, "one re-upload per moved record");
        let providers = |net: &mut DesNetwork, word| -> Vec<PeerId> {
            let out = net.search(leaf, "c", &Query::any_keyword(word));
            out.hits.into_iter().map(|h| h.provider).collect()
        };
        assert_eq!(providers(&mut net, "x"), [other], "the leaf searches through its new super");
        assert_eq!(providers(&mut net, "y"), [leaf], "and its record answers from there");
        net.set_alive(PeerId(s as u32), true);
        assert_eq!(net.substrate().super_of(leaf), Some(to), "the super returns without it");
        assert_eq!(providers(&mut net, "y"), [leaf]);
        assert_eq!(net.stats().count(MsgKind::Publish), moved, "nothing moved back");
    }

    #[test]
    fn leaves_move_to_the_live_super_with_the_fewest_records() {
        let mut net = net(40, 4);
        let sup = |net: &DesNetwork, p: u32| net.substrate().super_of(PeerId(p)).expect("in range");
        // super 0 holds two records, super 1 none, supers 2 and 3 one each
        net.publish(PeerId(0), record("a", "x"));
        net.publish(PeerId(0), record("b", "x"));
        net.publish(PeerId(2), record("c", "x"));
        net.publish(PeerId(3), record("d", "x"));
        let leaves: Vec<u32> = (4..40).filter(|&p| sup(&net, p) == 1).collect();
        net.set_alive(PeerId(1), false);
        // super 1's leaves go together to the fewest records, ties to the lowest id
        assert!(leaves.iter().all(|&p| sup(&net, p) == 2), "{leaves:?}");
        // a leaf offline when its super left stays; back online, it moves alone
        let lone = (4..40).find(|&p| sup(&net, p) == 3).expect("a leaf of super 3");
        net.set_alive(PeerId(lone), false);
        net.set_alive(PeerId(3), false);
        assert_eq!(sup(&net, lone), 3, "an offline leaf is not moved");
        net.set_alive(PeerId(lone), true);
        assert_ne!(sup(&net, lone), 3);
        // every super offline: the leaves wait, and the first super back takes them all
        for s in [0, 2] {
            net.set_alive(PeerId(s), false);
        }
        let out = net.search(PeerId(lone), "c", &Query::All);
        assert_eq!((out.hits.len(), net.stats().fate_count(Fate::Dead)), (0, 1), "a dead uplink");
        net.set_alive(PeerId(3), true);
        assert!((4..40).all(|p| sup(&net, p) == 3), "every live leaf is at the one live super");
        assert_eq!(net.search(PeerId(lone), "c", &Query::All).hits.len(), 1, "d, at super 3");
    }

    #[test]
    fn dead_provider_filtered() {
        let mut net = net(20, 4);
        net.publish(PeerId(10), record("k", "x"));
        net.set_alive(PeerId(10), false);
        let out = net.search(PeerId(12), "c", &Query::any_keyword("x"));
        assert!(out.hits.is_empty());
        assert_eq!(net.retrieve(PeerId(12), PeerId(10), "k"), RetrieveOutcome::Unavailable);
    }

    #[test]
    fn super_origin_searches_without_uplink() {
        let mut net = net(20, 4);
        net.publish(PeerId(0), record("k", "x"));
        let out = net.search(PeerId(0), "c", &Query::any_keyword("x"));
        assert_eq!(out.hits.len(), 1);
        assert_eq!(out.hits[0].hops, 0, "own index, no uplink hop");
    }

    #[test]
    fn retrieve_round_trip() {
        let mut net = net(20, 4);
        net.publish(PeerId(10), record("k", "x"));
        let got = net.retrieve(PeerId(12), PeerId(10), "k");
        assert_ne!(got, RetrieveOutcome::Unavailable);
        if let RetrieveOutcome::Fetched { latency, .. } = got {
            assert_eq!(latency, 2_000);
        }
    }

    #[test]
    fn unpublish_removes_from_super_index() {
        let mut net = net(20, 4);
        net.publish(PeerId(10), record("k", "x"));
        net.unpublish(PeerId(10), "k");
        let out = net.search(PeerId(12), "c", &Query::any_keyword("x"));
        assert!(out.hits.is_empty());
    }

    #[test]
    fn the_read_straight_after_an_upload_sees_it() {
        // each read comes straight after the publish, nothing between it
        // applies the queued upload
        let blind = || net(20, 4);
        let fresh = || {
            let mut net = guided_net(20, 4);
            net.publish(PeerId(10), record("k", "x"));
            net
        };
        let providers = |net: &mut DesNetwork, origin| -> Vec<PeerId> {
            let out = net.search(PeerId(origin), "c", &Query::any_keyword("x"));
            out.hits.into_iter().map(|h| h.provider).collect()
        };
        let mut net = fresh();
        let home = net.substrate().super_of(PeerId(10)).expect("in range");
        let other = (11..20).find(|&p| net.substrate().super_of(PeerId(p)) != Some(home));
        let other = other.expect("a leaf of another super");
        assert_eq!(providers(&mut net, other), [PeerId(10)], "a search from another super's leaf");
        let got = fresh().retrieve(PeerId(other), PeerId(10), "k");
        assert_ne!(got, RetrieveOutcome::Unavailable, "a retrieve");
        let mut net = fresh();
        net.unpublish(PeerId(10), "k");
        assert!(providers(&mut net, other).is_empty(), "an unpublish withdraws it");
        assert_eq!(net.retrieve(PeerId(other), PeerId(10), "k"), RetrieveOutcome::Unavailable);
        let mut net = fresh();
        net.set_alive(PeerId(home as u32), false);
        assert_ne!(net.substrate().super_of(PeerId(10)), Some(home));
        assert_eq!(net.stats().count(MsgKind::Publish), 2, "the upload, then its move");
        assert_eq!(providers(&mut net, other), [PeerId(10)], "it moved with its leaf");
        // the estimate counts the upload whether or not a read applied it
        let [mut queued, mut applied] = [(); 2].map(|_| blind());
        for n in [&mut queued, &mut applied] {
            n.publish(PeerId(10), record("k", "x"));
        }
        applied.refresh_digests(); // blind: applies the upload, builds nothing
        let bytes = applied.substrate.approx_bytes();
        assert_eq!(queued.substrate.approx_bytes(), bytes);
        assert_eq!(bytes, blind().substrate.approx_bytes() + 256, "one record more");
    }

    #[test]
    fn a_query_in_flight_finds_an_upload_at_every_super_it_reaches_after() {
        let mut net = net(50, 5);
        let sup = |net: &DesNetwork, p: u32| net.substrate().super_of(PeerId(p)).expect("in range");
        // one leaf under each super publishes once the query has left
        let leaves: Vec<u32> =
            (0..5).map(|s| (5..50).find(|&p| sup(&net, p) == s).expect("a leaf")).collect();
        let origin = (5..50).find(|p| !leaves.contains(p)).expect("another leaf");
        let dead = (5..50).rev().find(|p| !leaves.contains(p) && *p != origin).expect("a third");
        let qid = net.schedule_query(0, PeerId(origin), "c", Query::All);
        // a search from an offline peer pumps the timeline up to its own
        // end: the query above is issued, and its uplink is in flight
        net.set_alive(PeerId(dead), false);
        assert!(net.search(PeerId(dead), "c", &Query::All).hits.is_empty());
        assert!(net.take_outcome(qid).is_none(), "still in flight");
        for &leaf in &leaves {
            net.publish(PeerId(leaf), record(&format!("k{leaf}"), "x"));
        }
        let out = net.run();
        let found: BTreeSet<u32> = out[0].hits.iter().map(|h| h.provider.0).collect();
        assert_eq!(found, leaves.into_iter().collect(), "the flood reaches every super");
    }

    #[test]
    #[should_panic(expected = "invalid super count")]
    fn zero_supers_rejected() {
        net(10, 0);
    }

    #[test]
    fn retrieve_failure_kinds_are_counted() {
        let mut net = net(20, 4);
        net.publish(PeerId(10), record("k", "x"));
        assert_ne!(net.retrieve(PeerId(12), PeerId(10), "k"), RetrieveOutcome::Unavailable);
        // live provider without the object answers RetrieveFail
        assert_eq!(net.retrieve(PeerId(12), PeerId(11), "k"), RetrieveOutcome::Unavailable);
        // dead provider: the request is dropped, no response of any kind
        net.set_alive(PeerId(10), false);
        assert_eq!(net.retrieve(PeerId(12), PeerId(10), "k"), RetrieveOutcome::Unavailable);
        assert_eq!(net.stats().count(MsgKind::Retrieve), 3);
        assert_eq!(net.stats().count(MsgKind::RetrieveOk), 1);
        assert_eq!(net.stats().count(MsgKind::RetrieveFail), 1);
        assert_eq!(net.stats().fate_count(Fate::ProviderOffline), 1);
        assert_eq!(net.stats().retrieves, 3);
        assert_eq!(net.stats().retrieves_ok, 1);

        // two leaves under different supers share "k2": a retrieve asks
        // the provider's super, so one withdrawal fails only its own
        let a = PeerId(13);
        let sup = |p| net.substrate().super_of(p).expect("in range");
        let b = (4..20).map(PeerId).find(|&p| sup(p) != sup(a)).expect("another super's leaf");
        net.publish(a, record("k2", "y"));
        net.publish(b, record("k2", "y"));
        net.unpublish(a, "k2");
        net.reset_stats();
        assert_eq!(net.retrieve(PeerId(12), a, "k2"), RetrieveOutcome::Unavailable);
        assert_ne!(net.retrieve(PeerId(12), b, "k2"), RetrieveOutcome::Unavailable);
        net.publish(a, record("k2", "y"));
        assert_ne!(net.retrieve(PeerId(12), a, "k2"), RetrieveOutcome::Unavailable, "republished");
        assert_eq!(net.stats().count(MsgKind::RetrieveFail), 1);
        assert_eq!(net.stats().count(MsgKind::RetrieveOk), 2);
    }

    #[test]
    fn dead_origin_retrieve_sends_no_messages() {
        let mut net = net(20, 4);
        net.publish(PeerId(10), record("k", "x"));
        net.reset_stats();
        net.set_alive(PeerId(12), false);
        assert_eq!(net.retrieve(PeerId(12), PeerId(10), "k"), RetrieveOutcome::Unavailable);
        assert_eq!(net.stats().retrieves, 1, "the attempt is still counted");
        assert_eq!(net.stats().messages, 0, "a dead peer cannot send");
    }

    fn guided_net(n: usize, supers: usize) -> DesNetwork {
        DesNetwork::new(Substrate::fasttrack(
            n,
            SuperPeerConfig {
                supers,
                super_degree: 2,
                ttl: 6,
                digests: DigestConfig::guided(),
            },
            LatencySpec::Constant(1_000).build(n, 1),
            42,
        ))
    }

    #[test]
    fn guided_super_flood_still_finds_records() {
        let mut blind = net(50, 8);
        let mut guided = guided_net(50, 8);
        for target in [PeerId(30), PeerId(45)] {
            blind.publish(target, record(&format!("k{target:?}"), "observer"));
            guided.publish(target, record(&format!("k{target:?}"), "observer"));
        }
        let b = blind.search(PeerId(40), "c", &Query::any_keyword("observer"));
        let g = guided.search(PeerId(40), "c", &Query::any_keyword("observer"));
        assert!(!g.hits.is_empty(), "guided search still reaches a replica");
        // guided hits ⊆ blind hits (same assignment seed, same records)
        let blind_hits: BTreeSet<(String, PeerId)> =
            b.hits.into_iter().map(|h| (h.key, h.provider)).collect();
        for h in &g.hits {
            assert!(blind_hits.contains(&(h.key.clone(), h.provider)), "{h:?}");
        }
        assert!(
            g.messages <= b.messages,
            "guided ({}) must not exceed the blind super flood ({})",
            g.messages,
            b.messages
        );
    }

    #[test]
    fn batch_serving_is_exactly_sequential_serving_in_flood_mode() {
        let build = || {
            let mut n = net(60, 8);
            for p in [20u32, 35, 50] {
                n.publish(PeerId(p), record(&format!("k{p}"), "observer"));
            }
            n.set_alive(PeerId(41), false); // one dead origin in the batch
            n
        };
        let requests = vec![
            SearchRequest::new(PeerId(40), "c", Query::any_keyword("observer")),
            SearchRequest::new(PeerId(0), "c", Query::any_keyword("observer")),
            SearchRequest::new(PeerId(41), "c", Query::any_keyword("observer")),
            SearchRequest::new(PeerId(42), "c", Query::any_keyword("missing")),
        ];
        let mut seq = build();
        let expected: Vec<SearchOutcome> = requests
            .iter()
            .map(|r| seq.search(r.origin, &r.community, &r.query))
            .collect();
        for workers in [1usize, 4] {
            let mut batch = build();
            let got = batch.search_batch(&requests, workers);
            assert_eq!(got.len(), expected.len());
            for (g, e) in got.iter().zip(&expected) {
                assert_eq!(g.hits, e.hits, "workers={workers}");
                assert_eq!(g.messages, e.messages, "workers={workers}");
                assert_eq!(g.latency, e.latency, "workers={workers}");
                assert_eq!(g.first_hit_latency, e.first_hit_latency, "workers={workers}");
            }
            let (s, b) = (seq.stats(), batch.stats());
            assert_eq!(b.messages, s.messages, "workers={workers}");
            assert_eq!(b.by_kind(), s.by_kind(), "workers={workers}");
            assert_eq!(b.queries, s.queries, "workers={workers}");
            assert_eq!(b.queries_with_hits, s.queries_with_hits, "workers={workers}");
            assert_eq!(b.hits, s.hits, "workers={workers}");
            let fates = |stats: &NetStats| Fate::ALL.map(|f| stats.fate_count(f));
            assert_eq!(fates(b), fates(s), "workers={workers}");
            assert_eq!(b.hit_hops, s.hit_hops, "workers={workers}");
        }
    }

    #[test]
    fn guided_batch_finds_the_same_hits_and_pays_digests_once() {
        let build = || {
            let mut n = guided_net(50, 8);
            n.publish(PeerId(30), record("k", "x"));
            n
        };
        let mut seq = build();
        let expected = seq.search(PeerId(40), "c", &Query::any_keyword("x"));
        let mut batch = build();
        let requests = vec![
            SearchRequest::new(PeerId(40), "c", Query::any_keyword("x")),
            SearchRequest::new(PeerId(41), "c", Query::any_keyword("x")),
        ];
        let got = batch.search_batch(&requests, 4);
        // digest-selected forwarding is deterministic, so the matching
        // query reproduces the sequential hit set inside a batch
        assert_eq!(got[0].hits, expected.hits);
        assert!(!got[1].hits.is_empty(), "second origin reaches the record too");
        // the lazy digest build is shared state, paid once for the batch
        let edges = 2 * batch.substrate().topology().expect("the super overlay").edge_count() as u64;
        assert_eq!(batch.stats().count(MsgKind::DigestRequest), edges);
        assert_eq!(batch.stats().count(MsgKind::DigestPush), edges);
        assert_eq!(batch.stats().queries, 2);
    }

    #[test]
    fn guided_super_search_counts_digest_traffic() {
        let mut net = guided_net(50, 8);
        net.publish(PeerId(30), record("k", "x"));
        net.search(PeerId(40), "c", &Query::any_keyword("x"));
        // one request per directed super-overlay edge, pushed once
        let edges = 2 * net.substrate().topology().expect("the super overlay").edge_count() as u64;
        assert_eq!(net.stats().count(MsgKind::DigestRequest), edges);
        assert_eq!(net.stats().count(MsgKind::DigestPush), edges);
        // a second search with no publishes in between pays nothing new
        net.search(PeerId(40), "c", &Query::any_keyword("x"));
        assert_eq!(net.stats().count(MsgKind::DigestRequest), edges);
        assert_eq!(net.stats().count(MsgKind::DigestPush), edges);
    }

    /// The supers with every upload applied, reached as the product
    /// reaches them, and who is online.
    fn settled(net: &mut DesNetwork) -> (&Settled, &[bool]) {
        let Substrate { alive, protocol, .. } = &mut net.substrate;
        let Protocol::FastTrack(overlay, supers) = protocol else { panic!("a FastTrack network") };
        (supers.settle(&mut overlay.routes), alive)
    }

    /// Each `(peer, key)` of `shares` is in exactly one index, its
    /// peer's home's, no other share is in any, and a live leaf's home is
    /// live unless no super is.
    fn check_homes(
        net: &mut DesNetwork,
        shares: &BTreeSet<(u32, String)>,
    ) -> Result<(), TestCaseError> {
        let (supers, alive) = settled(net);
        let mut held = BTreeMap::new();
        for (s, index) in supers.indexes.iter().enumerate() {
            index.for_each_key(|key, provider| {
                let at = held.entry((provider.0, key.to_string())).or_insert_with(Vec::new);
                at.push((s, supers.super_of(provider)));
            });
        }
        let found: BTreeSet<(u32, String)> = held.keys().cloned().collect();
        prop_assert_eq!(&found, shares);
        for ((peer, key), at) in &held {
            prop_assert_eq!(at.len(), 1, "{}'s {} is in {:?}", peer, key, at);
            prop_assert_eq!(Some(at[0].0), at[0].1, "{}'s {} is not at its home", peer, key);
        }
        let live_supers = alive[..supers.indexes.len()].contains(&true);
        for (p, &home) in supers.super_of.iter().enumerate() {
            let stranded = alive[p] && !alive[home as usize] && live_supers;
            prop_assert!(!stranded, "live leaf {} is homed at offline super {}", p, home);
        }
        Ok(())
    }

    /// What `provider` reads of its own `key` straight after publishing
    /// it: another peer fetches it exactly when both are online and it is
    /// shared, and the provider's own search finds it exactly when it is
    /// shared and the provider's home is online, as if the upload had
    /// entered its super's index when it was sent.
    fn check_reads(
        net: &mut DesNetwork,
        provider: u32,
        key: &str,
        word: &str,
        shared: bool,
    ) -> Result<(), TestCaseError> {
        let n = net.peer_count() as u32;
        let live = |net: &DesNetwork, p: u32| net.is_alive(PeerId(p));
        let other = (provider + 1) % n;
        let fetchable = shared && live(net, other) && live(net, provider);
        let got = net.retrieve(PeerId(other), PeerId(provider), key);
        prop_assert_eq!(got != RetrieveOutcome::Unavailable, fetchable);
        let home = net.substrate().super_of(PeerId(provider)).expect("in range") as u32;
        let found = shared && live(net, provider) && live(net, home);
        let out = net.search(PeerId(provider), "c", &Query::any_keyword(word));
        let hit = out.hits.iter().any(|h| h.key == key && h.provider == PeerId(provider));
        prop_assert_eq!(hit, found, "{}'s {} at super {}", provider, key, home);
        Ok(())
    }

    /// After a refresh, every layer of every directed edge of the route
    /// table is what a table built from scratch over the supers' indexes
    /// holds: the refresh applied every queued upload before it read an
    /// index, and the moves told the digests of every record that left
    /// or entered one.
    fn check_routes(net: &mut DesNetwork) -> Result<(), TestCaseError> {
        net.refresh_digests();
        let Protocol::FastTrack(overlay, supers) = &mut net.substrate.protocol else {
            panic!("a FastTrack network")
        };
        let supers = supers.settle(&mut overlay.routes);
        let (topo, routes) = (&overlay.topology, &overlay.routes);
        let mut scratch = RouteTable::new(routes.config());
        // from the records' strings, where the table heard of them by symbol
        scratch.refresh(topo, |s, visit| {
            let index = supers.index(s);
            index.for_each_record(|c, fields| for_each_record_entry(c, fields, &mut *visit))
        });
        for q in topo.peers() {
            for p in topo.neighbors(q) {
                for depth in 1.. {
                    let layer = routes.layer(topo, q.0, p.0, depth);
                    prop_assert_eq!(&layer, &scratch.layer(topo, q.0, p.0, depth));
                    if layer.is_none() {
                        break;
                    }
                }
            }
        }
        Ok(())
    }

    /// One step of a liveness history: a publish of one of eight keys,
    /// read back at once or left queued for the next step, a withdrawal,
    /// or a peer going offline or coming back.
    #[derive(Debug, Clone)]
    enum Step {
        Publish(u32, usize, bool),
        Unpublish(u32, usize),
        Live(u32, bool),
    }

    fn steps() -> impl Strategy<Value = Vec<Step>> {
        let step = prop_oneof![
            (0u32..40, 0usize..8, any::<bool>()).prop_map(|(p, k, read)| Step::Publish(p, k, read)),
            (0u32..40, 0usize..8).prop_map(|(p, k)| Step::Unpublish(p, k)),
            (0u32..40, any::<bool>()).prop_map(|(p, up)| Step::Live(p, up)),
            // and as often one of the first five peers, the supers among them
            (0u32..5, any::<bool>()).prop_map(|(p, up)| Step::Live(p, up)),
        ];
        pvec(step, 0..48)
    }

    /// Sets `peer`'s liveness twice: the second call must move nothing.
    fn toggle(net: &mut DesNetwork, peer: u32, up: bool) -> Result<(), TestCaseError> {
        net.set_alive(PeerId(peer), up);
        let state = |net: &mut DesNetwork| {
            let publishes = net.stats().count(MsgKind::Publish);
            let (supers, _) = settled(net);
            (supers.super_of.clone(), supers.moves, publishes)
        };
        let before = state(net);
        net.set_alive(PeerId(peer), up);
        prop_assert_eq!(state(net), before, "repeating set_alive({}, {}) moved", peer, up);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every live leaf is homed at a live super, unless no super is
        /// live: over random publish, withdrawal and liveness histories,
        /// then every super offline and one back, each live share sits in
        /// exactly one index, its provider's home's; a repeated
        /// `set_alive` moves nothing; guided, the digests match a rebuild
        /// after every liveness change; and on a DES timeline where churn
        /// moves leaves while queries fly, no query's hits repeat a
        /// `(key, provider)`. Uploads are applied when an index is next
        /// read: a publish read back at once is seen by a search and a
        /// retrieve, and one left queued by a digest refresh (guided) or
        /// by whatever step comes next.
        #[test]
        fn live_leaves_are_homed_at_live_supers(
            dims in (8usize..40, 1usize..6, 0u64..500, any::<bool>()),
            history in steps(),
            back in 0u32..6,
            origins in pvec(0u32..40, 1..12),
        ) {
            let (n, supers, seed, guided) = dims;
            let supers = supers.min(n);
            let digests = if guided {
                DigestConfig { log2_bits: 8, ..DigestConfig::guided() }
            } else {
                DigestConfig::default()
            };
            let config = SuperPeerConfig { supers, super_degree: 2, ttl: 6, digests };
            let latency = LatencySpec::Coordinate { base: 1_000, per_unit: 39_000 }.build(n, seed);
            let mut net = DesNetwork::new(Substrate::fasttrack(n, config, latency, seed));
            let mut shares = BTreeSet::new();
            for step in &history {
                match *step {
                    Step::Publish(p, k, read) => {
                        let (p, key, word) = (p % n as u32, format!("k{k}"), ["x", "y"][k % 2]);
                        if net.is_alive(PeerId(p)) {
                            shares.insert((p, key.clone()));
                        }
                        net.publish(PeerId(p), record(&key, word));
                        if !read {
                            // guided, a refresh meets the upload queued;
                            // blind, the next step does
                            if guided {
                                check_routes(&mut net)?;
                            }
                            continue;
                        }
                        let shared = shares.contains(&(p, key.clone()));
                        check_reads(&mut net, p, &key, word, shared)?;
                    }
                    Step::Unpublish(p, k) => {
                        let p = p % n as u32;
                        shares.remove(&(p, format!("k{k}")));
                        net.unpublish(PeerId(p), &format!("k{k}"));
                    }
                    Step::Live(p, up) => {
                        toggle(&mut net, p % n as u32, up)?;
                        if guided {
                            check_routes(&mut net)?;
                        }
                    }
                }
                check_homes(&mut net, &shares)?;
            }
            for s in 0..supers as u32 {
                toggle(&mut net, s, false)?;
                check_homes(&mut net, &shares)?;
            }
            toggle(&mut net, back % supers as u32, true)?;
            check_homes(&mut net, &shares)?;
            if guided {
                check_routes(&mut net)?;
            }

            let horizon = origins.len() as u64 * 20_000;
            net.schedule_churn(&exponential_schedule(n, horizon, 60_000, 30_000, seed));
            for (i, &origin) in origins.iter().enumerate() {
                net.schedule_query(i as u64 * 20_000, PeerId(origin % n as u32), "c", Query::All);
            }
            for (i, out) in net.run().iter().enumerate() {
                let hits: Vec<(&str, PeerId)> =
                    out.hits.iter().map(|h| (h.key.as_str(), h.provider)).collect();
                let distinct: BTreeSet<_> = hits.iter().collect();
                prop_assert_eq!(distinct.len(), hits.len(), "query {} repeats: {:?}", i, hits);
            }
            check_homes(&mut net, &shares)?;
        }
    }
}
