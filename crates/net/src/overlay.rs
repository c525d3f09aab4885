//! The overlay search core: every decision of the Gnutella/FastTrack
//! query walk, written once.
//!
//! A query copy ([`Hop`]) arrives at an overlay node; the node drops it
//! (dead, or a duplicate the mode does not tolerate), evaluates its
//! share table, returns `QueryHit`s along the reverse path, and forwards
//! — blindly to every neighbor, or along routing digests with random
//! walkers as the fallback. [`Walk::start`], [`Walk::arrive`] and
//! [`Progress::finish`] are that hop handler; they decide *what* happens
//! and count it, and leave *when* and *against which records* to the
//! caller:
//!
//! * the **local evaluation** is an `FnMut(node, &Probe) -> Vec<Match>` —
//!   the flat overlay's [`crate::ShareTable`] behind a per-peer term
//!   summary that the walk's compiled [`Probe`] is asked of, or an
//!   [`IndexNode`] per super ([`index_matches`]);
//! * the **[`Sink`]** receives every forwarded copy and every hit batch
//!   with its delivery time — [`Walk::run`] drains a private per-query
//!   queue from time 0, [`crate::DesNetwork`] pushes onto its global
//!   timeline.
//!
//! Each overlay substrate assembles its [`Walk`] in one place (its
//! `walk` method) and lends it to whichever driver is running the query.
//!
//! Node ids are plain `u32`s: peer ids on the flat overlay, super
//! indices (which are the supers' peer ids) on the two-tier one. The
//! retrieve and digest-refresh accounting every substrate shares lives
//! here too ([`retrieve`], [`refresh_digests`]).

use crate::digest::{Probe, RecordVisitor, RouteTable};
use crate::event::PropMode;
use crate::index_node::IndexNode;
use crate::latency::LatencyModel;
use crate::message::{SearchHit, SharedFields, Time};
use crate::peer::PeerId;
use crate::sim::EventQueue;
use crate::stats::{MsgKind, NetStats, RetrieveOutcome, SearchOutcome};
use crate::topology::Topology;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashSet;
use up2p_store::Query;

/// One locally matching record: `(key, provider, fields)`.
pub(crate) type Match = (String, PeerId, SharedFields);

/// Liveness of `peer`; ids outside the network are dead.
pub(crate) fn is_alive(alive: &[bool], peer: PeerId) -> bool {
    alive.get(peer.index()).copied().unwrap_or(false)
}

/// Local evaluation against one [`IndexNode`]: candidates come from the
/// posting lists, `alive` filters only that candidate set's providers.
pub(crate) fn index_matches(
    node: &IndexNode,
    alive: impl Fn(PeerId) -> bool,
    community: &str,
    query: &Query,
) -> Vec<Match> {
    let mut matches = Vec::new();
    node.search(community, query, alive, |key, provider, fields| {
        matches.push((key.to_string(), provider, fields.clone()));
    });
    matches
}

/// A query copy in flight. `via` is the visit that sent it — an index
/// into its query's trail ([`Progress::route`]), [`ENTRY`] for the copy
/// that enters the overlay — so a copy carries its whole route in four
/// bytes and forwarding one allocates nothing. Hits found at the
/// destination travel back along that route.
pub(crate) struct Hop {
    pub to: u32,
    pub via: u32,
    pub ttl: u8,
    pub mode: PropMode,
}

/// The `via` of a copy nobody forwarded: the query entering the overlay.
pub(crate) const ENTRY: u32 = u32::MAX;

/// Where the walk's deliveries go.
pub(crate) trait Sink {
    /// A query copy will arrive at `hop.to` at time `at`.
    fn forward(&mut self, at: Time, hop: Hop);
    /// A batch of `n` new hits will reach the origin at time `at`.
    fn hits_return(&mut self, at: Time, n: u32);
}

/// The step drivers' sink: a private per-query queue. Hit times are
/// already folded into [`Progress`], so the batch itself needs no event.
impl Sink for EventQueue<Hop> {
    fn forward(&mut self, at: Time, hop: Hop) {
        self.push(at, hop);
    }
    fn hits_return(&mut self, _at: Time, _n: u32) {}
}

/// Everything one query accumulates across its hops. Times are absolute
/// on the caller's time base until [`Progress::finish`].
pub(crate) struct Progress {
    pub outcome: SearchOutcome,
    pub last_hit_at: Time,
    pub quiescence: Time,
    /// One bit per node id visited, grown on demand: ids are dense, chosen
    /// by the topology, and only a live node's id is ever marked.
    seen: Vec<u64>,
    hit_seen: HashSet<(String, PeerId)>,
    /// One `(node, via)` per visit that forwarded: the node, and the
    /// trail index of the visit that had sent it the copy ([`ENTRY`] for
    /// the first). Every copy a visit sends names that visit's entry, so
    /// parent pointers hold every route of the query once.
    trail: Vec<(u32, u32)>,
    /// The leaf origin behind the entry super, when there is one: the
    /// last reverse hop of every hit batch.
    leaf: Option<u32>,
}

/// The nodes a copy sent by visit `via` travelled, sender first.
fn route_back(trail: &[(u32, u32)], via: u32) -> impl Iterator<Item = u32> + '_ {
    let visit = |via: u32| trail.get(via as usize).copied();
    std::iter::successors(visit(via), move |&(_, via)| visit(via)).map(|(node, _)| node)
}

impl Progress {
    /// Progress of a query issued at `t0`.
    pub fn new(t0: Time) -> Progress {
        Progress {
            outcome: SearchOutcome::default(),
            last_hit_at: t0,
            quiescence: t0,
            seen: Vec::new(),
            hit_seen: HashSet::new(),
            trail: Vec::new(),
            leaf: None,
        }
    }

    /// The route of a copy whose [`Hop::via`] is `via`, entry first and
    /// immediate sender last (the destination is not part of it). For
    /// logs and tests: the walk itself only ever reads a route backwards.
    pub fn route(&self, via: u32) -> Vec<u32> {
        let mut route: Vec<u32> = route_back(&self.trail, via).collect();
        route.reverse();
        route
    }

    /// Closes the query once nothing of it is in flight: latencies
    /// become relative to `issued_at`, and the visited bitmap, the hit
    /// set and the trail are released.
    pub fn finish(&mut self, issued_at: Time, stats: &mut NetStats) {
        let found = !self.outcome.hits.is_empty();
        let end = if found { self.last_hit_at } else { self.quiescence };
        self.outcome.latency = end.saturating_sub(issued_at);
        self.outcome.first_hit_latency =
            self.outcome.first_hit_latency.map(|f| f.saturating_sub(issued_at));
        if found {
            stats.queries_with_hits += 1;
        }
        self.seen = Vec::new();
        self.hit_seen = HashSet::new();
        self.trail = Vec::new();
    }
}

/// What a hop consults and accounts into, borrowed from the substrate
/// for one query (the step drivers) or one event (the DES engine).
pub(crate) struct Walk<'a> {
    pub topology: &'a Topology,
    pub routes: &'a RouteTable,
    pub alive: &'a [bool],
    pub latency: &'a mut dyn LatencyModel,
    pub walk_rng: &'a mut StdRng,
    pub stats: &'a mut NetStats,
    /// The query compiled once per walk: what guided forwarding asks the
    /// neighbours' digests and the local evaluation may ask a summary.
    pub probe: Probe,
    pub ttl: u8,
    /// Drop duplicate flood arrivals (Gnutella's GUID cache).
    pub dedup: bool,
}

impl Walk<'_> {
    /// Issues the query at `t0`. The caller has counted it, found the
    /// origin alive and refreshed the digests.
    ///
    /// `entry: None` is the flat overlay: the origin is an overlay node
    /// and consults its own shares first, for free. `entry: Some(s)` is
    /// the two-tier overlay: the query enters at super `s`, one uplink
    /// `Query` away when the origin is a leaf.
    pub fn start<E, S>(
        &mut self,
        p: &mut Progress,
        t0: Time,
        origin: u32,
        entry: Option<u32>,
        eval: E,
        sink: &mut S,
    ) where
        E: FnMut(u32, &Probe) -> Vec<Match>,
        S: Sink,
    {
        let mode =
            if self.routes.config().enabled { PropMode::Guided } else { PropMode::Flood };
        let hop = Hop { to: entry.unwrap_or(origin), via: ENTRY, ttl: self.ttl, mode };
        let Some(entry) = entry else { return self.visit(p, t0, hop, false, eval, sink) };
        let mut at = t0;
        if entry != origin {
            p.leaf = Some(origin);
            at += self.query_hop(p, origin, entry);
            if !is_alive(self.alive, PeerId(entry)) {
                // orphaned leaf: its super is gone
                self.stats.dropped += 1;
                p.quiescence = at;
                return;
            }
        }
        sink.forward(at, hop);
    }

    /// Handles the copy `hop` delivered at time `t`.
    pub fn arrive<E, S>(&mut self, p: &mut Progress, t: Time, hop: Hop, eval: E, sink: &mut S)
    where
        E: FnMut(u32, &Probe) -> Vec<Match>,
        S: Sink,
    {
        self.visit(p, t, hop, true, eval, sink);
    }

    /// The step driver: runs one query to quiescence on a private queue,
    /// time base 0.
    pub fn run<E>(&mut self, origin: u32, entry: Option<u32>, mut eval: E) -> SearchOutcome
    where
        E: FnMut(u32, &Probe) -> Vec<Match>,
    {
        let mut p = Progress::new(0);
        let mut queue: EventQueue<Hop> = EventQueue::new();
        self.start(&mut p, 0, origin, entry, &mut eval, &mut queue);
        while let Some((t, hop)) = queue.pop() {
            self.arrive(&mut p, t, hop, &mut eval, &mut queue);
        }
        p.finish(0, self.stats);
        p.outcome
    }

    /// One visit. `delivered` is false only for the origin's free look at
    /// its own shares, whose hits have no way to travel.
    fn visit<E, S>(
        &mut self,
        p: &mut Progress,
        t: Time,
        hop: Hop,
        delivered: bool,
        mut eval: E,
        sink: &mut S,
    ) where
        E: FnMut(u32, &Probe) -> Vec<Match>,
        S: Sink,
    {
        let Hop { to, via, ttl, mode } = hop;
        p.quiescence = p.quiescence.max(t);
        if !is_alive(self.alive, PeerId(to)) {
            self.stats.dropped += 1;
            return;
        }
        let (word, bit) = (to as usize / 64, 1u64 << (to % 64));
        if p.seen.len() <= word {
            p.seen.resize(word + 1, 0);
        }
        let first_visit = p.seen[word] & bit == 0;
        p.seen[word] |= bit;
        match mode {
            // duplicate query arrival, dropped by the GUID cache
            PropMode::Flood if self.dedup && !first_visit => return,
            // a guided copy is always deduplicated; a walker survives
            // revisits (it merely skips re-evaluating the share table)
            PropMode::Guided if !first_visit => return,
            _ => {}
        }
        let matches =
            if first_visit || mode == PropMode::Flood { eval(to, &self.probe) } else { Vec::new() };
        if !matches.is_empty() {
            // QueryHit routes back along the reverse path and down to a
            // leaf origin: one message per edge, arriving after the
            // summed reverse delays
            let mut back: Time = 0;
            let mut prev = to;
            let mut edges = 0u32;
            for node in route_back(&p.trail, via).chain(p.leaf) {
                self.stats.sent(MsgKind::QueryHit);
                p.outcome.messages += 1;
                back += self.latency.delay(PeerId(prev), PeerId(node));
                prev = node;
                edges += 1;
            }
            let arrival = t + back;
            let hops = edges as u8;
            let mut new_hits = 0;
            for (key, provider, fields) in matches {
                if p.hit_seen.insert((key.clone(), provider)) {
                    p.outcome.hits.push(SearchHit { key, provider, fields, hops });
                    p.last_hit_at = p.last_hit_at.max(arrival);
                    p.outcome.first_hit_latency =
                        Some(p.outcome.first_hit_latency.map_or(arrival, |f| f.min(arrival)));
                    new_hits += 1;
                }
            }
            self.stats.hits(hops, u64::from(new_hits));
            if delivered {
                sink.hits_return(arrival, new_hits);
            }
            if mode != PropMode::Flood {
                // frontier stop: this copy found results, stop paying
                // for forwarding (other copies keep exploring)
                return;
            }
        }
        if ttl == 0 {
            return;
        }
        let sender = p.trail.get(via as usize).map(|&(node, _)| node);
        // this visit's place on the trail: what every copy it sends names
        let visit = p.trail.len() as u32;
        p.trail.push((to, via));
        if mode == PropMode::Flood {
            // forward to all neighbors except the immediate sender
            let topology = self.topology;
            for nb in topology.neighbors(PeerId(to)).filter(|nb| Some(nb.0) != sender) {
                let copy = Hop { to: nb.0, via: visit, ttl: ttl - 1, mode: PropMode::Flood };
                self.send(p, t, to, copy, sink);
            }
        } else {
            // guided copies and walkers re-consult the digests every hop
            // (a walker escaping a stale region resumes guided
            // forwarding); a fallback where the query entered spawns the
            // full walker width, mid-path dead ends continue as one
            let width = if sender.is_none() { self.routes.config().walk_width } else { 1 };
            self.forward_guided(p, t, sender, (to, visit), ttl, width, sink);
        }
    }

    /// Forwards one guided copy holding `ttl > 0` from node `from`, whose
    /// visit is entry `visit` of the trail: digest-matching neighbors
    /// (closest plausible match first, capped at the fanout) when any
    /// exist, else up to `walk_width` random walkers so stale or saturated
    /// digests degrade to extra messages, not misses.
    #[allow(clippy::too_many_arguments)]
    fn forward_guided<S: Sink>(
        &mut self,
        p: &mut Progress,
        t: Time,
        sender: Option<u32>,
        (from, visit): (u32, u32),
        ttl: u8,
        walk_width: usize,
        sink: &mut S,
    ) {
        let mut options: Vec<u32> = self
            .topology
            .neighbors(PeerId(from))
            .map(|nb| nb.0)
            .filter(|&nb| Some(nb) != sender)
            .collect();
        let mut candidates: Vec<(u8, u32)> = options
            .iter()
            .filter_map(|&nb| self.routes.min_depth(nb, from, &self.probe, ttl).map(|d| (d, nb)))
            .collect();
        candidates.sort_unstable();
        let copy = |to, mode| Hop { to, via: visit, ttl: ttl - 1, mode };
        for &(_, nb) in candidates.iter().take(self.routes.config().fanout.max(1)) {
            self.send(p, t, from, copy(nb, PropMode::Guided), sink);
        }
        if candidates.is_empty() {
            for _ in 0..walk_width.min(options.len()) {
                let nb = options.swap_remove(self.walk_rng.gen_range(0..options.len()));
                self.send(p, t, from, copy(nb, PropMode::Walk), sink);
            }
        }
    }

    /// Sends `copy` from node `from`.
    fn send<S: Sink>(&mut self, p: &mut Progress, t: Time, from: u32, copy: Hop, sink: &mut S) {
        let at = t + self.query_hop(p, from, copy.to);
        sink.forward(at, copy);
    }

    /// Counts one `Query` crossing `from → to` and draws its delay.
    fn query_hop(&mut self, p: &mut Progress, from: u32, to: u32) -> Time {
        self.stats.sent(MsgKind::Query);
        p.outcome.messages += 1;
        self.latency.delay(PeerId(from), PeerId(to))
    }
}

/// Brings the routing digests over `topology` up to date with the
/// writes since the last refresh and counts the
/// `DigestRequest`/`DigestPush` exchange that costs. `records_of` lists
/// a node's share table (see [`RouteTable::refresh`]). A no-op when
/// guided search is disabled or nothing changed since the last refresh;
/// guided searches call this lazily, the way a servent batches digest
/// updates onto its keep-alives.
pub(crate) fn refresh_digests(
    routes: &mut RouteTable,
    topology: &Topology,
    stats: &mut NetStats,
    records_of: impl FnMut(u32, &mut RecordVisitor<'_>),
) {
    if !routes.config().enabled || !routes.needs_refresh() {
        return;
    }
    let (requests, pushes) = routes.refresh(topology, records_of);
    stats.sent_n(MsgKind::DigestRequest, requests);
    stats.sent_n(MsgKind::DigestPush, pushes);
}

/// The direct provider fetch every substrate accounts the same way.
/// `provider_alive` is `None` for an id outside the network; `has` and
/// `rtt` run only when the request reaches a live provider.
pub(crate) fn retrieve(
    stats: &mut NetStats,
    origin_alive: bool,
    provider_alive: Option<bool>,
    provider: PeerId,
    has: impl FnOnce() -> bool,
    rtt: impl FnOnce() -> Time,
) -> RetrieveOutcome {
    stats.retrieves += 1;
    // a dead peer cannot send, and an unknown id names nobody to send
    // to: the request never leaves the origin
    let (true, Some(provider_alive)) = (origin_alive, provider_alive) else {
        return RetrieveOutcome::Unavailable;
    };
    stats.sent(MsgKind::Retrieve);
    if !provider_alive {
        stats.dropped += 1;
        return RetrieveOutcome::Unavailable;
    }
    if !has() {
        stats.sent(MsgKind::RetrieveFail);
        return RetrieveOutcome::Unavailable;
    }
    stats.sent(MsgKind::RetrieveOk);
    stats.retrieves_ok += 1;
    RetrieveOutcome::Fetched { provider, latency: rtt() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::DigestConfig;
    use crate::latency::ConstantLatency;
    use rand::SeedableRng;

    const HOP: Time = 10;

    /// Records what the core hands its driver.
    #[derive(Default)]
    struct Recorder {
        /// Every forwarded copy as the sink received it.
        copies: Vec<(Time, Hop)>,
        /// `(at, to, path, ttl, mode)` per forwarded copy: `copies` with
        /// each `via` resolved through the query's trail into the route
        /// the copy carries ([`Recorder::resolve`]).
        forwards: Vec<(Time, u32, Vec<u32>, u8, PropMode)>,
        /// `(at, new hits)` per returned batch.
        batches: Vec<(Time, u32)>,
    }

    impl Sink for Recorder {
        fn forward(&mut self, at: Time, hop: Hop) {
            self.copies.push((at, hop));
        }
        fn hits_return(&mut self, at: Time, n: u32) {
            self.batches.push((at, n));
        }
    }

    impl Recorder {
        /// Reads the recorded copies' routes off `p`'s trail, once the
        /// visit that sent them has returned.
        fn resolve(mut self, p: &Progress) -> Recorder {
            self.forwards = self
                .copies
                .iter()
                .map(|(at, hop)| (*at, hop.to, p.route(hop.via), hop.ttl, hop.mode))
                .collect();
            self
        }

        fn targets(&self) -> Vec<u32> {
            self.forwards.iter().map(|f| f.1).collect()
        }
    }

    impl Progress {
        /// Lays `path` (entry first, immediate sender last) onto the
        /// trail as a chain of forwarding visits and returns the `via` of
        /// a copy that travelled it.
        fn travelled(&mut self, path: &[u32]) -> u32 {
            path.iter().fold(ENTRY, |via, &node| {
                self.trail.push((node, via));
                self.trail.len() as u32 - 1
            })
        }
    }

    /// A scripted overlay: no index, no queue. Node `n` answers with one
    /// record `k<n>` iff it is a holder; a node advertises (a field-less
    /// record, so its digest carries the community bit) iff it is a
    /// holder.
    struct Script {
        topology: Topology,
        routes: RouteTable,
        alive: Vec<bool>,
        latency: ConstantLatency,
        rng: StdRng,
        stats: NetStats,
        query: Query,
        ttl: u8,
        dedup: bool,
        holders: Vec<u32>,
        /// Every evaluation the core asked for, in order.
        evaluated: Vec<u32>,
    }

    impl Script {
        fn new(n: usize, edges: &[(u32, u32)], digests: DigestConfig, holders: &[u32]) -> Script {
            let mut topology = Topology::empty(n);
            for &(a, b) in edges {
                topology.connect(PeerId(a), PeerId(b));
            }
            let mut routes = RouteTable::new(digests);
            if digests.enabled {
                routes.refresh(&topology, |node, visit| {
                    if holders.contains(&node) {
                        visit("c", &[]);
                    }
                });
            }
            Script {
                topology,
                routes,
                alive: vec![true; n],
                latency: ConstantLatency(HOP),
                rng: StdRng::seed_from_u64(1),
                stats: NetStats::new(),
                query: Query::All,
                ttl: 4,
                dedup: true,
                holders: holders.to_vec(),
                evaluated: Vec::new(),
            }
        }

        fn flood(n: usize, edges: &[(u32, u32)], holders: &[u32]) -> Script {
            Script::new(n, edges, DigestConfig::default(), holders)
        }

        fn guided(n: usize, edges: &[(u32, u32)], holders: &[u32]) -> Script {
            Script::new(n, edges, DigestConfig { log2_bits: 8, ..DigestConfig::guided() }, holders)
        }

        fn parts(&mut self) -> (Walk<'_>, impl FnMut(u32, &Probe) -> Vec<Match> + '_) {
            let Script {
                topology, routes, alive, latency, rng, stats, query, ttl, dedup, holders, evaluated,
            } = self;
            let eval = move |node: u32, _: &Probe| {
                evaluated.push(node);
                if holders.contains(&node) {
                    vec![(format!("k{node}"), PeerId(node), SharedFields::from(Vec::new()))]
                } else {
                    Vec::new()
                }
            };
            let walk = Walk {
                topology,
                routes,
                alive,
                latency,
                walk_rng: rng,
                stats,
                probe: Probe::new("c", query),
                ttl: *ttl,
                dedup: *dedup,
            };
            (walk, eval)
        }

        fn start(&mut self, p: &mut Progress, t0: Time, origin: u32, entry: Option<u32>) -> Recorder {
            let mut sink = Recorder::default();
            let (mut walk, eval) = self.parts();
            walk.start(p, t0, origin, entry, eval, &mut sink);
            sink.resolve(p)
        }

        fn arrive(
            &mut self,
            p: &mut Progress,
            t: Time,
            to: u32,
            path: &[u32],
            ttl: u8,
            mode: PropMode,
        ) -> Recorder {
            let mut sink = Recorder::default();
            let via = p.travelled(path);
            let (mut walk, eval) = self.parts();
            walk.arrive(p, t, Hop { to, via, ttl, mode }, eval, &mut sink);
            sink.resolve(p)
        }
    }

    const TRIANGLE: [(u32, u32); 3] = [(0, 1), (1, 2), (0, 2)];

    #[test]
    fn flood_with_dedup_drops_the_second_arrival() {
        let mut s = Script::flood(3, &TRIANGLE, &[1]);
        let mut p = Progress::new(0);
        let first = s.arrive(&mut p, 10, 1, &[0], 3, PropMode::Flood);
        // sender exclusion: 1 forwards to 2, never back to 0
        assert_eq!(first.forwards, vec![(20, 2, vec![0, 1], 2, PropMode::Flood)]);
        assert_eq!(first.batches, vec![(20, 1)], "one hit, one reverse hop later");
        let second = s.arrive(&mut p, 15, 1, &[2], 3, PropMode::Flood);
        assert!(second.forwards.is_empty() && second.batches.is_empty());
        assert_eq!(s.evaluated, vec![1], "the duplicate never reached the share table");
        assert_eq!(s.stats.count(MsgKind::Query), 1);
        assert_eq!(s.stats.count(MsgKind::QueryHit), 1);
        assert_eq!(p.outcome.messages, 2);
        assert_eq!(p.quiescence, 15, "a dropped copy still moves quiescence");
    }

    #[test]
    fn flood_without_dedup_reevaluates_and_pays_again() {
        let mut s = Script::flood(3, &TRIANGLE, &[1]);
        s.dedup = false;
        let mut p = Progress::new(0);
        s.arrive(&mut p, 10, 1, &[0], 3, PropMode::Flood);
        let second = s.arrive(&mut p, 15, 1, &[2], 3, PropMode::Flood);
        assert_eq!(s.evaluated, vec![1, 1]);
        assert_eq!(second.targets(), vec![0], "forwarded again, away from the new sender");
        // the hit travels back again, but the origin already has it
        assert_eq!(second.batches, vec![(25, 0)]);
        assert_eq!(s.stats.count(MsgKind::QueryHit), 2);
        assert_eq!(p.outcome.hits.len(), 1);
    }

    #[test]
    fn guided_drops_revisits_and_a_walker_survives_without_reevaluating() {
        // 0 - 1 - 2 - 3, holder at 3: from 1 the digests point at 2
        let line = [(0, 1), (1, 2), (2, 3)];
        let mut s = Script::guided(4, &line, &[3]);
        let mut p = Progress::new(0);
        let first = s.arrive(&mut p, 10, 1, &[0], 3, PropMode::Guided);
        assert_eq!(first.forwards, vec![(20, 2, vec![0, 1], 2, PropMode::Guided)]);
        let again = s.arrive(&mut p, 12, 1, &[0], 3, PropMode::Guided);
        assert!(again.forwards.is_empty(), "a guided copy is always deduplicated");
        let walker = s.arrive(&mut p, 14, 1, &[0], 3, PropMode::Walk);
        assert_eq!(walker.targets(), vec![2], "the walker lives on, and resumes guided forwarding");
        assert_eq!(walker.forwards[0].4, PropMode::Guided);
        assert_eq!(s.evaluated, vec![1], "revisits never re-evaluate");
    }

    #[test]
    fn the_visited_bitmap_tells_every_id_apart_in_every_mode() {
        // ids at both ends of a word, the next word's first, and far out
        const NODES: [u32; 4] = [0, 63, 64, 9_999];
        let sender = |n: u32| 5_000 + n % 1_000;
        let onward = |n: u32| 7_000 + n % 1_000;
        let edges: Vec<(u32, u32)> =
            NODES.iter().flat_map(|&n| [(n, sender(n)), (n, onward(n))]).collect();
        // (mode, dedup, a revisit evaluates again, a revisit forwards)
        for (mode, dedup, reevaluates, forwards) in [
            (PropMode::Flood, true, false, false),
            (PropMode::Flood, false, true, true),
            (PropMode::Guided, true, false, false),
            (PropMode::Walk, true, false, true),
        ] {
            let mut s = match mode {
                PropMode::Flood => Script::flood(10_000, &edges, &[]),
                _ => Script::guided(10_000, &edges, &[]),
            };
            s.dedup = dedup;
            let mut p = Progress::new(0);
            for &n in &NODES {
                let first = s.arrive(&mut p, 10, n, &[sender(n)], 3, mode);
                assert_eq!(first.targets(), vec![onward(n)], "{mode:?}: first visit of {n}");
            }
            assert_eq!(s.evaluated, NODES, "{mode:?}: no id was taken for another");
            for &n in &NODES {
                let again = s.arrive(&mut p, 20, n, &[sender(n)], 3, mode);
                let expected = if forwards { vec![onward(n)] } else { Vec::new() };
                assert_eq!(again.targets(), expected, "{mode:?}: revisit of {n}");
            }
            let revisits = if reevaluates { &NODES[..] } else { &[] };
            assert_eq!(s.evaluated[NODES.len()..], *revisits, "{mode:?}");
            assert_eq!(p.seen.len(), 157, "{mode:?}: one bit per id up to 9 999");
            p.finish(0, &mut s.stats);
            assert_eq!(p.seen.capacity(), 0, "{mode:?}: finish releases the bitmap");
        }
    }

    #[test]
    fn frontier_stop_ends_guided_and_walk_copies_but_not_floods() {
        for (mode, keeps_forwarding) in
            [(PropMode::Flood, true), (PropMode::Guided, false), (PropMode::Walk, false)]
        {
            let mut s = Script::guided(3, &TRIANGLE, &[1, 2]);
            let mut p = Progress::new(0);
            let out = s.arrive(&mut p, 10, 1, &[0], 3, mode);
            assert_eq!(out.batches, vec![(20, 1)], "{mode:?} found the record at 1");
            assert_eq!(!out.forwards.is_empty(), keeps_forwarding, "{mode:?}");
        }
    }

    #[test]
    fn ttl_zero_evaluates_but_never_forwards() {
        let mut s = Script::flood(3, &TRIANGLE, &[]);
        let mut p = Progress::new(0);
        assert!(s.arrive(&mut p, 10, 1, &[0], 0, PropMode::Flood).forwards.is_empty());
        assert_eq!(s.evaluated, vec![1]);
        s.ttl = 0;
        let mut p = Progress::new(0);
        assert!(s.start(&mut p, 0, 0, None).forwards.is_empty(), "a TTL-0 query never leaves");
        assert_eq!(s.evaluated, vec![1, 0]);
        assert_eq!(s.stats.messages, 0);
    }

    #[test]
    fn guided_forwarding_prefers_the_nearest_match_and_fanout_zero_means_one() {
        // from 0: a holder one hop away through 3, two hops away through 1
        let edges = [(0, 1), (1, 2), (0, 3)];
        let mut s = Script::guided(4, &edges, &[2, 3]);
        let mut p = Progress::new(0);
        let out = s.start(&mut p, 0, 0, None);
        assert_eq!(out.targets(), vec![3, 1], "closest plausible match first");
        assert!(out.forwards.iter().all(|f| f.4 == PropMode::Guided && f.3 == 3));

        let zero = DigestConfig { fanout: 0, log2_bits: 8, ..DigestConfig::guided() };
        let mut s = Script::new(4, &edges, zero, &[2, 3]);
        let mut p = Progress::new(0);
        assert_eq!(s.start(&mut p, 0, 0, None).targets(), vec![3]);
    }

    #[test]
    fn walker_fallback_is_capped_by_the_neighbours_available() {
        // nothing advertised anywhere: every guided forward falls back
        let edges = [(0, 1), (0, 2), (1, 3)];
        let wide = DigestConfig { walk_width: 5, log2_bits: 8, ..DigestConfig::guided() };
        let mut s = Script::new(4, &edges, wide, &[]);
        let mut p = Progress::new(0);
        let out = s.start(&mut p, 0, 0, None);
        let mut targets = out.targets();
        targets.sort_unstable();
        assert_eq!(targets, vec![1, 2], "five walkers asked for, two distinct neighbours exist");
        assert!(out.forwards.iter().all(|f| f.4 == PropMode::Walk));
        // mid-path a dead end continues as one walker, never back to the sender
        assert_eq!(s.arrive(&mut p, 10, 1, &[0], 3, PropMode::Walk).targets(), vec![3]);
        // and with the sender as the only neighbour the walk ends
        assert!(s.arrive(&mut p, 20, 3, &[0, 1], 2, PropMode::Walk).forwards.is_empty());
    }

    #[test]
    fn dead_nodes_drop_the_copy() {
        let mut s = Script::flood(3, &TRIANGLE, &[1]);
        s.alive[1] = false;
        let mut p = Progress::new(0);
        let out = s.arrive(&mut p, 10, 1, &[0], 3, PropMode::Flood);
        assert!(out.forwards.is_empty() && out.batches.is_empty() && s.evaluated.is_empty());
        assert_eq!(s.stats.dropped, 1);
        assert_eq!(p.quiescence, 10);
    }

    #[test]
    fn flat_origin_hits_are_free_and_times_are_relative_to_issue() {
        let mut s = Script::flood(3, &TRIANGLE, &[0]);
        let mut p = Progress::new(1_000);
        let out = s.start(&mut p, 1_000, 0, None);
        assert!(out.batches.is_empty(), "own shares: nothing travels, nothing to deliver");
        assert_eq!(out.targets(), vec![1, 2]);
        assert_eq!(s.stats.count(MsgKind::QueryHit), 0);
        assert_eq!(p.outcome.hits[0].hops, 0);
        p.finish(1_000, &mut s.stats);
        assert_eq!((p.outcome.latency, p.outcome.first_hit_latency), (0, Some(0)));
        assert_eq!(s.stats.queries_with_hits, 1);
    }

    #[test]
    fn leaf_origin_pays_one_hop_up_and_one_hop_down() {
        // supers 0 - 1, leaf 5 behind super 0; both supers hold a record
        let mut s = Script::flood(6, &[(0, 1)], &[0, 1]);
        let mut p = Progress::new(0);
        let up = s.start(&mut p, 0, 5, Some(0));
        assert_eq!(up.forwards, vec![(HOP, 0, vec![], 4, PropMode::Flood)]);
        assert_eq!((s.stats.count(MsgKind::Query), p.outcome.messages), (1, 1));
        assert!(s.evaluated.is_empty(), "a leaf has no overlay shares to consult");

        let at_entry = s.arrive(&mut p, 10, 0, &[], 4, PropMode::Flood);
        assert_eq!(at_entry.batches, vec![(20, 1)], "down to the leaf");
        assert_eq!(at_entry.forwards, vec![(20, 1, vec![0], 3, PropMode::Flood)]);
        let next = s.arrive(&mut p, 20, 1, &[0], 3, PropMode::Flood);
        assert_eq!(next.batches, vec![(40, 1)], "back to the entry super, then down");
        assert_eq!(s.stats.count(MsgKind::QueryHit), 3);
        let hops: Vec<u8> = p.outcome.hits.iter().map(|h| h.hops).collect();
        assert_eq!(hops, vec![1, 2], "super path length plus the leaf hop");
        p.finish(0, &mut s.stats);
        assert_eq!((p.outcome.latency, p.outcome.first_hit_latency), (40, Some(20)));
    }

    #[test]
    fn super_origin_enters_without_an_uplink() {
        let mut s = Script::flood(6, &[(0, 1)], &[0]);
        let mut p = Progress::new(0);
        let out = s.start(&mut p, 0, 0, Some(0));
        assert_eq!(out.forwards, vec![(0, 0, vec![], 4, PropMode::Flood)]);
        assert_eq!(s.stats.messages, 0);
        let at_entry = s.arrive(&mut p, 0, 0, &[], 4, PropMode::Flood);
        assert_eq!(at_entry.batches, vec![(0, 1)]);
        assert_eq!((p.outcome.hits[0].hops, s.stats.count(MsgKind::QueryHit)), (0, 0));
    }

    #[test]
    fn orphaned_leaf_pays_the_uplink_and_stops() {
        let mut s = Script::flood(6, &[(0, 1)], &[1]);
        s.alive[0] = false;
        let mut p = Progress::new(0);
        assert!(s.start(&mut p, 0, 5, Some(0)).forwards.is_empty());
        assert_eq!((s.stats.count(MsgKind::Query), s.stats.dropped), (1, 1));
        p.finish(0, &mut s.stats);
        assert_eq!((p.outcome.latency, p.outcome.messages), (HOP, 1));
    }
}
