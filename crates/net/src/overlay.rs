//! The overlay search core: every decision of the Gnutella/FastTrack
//! query walk, written once.
//!
//! A query copy ([`Hop`]) arrives at an overlay node; the node drops it
//! (gone offline while the copy was in flight, or a duplicate the mode
//! does not tolerate), evaluates its share table, returns `QueryHit`s
//! along the reverse path, and forwards over its live links — blindly to
//! every neighbor, or along routing digests with random walkers as the
//! fallback. [`Walk::start`], [`Walk::arrive`] and
//! [`Progress::finish`] are that hop handler; they decide *what* happens,
//! count the messages and return the hop's [`Fate`], and leave *when* and
//! *against which records* to the caller:
//!
//! * the **local evaluation** is an `FnMut(node, admitted) -> Vec<Match>`
//!   — the flat overlay's [`crate::RecordArena`], where a node in the
//!   query's admitted set ([`Progress::admitted`]) has the walk's
//!   compiled [`Probe`] asked of its record signatures, or an
//!   [`crate::IndexNode`] per super;
//! * the **[`Sink`]** receives every forwarded copy and every hit batch
//!   with its delivery time — [`crate::DesNetwork`] pushes each onto its
//!   timeline as an event.
//!
//! Both overlay protocols keep one [`Overlay`] — graph, routing digests,
//! walker rng, TTL and dedup rule — and every [`Walk`] is assembled from
//! it in one place, [`Overlay::walk`], for the event the driver is
//! handling.
//!
//! Node ids are plain `u32`s: peer ids on the flat overlay, super
//! indices (which are the supers' peer ids) on the two-tier one.

use crate::digest::{DigestConfig, EntryVisitor, Probe, RouteTable};
use crate::event::PropMode;
use crate::latency::Latency;
use crate::message::{SearchHit, SharedFields, Time};
use crate::peer::PeerId;
use crate::stats::{Fate, MsgKind, NetStats, SearchOutcome};
use crate::topology::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One locally matching record: `(key, provider, fields)`.
pub(crate) type Match = (String, PeerId, SharedFields);

/// A hop's local evaluation: the records node `node` answers with, given
/// the query's admitted set ([`Progress::admitted`]).
pub(crate) trait Eval: FnMut(u32, &[u64]) -> Vec<Match> {}

impl<F: FnMut(u32, &[u64]) -> Vec<Match>> Eval for F {}

/// Most neighbours a guided copy is forwarded to per hop, when the
/// nearest match is in a layer sparse enough to believe.
const FANOUT: usize = 2;

/// Random walkers spawned where the query entered the overlay when no
/// neighbour's digest matches; a dead end further on continues as one.
pub(crate) const WALK_WIDTH: usize = 2;

/// Liveness of `peer`; ids outside the network are dead.
pub(crate) fn is_alive(alive: &[bool], peer: PeerId) -> bool {
    alive.get(peer.index()).copied().unwrap_or(false)
}

/// A query copy in flight. `via` is the visit that sent it — an index
/// into its query's trail of forwarding visits, [`ENTRY`] for the copy
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

/// Everything one query accumulates across its hops. Times are absolute
/// on the caller's time base until [`Progress::finish`].
pub(crate) struct Progress {
    pub outcome: SearchOutcome,
    pub last_hit_at: Time,
    pub quiescence: Time,
    /// One bit per node id visited, sized for the overlay at the first
    /// visit: ids are dense, chosen by the topology, and only a live
    /// node's id is ever marked.
    seen: Vec<u64>,
    /// One `(node, via)` per visit that forwarded: the node, and the
    /// trail index of the visit that had sent it the copy ([`ENTRY`] for
    /// the first). Every copy a visit sends names that visit's entry, so
    /// parent pointers hold every route of the query once.
    trail: Vec<(u32, u32)>,
    /// The leaf origin behind the entry super, when there is one: the
    /// last reverse hop of every hit batch.
    leaf: Option<u32>,
    /// The two-tier overlay's count of leaf moves when the query was
    /// issued ([`Walk::start`]); 0 on the flat overlay.
    moves: u64,
    /// A guided hop's working list — its plausible neighbours as
    /// `(depth, node)`, or its walker options — kept across the query's
    /// hops, so a hop allocates only when the list must grow.
    picks: Vec<(u8, u32)>,
    /// The flat overlay's gate for this query: one bit per node id whose
    /// term summary admits it ([`crate::RecordArena::admitted`]), what
    /// every local evaluation is handed. Empty on the two-tier overlay.
    pub admitted: Vec<u64>,
    /// The arena's write count when `admitted` was built; `None` before.
    admitted_at: Option<u64>,
    /// The query's community as the arena interned it at that count
    /// (`None`: no record of it exists).
    community: Option<u32>,
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
            trail: Vec::new(),
            leaf: None,
            moves: 0,
            picks: Vec::new(),
            admitted: Vec::new(),
            admitted_at: None,
            community: None,
        }
    }

    /// Brings [`Progress::admitted`] up to the arena's write count
    /// `writes` and returns the query's interned community: `build`
    /// rebuilds the set and looks the community up when they were built
    /// at another count or never, so a query in flight across a write
    /// sees every summary, and a community the write interned, as they
    /// are at each hop.
    #[inline]
    pub fn admit(
        &mut self,
        writes: u64,
        build: impl FnOnce(&mut Vec<u64>) -> Option<u32>,
    ) -> Option<u32> {
        if self.admitted_at != Some(writes) {
            self.community = build(&mut self.admitted);
            self.admitted_at = Some(writes);
        }
        self.community
    }

    /// Closes the query once nothing of it is in flight: latencies
    /// become relative to `issued_at`, and the visited bitmap, the hit
    /// set, the trail and the admitted set are released.
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
        self.trail = Vec::new();
        self.picks = Vec::new();
        self.admitted = Vec::new();
        self.admitted_at = None;
    }
}

/// What the two overlay protocols keep alike: the graph a query walks,
/// the routing digests over it, the walkers' rng, and the TTL and dedup
/// rule every copy obeys. A [`Topology`] is immutable, so the digests
/// are laid out for it once.
pub(crate) struct Overlay {
    pub topology: Topology,
    /// Per-directed-edge attenuated digests (guided search only), indexed
    /// by `topology`'s edge ids.
    pub routes: RouteTable,
    /// Seeded source for the random-walk fallback; part of the
    /// deterministic state, not wall-clock randomness.
    walk_rng: StdRng,
    ttl: u8,
    /// Drop duplicate flood arrivals (Gnutella's GUID cache).
    dedup: bool,
}

impl Overlay {
    /// `topology` with an empty digest table for `digests`, walkers
    /// seeded by `walk_seed`.
    pub fn new(
        topology: Topology,
        digests: DigestConfig,
        walk_seed: u64,
        ttl: u8,
        dedup: bool,
    ) -> Overlay {
        let (routes, walk_rng) = (RouteTable::new(digests), StdRng::seed_from_u64(walk_seed));
        Overlay { topology, routes, walk_rng, ttl, dedup }
    }

    /// The walk of one query over this overlay, borrowed for one event at
    /// a time by [`crate::DesNetwork`]: the substrate lends its liveness,
    /// latency model and statistics, `probe` is the query compiled once,
    /// and `moves` counts the leaves' moves between supers so far (0 on
    /// the flat overlay).
    pub fn walk<'a>(
        &'a mut self,
        alive: &'a [bool],
        latency: &'a Latency,
        stats: &'a mut NetStats,
        probe: &'a Probe,
        moves: u64,
    ) -> Walk<'a> {
        let Overlay { topology, routes, walk_rng, ttl, dedup } = self;
        let (ttl, dedup) = (*ttl, *dedup);
        Walk { topology, routes, alive, latency, walk_rng, stats, probe, ttl, dedup, moves }
    }

    /// Brings the routing digests up to date with the writes since the
    /// last refresh and counts the `DigestRequest`/`DigestPush` exchange
    /// that costs. `entries_of` lists the entries of a node's share table (see
    /// [`RouteTable::refresh`]). A no-op when guided search is disabled
    /// or nothing changed since the last refresh; guided searches call
    /// this lazily, the way a servent batches digest updates onto its
    /// keep-alives.
    pub fn refresh(
        &mut self,
        stats: &mut NetStats,
        entries_of: impl FnMut(u32, &mut EntryVisitor<'_>),
    ) {
        if !self.routes.config().enabled || !self.routes.needs_refresh() {
            return;
        }
        let (requests, pushes) = self.routes.refresh(&self.topology, entries_of);
        stats.sent_n(MsgKind::DigestRequest, requests);
        stats.sent_n(MsgKind::DigestPush, pushes);
    }

    /// Deterministic estimate of the overlay's resident bytes: its edges
    /// (a receiver and a reverse id per direction, 16 bytes an undirected
    /// edge) and its routing digests.
    pub fn approx_bytes(&self) -> u64 {
        self.topology.edge_count() as u64 * 16 + self.routes.approx_bytes()
    }
}

/// What a hop consults and accounts into, borrowed from the substrate
/// for one event.
pub(crate) struct Walk<'a> {
    topology: &'a Topology,
    routes: &'a RouteTable,
    alive: &'a [bool],
    latency: &'a Latency,
    walk_rng: &'a mut StdRng,
    stats: &'a mut NetStats,
    /// The query compiled once per query: what guided forwarding asks the
    /// neighbours' digests.
    probe: &'a Probe,
    ttl: u8,
    dedup: bool,
    /// Leaf moves between supers so far ([`Overlay::walk`]).
    moves: u64,
}

impl Walk<'_> {
    /// Issues the query at `t0`. The caller has counted it, found the
    /// origin alive and refreshed the digests.
    ///
    /// `entry: None` is the flat overlay: the origin is an overlay node
    /// and consults its own shares first, for free — a hop, whose fate
    /// this returns. `entry: Some(s)` is the two-tier overlay: the query
    /// enters at super `s`, one uplink `Query` away when the origin is a
    /// leaf; the copy's arrival is the hop, unless the uplink finds the
    /// super offline ([`Fate::Dead`]), which happens only when no super
    /// is live.
    pub fn start<E, S>(
        &mut self,
        p: &mut Progress,
        t0: Time,
        origin: u32,
        entry: Option<u32>,
        eval: E,
        sink: &mut S,
    ) -> Option<Fate>
    where
        E: Eval,
        S: Sink,
    {
        p.moves = self.moves;
        let mode =
            if self.routes.config().enabled { PropMode::Guided } else { PropMode::Flood };
        let hop = Hop { to: entry.unwrap_or(origin), via: ENTRY, ttl: self.ttl, mode };
        let Some(entry) = entry else { return Some(self.visit(p, t0, hop, false, eval, sink)) };
        let mut at = t0;
        if entry != origin {
            p.leaf = Some(origin);
            at += self.query_hop(p, origin, entry);
            if !is_alive(self.alive, PeerId(entry)) {
                // its home is offline only while no super is live
                p.quiescence = at;
                return Some(Fate::Dead);
            }
        }
        sink.forward(at, hop);
        None
    }

    /// Handles the copy `hop` delivered at time `t`.
    #[inline]
    pub fn arrive<E, S>(&mut self, p: &mut Progress, t: Time, hop: Hop, eval: E, sink: &mut S) -> Fate
    where
        E: Eval,
        S: Sink,
    {
        self.visit(p, t, hop, true, eval, sink)
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
    ) -> Fate
    where
        E: Eval,
        S: Sink,
    {
        let Hop { to, via, ttl, mode } = hop;
        p.quiescence = p.quiescence.max(t);
        if !is_alive(self.alive, PeerId(to)) {
            // it went offline while the copy was in flight
            return Fate::Dead;
        }
        let (word, bit) = (to as usize / 64, 1u64 << (to % 64));
        if p.seen.len() <= word {
            // sized for the whole overlay at once: a walk that reaches
            // ever higher ids would otherwise grow it one doubling at a
            // time, more often on a larger overlay
            p.seen.resize((word + 1).max(self.topology.len().div_ceil(64)), 0);
        }
        let first_visit = p.seen[word] & bit == 0;
        p.seen[word] |= bit;
        match mode {
            // duplicate query arrival, dropped by the GUID cache
            PropMode::Flood if self.dedup && !first_visit => return Fate::FloodRevisit,
            // a guided copy is always deduplicated; a walker survives
            // revisits (it merely skips re-evaluating the share table)
            PropMode::Guided if !first_visit => return Fate::GuidedRevisit,
            _ => {}
        }
        let matches =
            if first_visit || mode == PropMode::Flood { eval(to, &p.admitted) } else { Vec::new() };
        let answered = !matches.is_empty();
        if answered {
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
            // a node's matches are its own records: on Gnutella it is
            // their provider, on FastTrack its leaves are, each homed at
            // one super at a time. So only a second evaluation of the same
            // node, a flood without dedup, or a leaf that moved to another
            // super while the query was in flight finds a `(key,
            // provider)` pair the query already holds.
            let recheck = !first_visit || p.moves != self.moves;
            p.outcome.hits.reserve(matches.len());
            for (key, provider, fields) in matches {
                let held = |h: &SearchHit| h.provider == provider && h.key == key;
                if recheck && p.outcome.hits.iter().any(held) {
                    continue;
                }
                p.outcome.hits.push(SearchHit { key, provider, fields, hops });
                p.last_hit_at = p.last_hit_at.max(arrival);
                p.outcome.first_hit_latency =
                    Some(p.outcome.first_hit_latency.map_or(arrival, |f| f.min(arrival)));
                new_hits += 1;
            }
            self.stats.hits(hops, u64::from(new_hits));
            if delivered {
                sink.hits_return(arrival, new_hits);
            }
            if mode != PropMode::Flood {
                // frontier stop: this copy found results, stop paying
                // for forwarding (other copies keep exploring)
                return Fate::Answered;
            }
        }
        // every copy this visit sends is one more message of the query
        let before = p.outcome.messages;
        if ttl > 0 {
            let sender = p.trail.get(via as usize).map(|&(node, _)| node);
            // this visit's place on the trail: what every copy it sends names
            let visit = p.trail.len() as u32;
            p.trail.push((to, via));
            if mode == PropMode::Flood {
                // forward to all live neighbors except the immediate sender
                let (topology, alive) = (self.topology, self.alive);
                let onward = |nb: &PeerId| Some(nb.0) != sender && is_alive(alive, *nb);
                for nb in topology.neighbors(PeerId(to)).filter(onward) {
                    let copy = Hop { to: nb.0, via: visit, ttl: ttl - 1, mode: PropMode::Flood };
                    self.send(p, t, to, copy, sink);
                }
            } else {
                // guided copies and walkers re-consult the digests every
                // hop (a walker escaping a stale region resumes guided
                // forwarding)
                self.forward_guided(p, t, sender, (to, visit), ttl, sink);
            }
        }
        match (p.outcome.messages > before, ttl, mode) {
            (true, ..) => Fate::Forwarded,
            _ if answered => Fate::Answered,
            (_, 0, PropMode::Walk) => Fate::WalkerExpired,
            (_, 0, _) => Fate::TtlSpent,
            _ => Fate::DeadEnd,
        }
    }

    /// Forwards one guided copy holding `ttl > 0` from node `from`, whose
    /// visit is entry `visit` of the trail, over its live links other
    /// than the one to the sender: to digest-matching neighbours, closest
    /// plausible match first and ties by id — [`FANOUT`] of them when the
    /// nearest one matched in a layer sparse enough to believe
    /// ([`RouteTable::is_sparse`]), else that one alone — when any
    /// exist, else random walkers drawn from the neighbours in topology
    /// order — [`WALK_WIDTH`] where the query entered, one for a dead end
    /// further on — so stale or saturated digests degrade to extra
    /// messages, not misses.
    fn forward_guided<S: Sink>(
        &mut self,
        p: &mut Progress,
        t: Time,
        sender: Option<u32>,
        (from, visit): (u32, u32),
        ttl: u8,
        sink: &mut S,
    ) {
        let mut picks = std::mem::take(&mut p.picks);
        picks.clear();
        let alive = self.alive;
        let onward = |nb: u32| Some(nb) != sender && is_alive(alive, PeerId(nb));
        let depths = self.routes.min_depths_toward(self.topology, from, onward, self.probe, ttl);
        picks.extend(depths.filter_map(|(nb, depth)| Some((depth?, nb))));
        picks.sort_unstable();
        let copy = |to, mode| Hop { to, via: visit, ttl: ttl - 1, mode };
        if let Some(&(depth, nearest)) = picks.first() {
            let sparse = self.routes.is_sparse(self.topology, nearest, from, depth);
            for &(_, nb) in picks.iter().take(if sparse { FANOUT } else { 1 }) {
                self.send(p, t, from, copy(nb, PropMode::Guided), sink);
            }
        } else {
            let options = self.topology.neighbors(PeerId(from)).filter(|nb| onward(nb.0));
            picks.extend(options.map(|nb| (0, nb.0)));
            let width = if sender.is_none() { WALK_WIDTH } else { 1 };
            for _ in 0..width.min(picks.len()) {
                let (_, nb) = picks.swap_remove(self.walk_rng.gen_range(0..picks.len()));
                self.send(p, t, from, copy(nb, PropMode::Walk), sink);
            }
        }
        p.picks = picks;
    }

    /// Sends `copy` from node `from`.
    fn send<S: Sink>(&mut self, p: &mut Progress, t: Time, from: u32, copy: Hop, sink: &mut S) {
        let at = t + self.query_hop(p, from, copy.to);
        sink.forward(at, copy);
    }

    /// Counts one `Query` crossing `from → to` and returns its delay.
    fn query_hop(&mut self, p: &mut Progress, from: u32, to: u32) -> Time {
        self.stats.sent(MsgKind::Query);
        p.outcome.messages += 1;
        self.latency.delay(PeerId(from), PeerId(to))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::for_each_record_entry;
    use crate::latency::LatencySpec;
    use up2p_store::Query;

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
        /// What the hop returned.
        fate: Option<Fate>,
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
        /// The route of a copy whose [`Hop::via`] is `via`, entry first
        /// and immediate sender last (the destination is not part of it).
        fn route(&self, via: u32) -> Vec<u32> {
            let mut route: Vec<u32> = route_back(&self.trail, via).collect();
            route.reverse();
            route
        }

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
    /// holder, and a `dense` node also a record of 400 tokens, which
    /// fills all but a few percent of a 256-bit layer.
    struct Script {
        overlay: Overlay,
        alive: Vec<bool>,
        latency: Latency,
        stats: NetStats,
        probe: Probe,
        holders: Vec<u32>,
        /// Every evaluation the core asked for, in order.
        evaluated: Vec<u32>,
    }

    impl Script {
        fn new(
            n: usize,
            edges: &[(u32, u32)],
            digests: DigestConfig,
            holders: &[u32],
            dense: &[u32],
        ) -> Script {
            let pairs = edges.iter().map(|&(a, b)| (PeerId(a), PeerId(b)));
            let topology = Topology::from_edges(n, pairs);
            let mut overlay = Overlay::new(topology, digests, 1, 4, true);
            let words = (0..400).map(|i| format!("w{i}")).collect::<Vec<_>>().join(" ");
            let filler = [("o/words".to_string(), words)];
            if digests.enabled {
                overlay.routes.refresh(&overlay.topology, |node, visit| {
                    if holders.contains(&node) {
                        for_each_record_entry("c", &[], &mut *visit);
                    }
                    if dense.contains(&node) {
                        for_each_record_entry("c", &filler, &mut *visit);
                    }
                });
            }
            Script {
                overlay,
                alive: vec![true; n],
                latency: LatencySpec::Constant(HOP).build(n, 1),
                stats: NetStats::new(),
                probe: Probe::new("c", &Query::All),
                holders: holders.to_vec(),
                evaluated: Vec::new(),
            }
        }

        fn flood(n: usize, edges: &[(u32, u32)], holders: &[u32]) -> Script {
            Script::new(n, edges, DigestConfig::default(), holders, &[])
        }

        fn guided(n: usize, edges: &[(u32, u32)], holders: &[u32]) -> Script {
            Script::guided_dense(n, edges, holders, &[])
        }

        fn guided_dense(n: usize, edges: &[(u32, u32)], holders: &[u32], dense: &[u32]) -> Script {
            let digests = DigestConfig { log2_bits: 8, ..DigestConfig::guided() };
            Script::new(n, edges, digests, holders, dense)
        }

        fn parts(&mut self) -> (Walk<'_>, impl Eval + '_) {
            let Script { overlay, alive, latency, stats, probe, holders, evaluated } = self;
            let eval = move |node: u32, _: &[u64]| {
                evaluated.push(node);
                if holders.contains(&node) {
                    vec![(format!("k{node}"), PeerId(node), SharedFields::from(Vec::new()))]
                } else {
                    Vec::new()
                }
            };
            (overlay.walk(alive, latency, stats, probe, 0), eval)
        }

        fn start(&mut self, p: &mut Progress, t0: Time, origin: u32, entry: Option<u32>) -> Recorder {
            let mut sink = Recorder::default();
            let (mut walk, eval) = self.parts();
            sink.fate = walk.start(p, t0, origin, entry, eval, &mut sink);
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
            sink.fate = Some(walk.arrive(p, t, Hop { to, via, ttl, mode }, eval, &mut sink));
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
        assert_eq!(first.fate, Some(Fate::Forwarded));
        let second = s.arrive(&mut p, 15, 1, &[2], 3, PropMode::Flood);
        assert!(second.forwards.is_empty() && second.batches.is_empty());
        assert_eq!(second.fate, Some(Fate::FloodRevisit));
        assert_eq!(s.evaluated, vec![1], "the duplicate never reached the share table");
        assert_eq!(s.stats.count(MsgKind::Query), 1);
        assert_eq!(s.stats.count(MsgKind::QueryHit), 1);
        assert_eq!(p.outcome.messages, 2);
        assert_eq!(p.quiescence, 15, "a dropped copy still moves quiescence");
    }

    #[test]
    fn flood_without_dedup_reevaluates_and_pays_again() {
        let mut s = Script::flood(3, &TRIANGLE, &[1]);
        s.overlay.dedup = false;
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
    fn a_flood_without_dedup_keeps_each_hit_once() {
        // 1 holds nothing at the first visit; its record is published
        // before the second, which finds it, and the third finds it again
        let mut s = Script::flood(3, &TRIANGLE, &[2]);
        s.overlay.dedup = false;
        let mut p = Progress::new(0);
        assert!(s.arrive(&mut p, 10, 1, &[0], 3, PropMode::Flood).batches.is_empty());
        s.holders.push(1);
        let second = s.arrive(&mut p, 15, 1, &[2], 3, PropMode::Flood);
        assert_eq!(second.batches, vec![(25, 1)], "new at the second visit");
        let third = s.arrive(&mut p, 20, 1, &[0], 3, PropMode::Flood);
        assert_eq!(third.batches, vec![(30, 0)], "held since the second");
        s.arrive(&mut p, 30, 2, &[0, 1], 2, PropMode::Flood);
        s.arrive(&mut p, 35, 2, &[0], 2, PropMode::Flood);
        assert_eq!(s.evaluated, vec![1, 1, 1, 2, 2]);
        let hits: Vec<_> = p.outcome.hits.iter().map(|h| (h.key.as_str(), h.provider.0)).collect();
        assert_eq!(hits, [("k1", 1), ("k2", 2)]);
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
        assert_eq!((first.fate, again.fate), (Some(Fate::Forwarded), Some(Fate::GuidedRevisit)));
        let walker = s.arrive(&mut p, 14, 1, &[0], 3, PropMode::Walk);
        assert_eq!(walker.targets(), vec![2], "the walker lives on, and resumes guided forwarding");
        assert_eq!(walker.fate, Some(Fate::Forwarded));
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
            s.overlay.dedup = dedup;
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
            let fate = if keeps_forwarding { Fate::Forwarded } else { Fate::Answered };
            assert_eq!(out.fate, Some(fate), "{mode:?}");
        }
    }

    #[test]
    fn ttl_zero_evaluates_but_never_forwards() {
        let mut s = Script::flood(3, &TRIANGLE, &[2]);
        let mut p = Progress::new(0);
        let spent = s.arrive(&mut p, 10, 1, &[0], 0, PropMode::Flood);
        assert!(spent.forwards.is_empty());
        assert_eq!(spent.fate, Some(Fate::TtlSpent));
        let found = s.arrive(&mut p, 10, 2, &[0], 0, PropMode::Flood);
        let answered = (found.batches.len(), found.fate);
        assert_eq!(answered, (1, Some(Fate::Answered)), "a match is no spent TTL");
        assert_eq!(s.evaluated, vec![1, 2]);
        s.overlay.ttl = 0;
        let mut p = Progress::new(0);
        let start = s.start(&mut p, 0, 0, None);
        assert!(start.forwards.is_empty(), "a TTL-0 query never leaves");
        assert_eq!(start.fate, Some(Fate::TtlSpent), "the origin's own look is a hop");
        assert_eq!(s.evaluated, vec![1, 2, 0]);
        assert_eq!(s.stats.count(MsgKind::Query), 0);
    }

    #[test]
    fn guided_forwarding_prefers_the_nearest_match_up_to_the_fanout() {
        // from 0: a holder one hop away through 3, two hops away through 1
        let edges = [(0, 1), (1, 2), (0, 3)];
        let mut s = Script::guided(4, &edges, &[2, 3]);
        let mut p = Progress::new(0);
        let out = s.start(&mut p, 0, 0, None);
        assert_eq!(out.targets(), vec![3, 1], "closest plausible match first");
        assert!(out.forwards.iter().all(|f| f.4 == PropMode::Guided && f.3 == 3));
        let mut s = Script::guided(4, &edges, &[1, 3]);
        let mut p = Progress::new(0);
        assert_eq!(s.start(&mut p, 0, 0, None).targets(), vec![1, 3], "equal depths in id order");

        // three plausible neighbours: the two nearest get a copy
        let edges = [(0, 1), (1, 2), (0, 3), (0, 4)];
        let mut s = Script::guided(5, &edges, &[2, 3, 4]);
        let mut p = Progress::new(0);
        assert_eq!(s.start(&mut p, 0, 0, None).targets(), vec![3, 4]);
    }

    #[test]
    fn a_split_needs_a_sparse_layer_under_the_nearest_match() {
        // 0 - 1, 0 - 2, 0 - 3, each neighbour a holder: three depth-1
        // matches, the nearest through 1 (ties by id)
        let star = [(0, 1), (0, 2), (0, 3)];
        let mut s = Script::guided_dense(4, &star, &[1, 2, 3], &[1]);
        let layer = s.overlay.routes.layer(&s.overlay.topology, 1, 0, 1).expect("edge exists");
        let ones: u64 = layer.iter().map(|w| u64::from(w.count_ones())).sum();
        assert!(2 * ones * ones >= 256 * 256, "{ones} of 256 bits set");
        let mut p = Progress::new(0);
        let out = s.start(&mut p, 0, 0, None);
        assert_eq!(out.targets(), vec![1], "a match in a dense layer earns one copy");
        // the same query with the dense layer behind a farther pick splits
        let mut s = Script::guided_dense(4, &star, &[1, 2, 3], &[2]);
        let mut p = Progress::new(0);
        assert_eq!(s.start(&mut p, 0, 0, None).targets(), vec![1, 2]);

        // 0 - 1 - 4 and 0 - 2 - 5, holders 4 and 5: both matches at
        // depth 2, where layer 2 of 1 → 0 is 4's digest
        let forks = [(0, 1), (1, 4), (0, 2), (2, 5)];
        for (dense, targets) in [(4, vec![1]), (5, vec![1, 2])] {
            let mut s = Script::guided_dense(6, &forks, &[4, 5], &[dense]);
            let routes = &s.overlay.routes;
            let sparse = routes.is_sparse(&s.overlay.topology, 1, 0, 2);
            assert_eq!(sparse, dense != 4, "layer 2 of 1 → 0 with {dense} dense");
            let mut p = Progress::new(0);
            assert_eq!(s.start(&mut p, 0, 0, None).targets(), targets, "{dense} dense");
        }
    }

    #[test]
    fn no_copy_goes_to_an_offline_neighbour() {
        // 0 — 1, 2, 3; 1 — 4, 5. Guided: 2 and 3 match at depth 1 from 0,
        // 4 and 5 at depth 1 from 1 and at depth 2 through 1 from 0
        let edges = [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)];
        let (entry, mid): (&[u32], &[u32]) = (&[], &[0]);
        // (mode, holders, offline, where the hop is, its path) → targets
        for (mode, holders, offline, at, path, targets) in [
            (PropMode::Flood, &[][..], &[2][..], 0, entry, vec![1, 3]),
            (PropMode::Flood, &[], &[4], 1, mid, vec![5]),
            (PropMode::Guided, &[2, 3, 4, 5], &[2], 0, entry, vec![3, 1]),
            (PropMode::Guided, &[2, 3, 4, 5], &[4], 1, mid, vec![5]),
            (PropMode::Walk, &[], &[1, 2], 0, entry, vec![3]),
            (PropMode::Walk, &[], &[4], 1, mid, vec![5]),
            (PropMode::Walk, &[], &[4, 5], 1, mid, vec![]),
        ] {
            let mut s = match mode {
                PropMode::Flood => Script::flood(6, &edges, holders),
                _ => Script::guided(6, &edges, holders),
            };
            for &node in offline {
                s.alive[node as usize] = false;
            }
            let mut p = Progress::new(0);
            let out = if path.is_empty() {
                s.start(&mut p, 0, at, None)
            } else {
                s.arrive(&mut p, 10, at, path, 3, mode)
            };
            let case = format!("{mode:?} at {at}, {offline:?} offline");
            assert_eq!(out.targets(), targets, "{case}");
            let fate = if targets.is_empty() { Fate::DeadEnd } else { Fate::Forwarded };
            assert_eq!(out.fate, Some(fate), "{case}");
            assert_eq!(s.stats.count(MsgKind::Query), targets.len() as u64, "{case}");
        }
    }

    #[test]
    fn walker_fallback_is_capped_by_the_neighbours_available() {
        // nothing advertised anywhere: every guided forward falls back
        let edges = [(0, 1), (0, 2), (1, 3)];
        let mut s = Script::guided(4, &edges, &[]);
        let mut p = Progress::new(0);
        let out = s.start(&mut p, 0, 3, None);
        assert_eq!(out.targets(), vec![1], "two walkers asked for, one neighbour exists");
        assert!(out.forwards.iter().all(|f| f.4 == PropMode::Walk));
        assert_eq!(out.fate, Some(Fate::Forwarded));
        // (to, path, ttl) → copies sent on, and the hop's fate:
        for (to, path, ttl, targets, fate) in [
            // mid-path a dead end continues as one walker, never back to the sender
            (1, &[0][..], 3, vec![3], Fate::Forwarded),
            // with the sender as the only neighbour the walk ends
            (3, &[0, 1], 2, vec![], Fate::DeadEnd),
            // and a walker with no TTL left expires where it stands
            (2, &[0], 0, vec![], Fate::WalkerExpired),
        ] {
            let hop = s.arrive(&mut p, 10, to, path, ttl, PropMode::Walk);
            assert_eq!((hop.targets(), hop.fate), (targets, Some(fate)), "walker at {to}");
        }
    }

    #[test]
    fn dead_nodes_drop_the_copy() {
        let mut s = Script::flood(3, &TRIANGLE, &[1]);
        s.alive[1] = false;
        let mut p = Progress::new(0);
        let out = s.arrive(&mut p, 10, 1, &[0], 3, PropMode::Flood);
        assert!(out.forwards.is_empty() && out.batches.is_empty() && s.evaluated.is_empty());
        assert_eq!(out.fate, Some(Fate::Dead));
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
        assert_eq!(up.fate, None, "the hop is the copy's arrival at the entry");
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
        let out = s.start(&mut p, 0, 5, Some(0));
        assert!(out.forwards.is_empty());
        assert_eq!((s.stats.count(MsgKind::Query), out.fate), (1, Some(Fate::Dead)));
        p.finish(0, &mut s.stats);
        assert_eq!((p.outcome.latency, p.outcome.messages), (HOP, 1));
    }
}
