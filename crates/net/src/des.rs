//! Whole-network discrete-event simulation engine.
//!
//! The step substrates ([`crate::CentralizedNetwork`],
//! [`crate::FloodingNetwork`], [`crate::SuperPeerNetwork`]) simulate one
//! search at a time on a private event queue; churn and digest refresh
//! happen *between* searches, instantaneously. [`DesNetwork`] runs the
//! same three protocols on **one global virtual-time queue**
//! ([`crate::sim::EventQueue`], popping by `(timestamp, push order)`):
//! query issue, per-hop message delivery, hit return, churn transitions
//! and digest refresh are all timestamped [`DesEvent`]s, so a churn
//! storm lands *while* queries are in flight.
//!
//! # A scheduler, not a protocol
//!
//! The engine owns a step substrate and a timeline, nothing else. Peers,
//! liveness, shared records, overlay, routing digests, latency model,
//! walker rng and statistics are the substrate's, built by the
//! substrate's constructor; `publish`, `unpublish`, `retrieve`, liveness
//! and digest refresh delegate to it, and a query event borrows the
//! substrate's own walk (the crate's one overlay-search core,
//! `overlay.rs`) exactly as the substrate's `search` does. What differs
//! is the [`Sink`]: every forwarded copy becomes a `Query` event and
//! every hit batch a `HitDeliver` on the global queue, counted in the
//! query's `pending`, with the query's issue time as the time base. A
//! sequential [`PeerNetwork::search`] therefore produces the message
//! counts, latencies and hit *sets* of the step substrate built from the
//! same seed — there is one constructor and one stream of rng draws, not
//! two kept alike — and `tests/des_equivalence.rs` pins what is still the
//! driver's own: queue discipline, time base, `pending`.
//!
//! The one choice made here is the Gnutella share-table layout: the
//! engine drives `FloodingNetwork<RecordArena>`, struct-of-arrays over
//! all peers instead of one inverted index per peer, which is what makes
//! 100k+ peers tractable; the substrate's term summary spares it every
//! visited peer with nothing to say, as it spares the indexes. Hit
//! *order* may differ from the step network for the layout alone: the
//! arena scans a peer's records in insertion order, the metadata index in
//! doc-id order, and doc ids are recycled.

use crate::centralized::CentralizedNetwork;
use crate::churn::ChurnEvent;
use crate::digest::{Probe, RecordVisitor};
use crate::event::DesEvent;
use crate::flooding::{FloodingConfig, FloodingNetwork, ShareTable};
use crate::latency::LatencyModel;
use crate::message::{ResourceRecord, SharedFields, Time};
use crate::overlay::{Hop, Match, Progress, Sink};
use crate::peer::PeerId;
use crate::sim::EventQueue;
use crate::stats::{NetStats, RetrieveOutcome, SearchOutcome};
use crate::superpeer::{SuperPeerConfig, SuperPeerNetwork};
use crate::topology::Topology;
use crate::traits::{PeerNetwork, ProtocolKind};
use crate::NetConfig;
use std::collections::{HashMap, VecDeque};
use up2p_store::Query;

// ---------------------------------------------------------------------
// Struct-of-arrays record storage
// ---------------------------------------------------------------------

/// The struct-of-arrays [`ShareTable`]: one slot per live record across
/// *all* peers, with per-peer slot lists, where the step substrate's
/// default layout keeps one inverted index per peer — prohibitively
/// pointer-heavy at 100k peers.
///
/// Communities are interned once; fields stay behind the shared
/// [`SharedFields`] arc so a record replicated on many peers costs one
/// allocation.
#[derive(Debug, Default)]
pub struct RecordArena {
    /// Record key per slot (empty string = free slot).
    keys: Vec<String>,
    /// Interned community id per slot.
    communities: Vec<u32>,
    /// Shared field list per slot.
    fields: Vec<SharedFields>,
    /// Recycled slot indices.
    free: Vec<u32>,
    /// Interned community names.
    community_names: Vec<String>,
    /// Name → interned id.
    community_ids: HashMap<String, u32>,
    /// Slots held by each peer, in insertion order.
    by_peer: Vec<Vec<u32>>,
}

impl RecordArena {
    fn intern_community(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.community_ids.get(name) {
            return id;
        }
        let id = self.community_names.len() as u32;
        self.community_names.push(name.to_string());
        self.community_ids.insert(name.to_string(), id);
        id
    }

    fn take(&mut self, peer: u32, key: &str) -> Option<(u32, SharedFields)> {
        let RecordArena { keys, communities, fields, free, by_peer, .. } = self;
        let list = by_peer.get_mut(peer as usize)?;
        let pos = list.iter().position(|&s| keys[s as usize] == key)?;
        let slot = list.remove(pos);
        keys[slot as usize].clear();
        free.push(slot);
        let taken = std::mem::replace(&mut fields[slot as usize], SharedFields::from(Vec::new()));
        Some((communities[slot as usize], taken))
    }
}

impl ShareTable for RecordArena {
    fn with_peers(peers: usize) -> RecordArena {
        RecordArena { by_peer: vec![Vec::new(); peers], ..RecordArena::default() }
    }

    fn upsert(&mut self, peer: u32, record: &ResourceRecord) -> Option<(&str, SharedFields)> {
        if peer as usize >= self.by_peer.len() {
            return None;
        }
        let replaced = self.take(peer, &record.key);
        let cid = self.intern_community(&record.community);
        let slot = match self.free.pop() {
            Some(s) => {
                self.keys[s as usize] = record.key.clone();
                self.communities[s as usize] = cid;
                self.fields[s as usize] = SharedFields::clone(&record.fields);
                s
            }
            None => {
                let s = self.keys.len() as u32;
                self.keys.push(record.key.clone());
                self.communities.push(cid);
                self.fields.push(SharedFields::clone(&record.fields));
                s
            }
        };
        self.by_peer[peer as usize].push(slot);
        replaced.map(|(cid, fields)| (self.community_names[cid as usize].as_str(), fields))
    }

    fn remove(&mut self, peer: u32, key: &str) -> Option<(&str, SharedFields)> {
        let (cid, fields) = self.take(peer, key)?;
        Some((self.community_names[cid as usize].as_str(), fields))
    }

    fn has(&self, peer: u32, key: &str) -> bool {
        self.by_peer
            .get(peer as usize)
            .is_some_and(|list| list.iter().any(|&s| self.keys[s as usize] == key))
    }

    fn shared_count(&self, peer: u32) -> usize {
        self.by_peer.get(peer as usize).map_or(0, Vec::len)
    }

    /// A scan of each visited peer's records, in insertion order.
    fn matcher<'a>(
        &'a self,
        community: &'a str,
        query: &'a Query,
    ) -> impl FnMut(u32) -> Vec<Match> + 'a {
        let cid = self.community_ids.get(community).copied();
        move |peer| {
            let (Some(cid), Some(list)) = (cid, self.by_peer.get(peer as usize)) else {
                return Vec::new();
            };
            let mut out = Vec::new();
            for &slot in list {
                if self.communities[slot as usize] == cid
                    && query.matches_fields(&self.fields[slot as usize])
                {
                    out.push((
                        self.keys[slot as usize].clone(),
                        PeerId(peer),
                        SharedFields::clone(&self.fields[slot as usize]),
                    ));
                }
            }
            out
        }
    }

    fn for_each_record(&self, peer: u32, visit: &mut RecordVisitor<'_>) {
        for &slot in self.by_peer.get(peer as usize).into_iter().flatten() {
            let community = &self.community_names[self.communities[slot as usize] as usize];
            visit(community, &self.fields[slot as usize]);
        }
    }

    /// Deterministic (two same-seed runs report the same number).
    fn approx_bytes(&self) -> u64 {
        let slots = self.keys.len() as u64;
        let key_bytes: u64 = self.keys.iter().map(|k| k.len() as u64).sum();
        let by_peer: u64 = self.by_peer.iter().map(|l| 24 + 4 * l.len() as u64).sum();
        key_bytes + slots * (24 + 4 + 16) + by_peer + self.free.len() as u64 * 4
    }
}

// ---------------------------------------------------------------------
// The driven substrate
// ---------------------------------------------------------------------

/// The step substrate the engine schedules: all protocol state and every
/// protocol decision live in here.
enum Substrate {
    Napster(CentralizedNetwork),
    Gnutella(FloodingNetwork<RecordArena>),
    FastTrack(SuperPeerNetwork),
}

impl Substrate {
    /// Everything the [`PeerNetwork`] trait already offers is delegated
    /// through these two.
    fn as_net(&self) -> &dyn PeerNetwork {
        match self {
            Substrate::Napster(n) => n,
            Substrate::Gnutella(g) => g,
            Substrate::FastTrack(f) => f,
        }
    }

    fn as_net_mut(&mut self) -> &mut dyn PeerNetwork {
        match self {
            Substrate::Napster(n) => n,
            Substrate::Gnutella(g) => g,
            Substrate::FastTrack(f) => f,
        }
    }

    fn stats_mut(&mut self) -> &mut NetStats {
        match self {
            Substrate::Napster(n) => &mut n.stats,
            Substrate::Gnutella(g) => &mut g.stats,
            Substrate::FastTrack(f) => &mut f.stats,
        }
    }
}

// ---------------------------------------------------------------------
// Per-query state
// ---------------------------------------------------------------------

/// In-flight bookkeeping for one scheduled query. `pending` counts this
/// query's events still on the queue (including the initial
/// `QueryIssue`); the query finalizes when it reaches zero.
struct QueryState {
    origin: PeerId,
    community: String,
    query: Query,
    issued_at: Time,
    progress: Progress,
    pending: u32,
    done: bool,
    taken: bool,
}

/// Query ids are never reused: the table holds the queries from id
/// `retired` on, and an id below it — handed out and freed — finds none.
fn query_mut(
    queries: &mut VecDeque<QueryState>,
    retired: u32,
    qid: u32,
) -> Option<&mut QueryState> {
    queries.get_mut(qid.checked_sub(retired)? as usize)
}

/// The walk's deliveries become events on the global timeline, each one
/// more thing its query waits for.
struct Timeline<'a> {
    qid: u32,
    pending: &'a mut u32,
    queue: &'a mut EventQueue<DesEvent>,
}

impl Sink for Timeline<'_> {
    fn forward(&mut self, at: Time, hop: Hop) {
        let (qid, Hop { to, via, ttl, mode }) = (self.qid, hop);
        *self.pending += 1;
        self.queue.push(at, DesEvent::Query { qid, to, via, ttl, mode });
    }

    fn hits_return(&mut self, at: Time, n: u32) {
        *self.pending += 1;
        self.queue.push(at, DesEvent::HitDeliver { qid: self.qid, hits: n });
    }
}

// ---------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------

/// Discrete-event simulation substrate running Napster, Gnutella, or
/// FastTrack semantics on one global virtual-time queue.
///
/// Construct with [`DesNetwork::build`] (the same [`NetConfig`] mapping
/// and seeds as [`crate::build_network_with`]) or the per-protocol
/// constructors, then either:
///
/// * drive it through the [`PeerNetwork`] trait — each `search` pumps
///   the queue until that query completes, with the step substrate's
///   accounting — or
/// * build a global timeline with [`DesNetwork::schedule_query`],
///   [`DesNetwork::schedule_churn`], and
///   [`DesNetwork::schedule_digest_refresh`], then [`DesNetwork::run`]
///   it to completion, letting queries and churn interleave in virtual
///   time.
pub struct DesNetwork {
    substrate: Substrate,
    queue: EventQueue<DesEvent>,
    queries: VecDeque<QueryState>,
    /// Queries freed so far: the id of `queries[0]`.
    retired: u32,
    clock: Time,
    events_processed: u64,
    peak_queue: usize,
    log: Option<Vec<String>>,
}

impl std::fmt::Debug for DesNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DesNetwork")
            .field("kind", &self.kind())
            .field("peers", &self.peer_count())
            .field("clock", &self.clock)
            .field("events_processed", &self.events_processed)
            .field("queued", &self.queue.len())
            .field("queries", &self.queries.len())
            .finish()
    }
}

impl DesNetwork {
    // ---- construction ------------------------------------------------

    fn driving(substrate: Substrate) -> DesNetwork {
        DesNetwork {
            substrate,
            queue: EventQueue::new(),
            queries: VecDeque::new(),
            retired: 0,
            clock: 0,
            events_processed: 0,
            peak_queue: 0,
            log: None,
        }
    }

    /// Napster semantics: every peer talks to one central index server.
    pub fn napster(peers: usize, latency: Box<dyn LatencyModel + Send + Sync>) -> DesNetwork {
        DesNetwork::driving(Substrate::Napster(CentralizedNetwork::new(peers, latency)))
    }

    /// Gnutella semantics on an explicit overlay: a
    /// [`FloodingNetwork`] over the [`RecordArena`] layout.
    pub fn gnutella(
        topology: Topology,
        latency: Box<dyn LatencyModel + Send + Sync>,
        config: FloodingConfig,
    ) -> DesNetwork {
        DesNetwork::driving(Substrate::Gnutella(FloodingNetwork::with_table(
            topology, latency, config,
        )))
    }

    /// FastTrack semantics: a [`SuperPeerNetwork`] — the first
    /// `config.supers` peers are supers, every other peer is assigned one
    /// uniformly.
    ///
    /// # Panics
    ///
    /// Panics if `config.supers` is zero or exceeds `peers`.
    pub fn fasttrack(
        peers: usize,
        config: SuperPeerConfig,
        latency: Box<dyn LatencyModel + Send + Sync>,
        seed: u64,
    ) -> DesNetwork {
        DesNetwork::driving(Substrate::FastTrack(SuperPeerNetwork::new(
            peers, config, latency, seed,
        )))
    }

    /// Builds a DES substrate from the same [`NetConfig`] knobs as
    /// [`crate::build_network_with`], consuming seeds identically so the
    /// two constructions are comparable run-for-run.
    pub fn build(kind: ProtocolKind, peers: usize, seed: u64, config: &NetConfig) -> DesNetwork {
        let latency = config.latency.build(peers, seed);
        match kind {
            ProtocolKind::Napster => DesNetwork::napster(peers, latency),
            ProtocolKind::Gnutella => {
                let topology = Topology::small_world(peers, 2, 0.2, seed);
                DesNetwork::gnutella(topology, latency, config.flooding())
            }
            ProtocolKind::FastTrack => {
                DesNetwork::fasttrack(peers, config.super_peer(peers), latency, seed)
            }
        }
    }

    // ---- timeline construction ---------------------------------------

    /// Schedules a query to leave `origin` at virtual time `at`; returns
    /// the query id used in [`DesEvent`] variants and
    /// [`DesNetwork::take_outcome`].
    pub fn schedule_query(&mut self, at: Time, origin: PeerId, community: &str, query: Query) -> u32 {
        let qid = self.retired + self.queries.len() as u32;
        self.queries.push_back(QueryState {
            origin,
            community: community.to_string(),
            query,
            issued_at: at,
            progress: Progress::new(at),
            pending: 1,
            done: false,
            taken: false,
        });
        self.queue.push(at, DesEvent::QueryIssue { qid });
        self.peak_queue = self.peak_queue.max(self.queue.len());
        qid
    }

    /// Schedules liveness transitions (e.g. from
    /// [`crate::churn::exponential_schedule`]) as timestamped events.
    pub fn schedule_churn(&mut self, events: &[ChurnEvent]) {
        for e in events {
            self.queue.push(e.at, DesEvent::Churn { peer: e.peer, online: e.online });
        }
        self.peak_queue = self.peak_queue.max(self.queue.len());
    }

    /// Schedules a routing-digest rebuild at virtual time `at`.
    pub fn schedule_digest_refresh(&mut self, at: Time) {
        self.queue.push(at, DesEvent::DigestRefresh);
        self.peak_queue = self.peak_queue.max(self.queue.len());
    }

    /// Starts recording one log line per processed event (for the
    /// determinism/replay tests).
    pub fn enable_event_log(&mut self) {
        self.log = Some(Vec::new());
    }

    /// The recorded event log (empty unless
    /// [`DesNetwork::enable_event_log`] was called).
    pub fn event_log(&self) -> &[String] {
        self.log.as_deref().unwrap_or(&[])
    }

    /// Drains the queue, then returns every not-yet-taken query outcome
    /// in scheduling order.
    pub fn run(&mut self) -> Vec<SearchOutcome> {
        self.pump(None);
        let held = self.retired..self.retired + self.queries.len() as u32;
        held.filter_map(|qid| self.take_outcome(qid)).collect()
    }

    /// Takes a completed query's outcome by id (`None` if unknown, not
    /// yet finished, or already taken).
    pub fn take_outcome(&mut self, qid: u32) -> Option<SearchOutcome> {
        let qs = query_mut(&mut self.queries, self.retired, qid)?;
        if !qs.done || qs.taken {
            return None;
        }
        qs.taken = true;
        let outcome = std::mem::take(&mut qs.progress.outcome);
        // a taken query is done, so no queued event names it: free the
        // taken prefix instead of holding every query ever scheduled
        while self.queries.front().is_some_and(|qs| qs.taken) {
            self.queries.pop_front();
            self.retired += 1;
        }
        Some(outcome)
    }

    // ---- introspection -----------------------------------------------

    /// Which protocol this engine runs.
    pub fn kind(&self) -> ProtocolKind {
        match self.substrate {
            Substrate::Napster(_) => ProtocolKind::Napster,
            Substrate::Gnutella(_) => ProtocolKind::Gnutella,
            Substrate::FastTrack(_) => ProtocolKind::FastTrack,
        }
    }

    /// Current virtual time (max timestamp processed so far).
    pub fn clock(&self) -> Time {
        self.clock
    }

    /// Total events popped from the queue so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// High-water mark of the event queue length.
    pub fn peak_queue_len(&self) -> usize {
        self.peak_queue
    }

    /// Records currently shared by `peer` (0 for Napster, where records
    /// live only on the server).
    pub fn shared_count(&self, peer: PeerId) -> usize {
        match &self.substrate {
            Substrate::Napster(_) => 0,
            Substrate::Gnutella(g) => g.shared_count(peer),
            Substrate::FastTrack(f) => f.shared_count(peer),
        }
    }

    /// The super-peer index `peer` reports to (FastTrack only).
    pub fn super_of_peer(&self, peer: PeerId) -> Option<usize> {
        match &self.substrate {
            Substrate::FastTrack(f) => f.super_of(peer),
            _ => None,
        }
    }

    /// Queries the routing tables like the forwarding path does: the
    /// minimum advertised depth at which `advertiser`'s digest (held by
    /// `receiver`) may match, within `max_depth`. Used by the churn
    /// regression tests to assert stale digests never go false-negative.
    pub fn route_min_depth(
        &self,
        advertiser: u32,
        receiver: u32,
        community: &str,
        query: &Query,
        max_depth: u8,
    ) -> Option<u8> {
        let routes = match &self.substrate {
            Substrate::Napster(_) => return None,
            Substrate::Gnutella(g) => g.routes(),
            Substrate::FastTrack(f) => f.routes(),
        };
        routes.min_depth(advertiser, receiver, &Probe::new(community, query), max_depth)
    }

    /// Deterministic estimate of resident state in bytes: the
    /// substrate's own estimate plus the event queue at its high-water
    /// mark. Not allocator-exact — comparable across runs and protocols,
    /// which is what the E11 scale experiment needs.
    pub fn approx_bytes(&self) -> u64 {
        let state = match &self.substrate {
            Substrate::Napster(n) => n.approx_bytes(),
            Substrate::Gnutella(g) => g.approx_bytes(),
            Substrate::FastTrack(f) => f.approx_bytes(),
        };
        state + self.peak_queue as u64 * (std::mem::size_of::<DesEvent>() as u64 + 24)
    }

    /// Rebuilds dirty routing digests immediately (also triggered by the
    /// guided search path and [`DesEvent::DigestRefresh`] events).
    pub fn refresh_digests(&mut self) {
        match &mut self.substrate {
            Substrate::Napster(_) => {}
            Substrate::Gnutella(g) => g.refresh_digests(),
            Substrate::FastTrack(f) => f.refresh_digests(),
        }
    }

    // ---- the pump ----------------------------------------------------

    /// Processes events in `(timestamp, push order)` order. With
    /// `until = Some(qid)`, stops once that query finalizes; with `None`,
    /// drains the queue.
    fn pump(&mut self, until: Option<u32>) {
        while let Some((t, ev)) = self.queue.pop() {
            self.clock = self.clock.max(t);
            self.events_processed += 1;
            if let Some(log) = &mut self.log {
                let (queries, retired) = (&mut self.queries, self.retired);
                log.push(ev.log_line(t, |qid, via| {
                    let qs = query_mut(queries, retired, qid);
                    qs.map_or_else(Vec::new, |qs| qs.progress.route(via))
                }));
            }
            let qid = self.dispatch(t, ev);
            self.peak_queue = self.peak_queue.max(self.queue.len());
            if qid.is_some_and(|q| self.finalize_if_done(q)) && until == qid {
                return;
            }
        }
    }

    /// Routes one event to its handler; returns the query id for
    /// query-scoped events so the pump can check for completion.
    fn dispatch(&mut self, t: Time, ev: DesEvent) -> Option<u32> {
        match ev {
            DesEvent::QueryIssue { qid } => {
                self.handle_query(t, qid, None);
                Some(qid)
            }
            DesEvent::Query { qid, to, via, ttl, mode } => {
                self.handle_query(t, qid, Some(Hop { to, via, ttl, mode }));
                Some(qid)
            }
            DesEvent::ServerQuery { qid } => {
                self.handle_server_query(qid);
                Some(qid)
            }
            DesEvent::HitDeliver { qid, .. } => {
                if let Some(qs) = query_mut(&mut self.queries, self.retired, qid) {
                    qs.pending = qs.pending.saturating_sub(1);
                }
                Some(qid)
            }
            DesEvent::Churn { peer, online } => {
                self.set_alive(peer, online);
                None
            }
            DesEvent::DigestRefresh => {
                self.refresh_digests();
                None
            }
        }
    }

    /// Converts a completed query's absolute times to the step
    /// substrates' origin-relative convention and releases its dedup
    /// sets; `true` when this event was the query's last.
    fn finalize_if_done(&mut self, qid: u32) -> bool {
        let Some(qs) = query_mut(&mut self.queries, self.retired, qid) else { return false };
        if qs.done || qs.pending != 0 {
            return false;
        }
        qs.done = true;
        qs.progress.finish(qs.issued_at, self.substrate.stats_mut());
        true
    }

    // ---- event handlers ----------------------------------------------

    /// The driver half of a query's life on the timeline: `hop: None`
    /// issues the query, `Some` delivers one copy. Whether the query
    /// leaves at all and everything its walk decides is the substrate's;
    /// this picks the entry point per protocol.
    fn handle_query(&mut self, t: Time, qid: u32, hop: Option<Hop>) {
        let Self { substrate, queue, queries, retired, .. } = self;
        let Some(qs) = query_mut(queries, *retired, qid) else { return };
        qs.pending = qs.pending.saturating_sub(1);
        let QueryState { origin, community, query, progress, pending, .. } = qs;
        let (origin, community, query) = (*origin, community.as_str(), &*query);
        match substrate {
            Substrate::Napster(n) => {
                let Some((up, down)) = n.begin_query(origin) else { return };
                progress.quiescence = t + up + down;
                progress.last_hit_at = progress.quiescence;
                *pending += 1;
                queue.push(t + up, DesEvent::ServerQuery { qid });
            }
            Substrate::Gnutella(g) => {
                if hop.is_none() && !g.begin_query(origin) {
                    return;
                }
                let (mut walk, eval) = g.walk(community, query);
                let mut sink = Timeline { qid, pending, queue };
                match hop {
                    None => walk.start(progress, t, origin.0, None, eval, &mut sink),
                    Some(hop) => walk.arrive(progress, t, hop, eval, &mut sink),
                }
            }
            Substrate::FastTrack(f) => {
                if hop.is_none() && !f.begin_query(origin) {
                    return;
                }
                let entry = f.super_of(origin).map(|s| s as u32);
                let (mut walk, eval) = f.walk(community, query);
                let mut sink = Timeline { qid, pending, queue };
                match hop {
                    None => walk.start(progress, t, origin.0, entry, eval, &mut sink),
                    Some(hop) => walk.arrive(progress, t, hop, eval, &mut sink),
                }
            }
        }
    }

    /// The server answers when the request reaches it — liveness is read
    /// now, not at issue — and its reply lands at the time the issue
    /// drew.
    fn handle_server_query(&mut self, qid: u32) {
        let Self { substrate, queue, queries, retired, .. } = self;
        let Substrate::Napster(n) = substrate else { return };
        let Some(qs) = query_mut(queries, *retired, qid) else { return };
        let arrival = qs.progress.quiescence;
        let outcome = &mut qs.progress.outcome;
        n.answer(&qs.community, &qs.query, outcome, arrival);
        // The server's reply arrives whether or not it carries hits, so
        // `pending` stays as it is: this event leaves it, the reply
        // enters it.
        let hits = outcome.hits.len() as u32;
        queue.push(arrival, DesEvent::HitDeliver { qid, hits });
    }
}

// ---------------------------------------------------------------------
// PeerNetwork impl
// ---------------------------------------------------------------------

impl PeerNetwork for DesNetwork {
    fn protocol_name(&self) -> &'static str {
        self.substrate.as_net().protocol_name()
    }

    fn peer_count(&self) -> usize {
        self.substrate.as_net().peer_count()
    }

    fn is_alive(&self, peer: PeerId) -> bool {
        self.substrate.as_net().is_alive(peer)
    }

    fn set_alive(&mut self, peer: PeerId, alive: bool) {
        self.substrate.as_net_mut().set_alive(peer, alive);
    }

    fn publish(&mut self, provider: PeerId, record: ResourceRecord) {
        self.substrate.as_net_mut().publish(provider, record);
    }

    fn unpublish(&mut self, provider: PeerId, key: &str) {
        self.substrate.as_net_mut().unpublish(provider, key);
    }

    fn search(&mut self, origin: PeerId, community: &str, query: &Query) -> SearchOutcome {
        let at = self.clock;
        let qid = self.schedule_query(at, origin, community, query.clone());
        self.pump(Some(qid));
        self.take_outcome(qid).unwrap_or_default()
    }

    fn retrieve(&mut self, origin: PeerId, provider: PeerId, key: &str) -> RetrieveOutcome {
        self.substrate.as_net_mut().retrieve(origin, provider, key)
    }

    fn stats(&self) -> &NetStats {
        self.substrate.as_net().stats()
    }

    fn reset_stats(&mut self) {
        self.substrate.as_net_mut().reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::RoutingDigest;
    use crate::index_node::IndexNode;
    use crate::latency::ConstantLatency;
    use crate::stats::MsgKind;

    fn track(key: &str, artist: &str) -> ResourceRecord {
        ResourceRecord::new(
            key,
            "tracks",
            vec![("artist".to_string(), artist.to_string())],
        )
    }

    fn q(artist: &str) -> Query {
        Query::contains("artist", artist)
    }

    #[test]
    fn napster_round_trip() {
        let mut net = DesNetwork::napster(4, Box::new(ConstantLatency(10)));
        net.publish(PeerId(1), track("k1", "miles davis"));
        let out = net.search(PeerId(0), "tracks", &q("miles"));
        assert_eq!(out.hits.len(), 1);
        assert_eq!(out.hits[0].provider, PeerId(1));
        assert_eq!(out.messages, 2);
        assert_eq!(out.latency, 20);
        assert_eq!(out.first_hit_latency, Some(20));
        assert!(net.retrieve(PeerId(0), PeerId(1), "k1").is_fetched());
        assert_eq!(net.stats().count(MsgKind::Query), 1);
        assert_eq!(net.stats().count(MsgKind::QueryHit), 1);
    }

    #[test]
    fn gnutella_flood_finds_remote_record() {
        let mut net = DesNetwork::gnutella(
            Topology::ring_lattice(6, 1),
            Box::new(ConstantLatency(5)),
            FloodingConfig::default(),
        );
        net.publish(PeerId(3), track("k1", "coltrane"));
        let out = net.search(PeerId(0), "tracks", &q("coltrane"));
        assert_eq!(out.hits.len(), 1);
        assert_eq!(out.hits[0].hops, 3);
        // hit latency: 3 hops out + 3 hops back at 5µs each
        assert_eq!(out.first_hit_latency, Some(30));
        assert!(out.messages > 0);
    }

    #[test]
    fn fasttrack_leaf_to_leaf() {
        let config = SuperPeerConfig { supers: 2, ..SuperPeerConfig::default() };
        let mut net = DesNetwork::fasttrack(8, config, Box::new(ConstantLatency(7)), 9);
        net.publish(PeerId(5), track("k1", "mingus"));
        let out = net.search(PeerId(6), "tracks", &q("mingus"));
        assert_eq!(out.hits.len(), 1);
        assert_eq!(out.hits[0].provider, PeerId(5));
        assert!(net.stats().count(MsgKind::Query) >= 1);
    }

    #[test]
    fn global_timeline_interleaves_churn_and_queries() {
        let mut net = DesNetwork::napster(3, Box::new(ConstantLatency(10)));
        net.publish(PeerId(1), track("k1", "monk"));
        // Query at t=0 sees the provider; churn kills it at t=5 (before
        // the server processes the query at t=10), so the *same* query
        // issued at t=0 already misses: the server's alive-filter runs
        // when the ServerQuery event fires.
        let q0 = net.schedule_query(0, PeerId(0), "tracks", q("monk"));
        net.schedule_churn(&[ChurnEvent { at: 5, peer: PeerId(1), online: false }]);
        let q1 = net.schedule_query(50, PeerId(2), "tracks", q("monk"));
        let outcomes = net.run();
        assert_eq!(outcomes.len(), 2);
        assert!(net.take_outcome(q0).is_none(), "run() already took q0");
        assert!(net.take_outcome(q1).is_none());
        assert!(outcomes[0].hits.is_empty(), "provider died before server lookup");
        assert!(outcomes[1].hits.is_empty());
        assert!(net.events_processed() >= 5);
        assert!(net.peak_queue_len() >= 2);
        assert_eq!(net.clock(), 70);
    }

    #[test]
    fn a_returned_query_is_freed_and_its_id_never_reused() {
        // regression: the query table only grew — every query ever
        // scheduled kept its community, query and dedup sets, and each
        // run() re-scanned all of them
        let mut net = DesNetwork::gnutella(
            Topology::ring_lattice(6, 1),
            Box::new(ConstantLatency(5)),
            FloodingConfig::default(),
        );
        net.publish(PeerId(3), track("k1", "coltrane"));
        let first: Vec<u32> =
            (0..3).map(|i| net.schedule_query(i, PeerId(0), "tracks", q("coltrane"))).collect();
        assert_eq!(first, [0, 1, 2]);
        assert_eq!(net.run().len(), 3);
        assert!(format!("{net:?}").contains("queries: 0"), "{net:?}");

        let at = net.clock();
        let second: Vec<u32> =
            (0..2).map(|i| net.schedule_query(at + i, PeerId(1), "tracks", q("nobody"))).collect();
        assert_eq!(second, [3, 4], "ids continue where the first batch left off");
        let outcomes = net.run();
        assert_eq!(outcomes.len(), 2, "only the second batch");
        assert!(outcomes.iter().all(|o| o.hits.is_empty() && o.messages > 0));
        assert!(format!("{net:?}").contains("queries: 0"), "{net:?}");
        for qid in first.into_iter().chain(second) {
            assert!(net.take_outcome(qid).is_none(), "q{qid} is retired, not aliased");
        }
        // a sequential search takes the next id and frees it on return
        assert_eq!(net.search(PeerId(0), "tracks", &q("coltrane")).hits.len(), 1);
        assert!(format!("{net:?}").contains("queries: 0"), "{net:?}");
        assert_eq!(net.schedule_query(net.clock(), PeerId(0), "tracks", q("coltrane")), 6);
    }

    #[test]
    fn event_log_records_processed_events() {
        let mut net = DesNetwork::napster(2, Box::new(ConstantLatency(1)));
        net.enable_event_log();
        net.publish(PeerId(1), track("k1", "ella"));
        net.schedule_query(0, PeerId(0), "tracks", q("ella"));
        net.run();
        let log = net.event_log();
        assert_eq!(log.len(), 3, "issue + server-query + hits: {log:?}");
        assert_eq!(log[0], "0 issue q0");
        assert_eq!(log[1], "1 server-query q0");
        assert_eq!(log[2], "2 hits q0 n=1");
    }

    #[test]
    fn a_query_scheduled_before_the_clock_runs_in_time_then_push_order() {
        let mut net = DesNetwork::napster(4, Box::new(ConstantLatency(10)));
        net.enable_event_log();
        net.publish(PeerId(1), track("k1", "ella"));
        net.schedule_query(25, PeerId(2), "tracks", q("ella"));
        // the search pumps the timeline only until its own query is done
        assert_eq!(net.search(PeerId(0), "tracks", &q("ella")).hits.len(), 1);
        assert_eq!(net.clock(), 20);
        // earlier than anything popped so far, twice at one instant, and
        // once tying the query still queued from before the search
        net.schedule_query(5, PeerId(3), "tracks", q("ella"));
        net.schedule_query(5, PeerId(2), "tracks", q("ella"));
        net.schedule_query(25, PeerId(3), "tracks", q("ella"));
        assert_eq!(net.run().len(), 4);
        let expected = [
            "0 issue q1",
            "10 server-query q1",
            "20 hits q1 n=1",
            "5 issue q2",
            "5 issue q3",
            "15 server-query q2",
            "15 server-query q3",
            "25 issue q0",
            "25 issue q4",
            "25 hits q2 n=1",
            "25 hits q3 n=1",
            "35 server-query q0",
            "35 server-query q4",
            "45 hits q0 n=1",
            "45 hits q4 n=1",
        ];
        assert_eq!(net.event_log(), expected);
    }

    #[test]
    fn arena_digest_matches_index_node_digest() {
        let mut arena = RecordArena::with_peers(2);
        let mut node = IndexNode::new();
        for (i, artist) in ["miles davis", "john coltrane"].iter().enumerate() {
            let rec = track(&format!("k{i}"), artist);
            arena.upsert(0, &rec);
            node.upsert_slot(PeerId(0), &rec);
        }
        // remove one so live-term filtering is exercised
        arena.remove(0, "k0");
        node.remove_slot(PeerId(0), "k0");
        let mut from_arena = RoutingDigest::new(10);
        arena.for_each_record(0, &mut |community, fields| from_arena.add_record(community, fields));
        let mut from_node = RoutingDigest::new(10);
        from_node.add_node(&node);
        assert_eq!(from_arena, from_node);
    }

    #[test]
    fn arena_upsert_recycles_slots() {
        let mut arena = RecordArena::with_peers(1);
        arena.upsert(0, &track("k1", "a"));
        arena.upsert(0, &track("k2", "b"));
        arena.remove(0, "k1");
        arena.upsert(0, &track("k3", "c"));
        assert_eq!(arena.keys.len(), 2, "slot recycled");
        assert_eq!(arena.shared_count(0), 2);
        assert!(arena.has(0, "k2") && arena.has(0, "k3") && !arena.has(0, "k1"));
        arena.upsert(0, &track("k2", "b2"));
        assert_eq!(arena.shared_count(0), 2, "upsert replaces");
        let hits = arena.matches(0, "tracks", &q("b2"));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, "k2");
    }

    #[test]
    fn approx_bytes_is_deterministic() {
        let build = || {
            let mut net = DesNetwork::gnutella(
                Topology::ring_lattice(16, 2),
                Box::new(ConstantLatency(3)),
                FloodingConfig::default(),
            );
            for i in 0..8 {
                net.publish(PeerId(i), track(&format!("k{i}"), "art"));
            }
            net.search(PeerId(0), "tracks", &q("art"));
            net.approx_bytes()
        };
        assert_eq!(build(), build());
        assert!(build() > 0);
    }
}
