//! Whole-network discrete-event simulation engine: the one driver of
//! every query.
//!
//! [`DesNetwork`] runs a [`Substrate`] on **one global virtual-time
//! queue** ([`crate::sim::EventQueue`], popping by `(timestamp, push
//! order)`): query issue, per-hop message delivery, hit return, churn
//! transitions and digest refresh are all timestamped [`DesEvent`]s, so a
//! churn storm lands *while* queries are in flight. A sequential
//! [`PeerNetwork::search`] is the same machinery with one query on the
//! timeline: it schedules the query at the clock and pumps until that
//! query is done.
//!
//! # A scheduler over protocol state
//!
//! The engine owns a substrate and a timeline. Peers, liveness, shared
//! records, overlay, routing digests, latency model, walker rng and
//! statistics are the substrate's, built by its constructor; the
//! [`PeerNetwork`] impl here writes, retrieves and toggles liveness in
//! them — the one place liveness changes, so FastTrack re-homes the
//! leaves of a super that left there. A query event is one call of [`Substrate::issue`] or
//! [`Substrate::deliver`], which run the substrate's walk (the crate's
//! one overlay-search core, `overlay.rs`) or its server's answer. The
//! walk's [`Sink`] here makes every forwarded copy a `Query` (or
//! `ServerQuery`) event and every hit batch a `HitDeliver`, counted in
//! the query's `pending`, with the query's issue time as the time base.
//! The hop's [`Fate`] comes back from the substrate, and `dispatch`
//! counts it once.
//! `tests/search_oracle.rs` holds every blind search to what the world
//! it runs on must yield.

use crate::churn::ChurnEvent;
use crate::digest::{for_each_record_entry, EntryVisitor, Probe};
use crate::event::DesEvent;
use crate::message::{ResourceRecord, Time};
use crate::overlay::{is_alive, Hop, Progress, Sink};
use crate::peer::PeerId;
use crate::sim::EventQueue;
use crate::stats::{Fate, MsgKind, NetStats, RetrieveOutcome, SearchOutcome};
use crate::substrate::{Protocol, Substrate};
use crate::traits::{PeerNetwork, ProtocolKind};
use crate::NetConfig;
use std::collections::VecDeque;
use up2p_store::Query;

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
    /// `query` compiled for `community` once, for every hop of its walk.
    probe: Probe,
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
        let event = if to == Hop::SERVER.to {
            DesEvent::ServerQuery { qid }
        } else {
            DesEvent::Query { qid, to, via, ttl, mode }
        };
        self.queue.push(at, event);
    }

    fn hits_return(&mut self, at: Time, n: u32) {
        *self.pending += 1;
        self.queue.push(at, DesEvent::HitDeliver { qid: self.qid, hits: n });
    }
}

// ---------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------

/// Discrete-event simulation engine running a [`Substrate`] — Napster,
/// Gnutella or FastTrack — on one global virtual-time queue.
///
/// Construct with [`DesNetwork::build`] (what [`crate::build_network_with`]
/// returns, boxed) or [`DesNetwork::new`] around a substrate built any
/// other way, then either:
///
/// * drive it through the [`PeerNetwork`] trait — each `search` pumps
///   the queue until that query completes — or
/// * build a global timeline with [`DesNetwork::schedule_query`],
///   [`DesNetwork::schedule_churn`], and
///   [`DesNetwork::schedule_digest_refresh`], then [`DesNetwork::run`]
///   it to completion, letting queries and churn interleave in virtual
///   time.
pub struct DesNetwork {
    pub(crate) substrate: Substrate,
    queue: EventQueue<DesEvent>,
    queries: VecDeque<QueryState>,
    /// Queries freed so far: the id of `queries[0]`.
    retired: u32,
    clock: Time,
    events_processed: u64,
    peak_queue: usize,
    /// `(time, event, hop fate)` per processed event, when tracing.
    trace: Option<Vec<(Time, DesEvent, Option<Fate>)>>,
}

impl std::fmt::Debug for DesNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DesNetwork")
            .field("kind", &self.substrate.kind())
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

    /// Drives `substrate` from an empty timeline at virtual time 0.
    pub fn new(substrate: Substrate) -> DesNetwork {
        DesNetwork {
            substrate,
            queue: EventQueue::new(),
            queries: VecDeque::new(),
            retired: 0,
            clock: 0,
            events_processed: 0,
            peak_queue: 0,
            trace: None,
        }
    }

    /// Drives [`Substrate::build`]; [`crate::build_network_with`] boxes
    /// this.
    pub fn build(kind: ProtocolKind, peers: usize, seed: u64, config: &NetConfig) -> DesNetwork {
        DesNetwork::new(Substrate::build(kind, peers, seed, config))
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
            probe: Probe::new(community, &query),
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

    /// Starts recording every processed event with its hop's fate (for
    /// the replay and conservation tests).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// The recorded trace, in processing order (empty unless
    /// [`DesNetwork::enable_trace`] was called).
    pub fn trace(&self) -> &[(Time, DesEvent, Option<Fate>)] {
        self.trace.as_deref().unwrap_or(&[])
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

    /// The driven substrate: its protocol, overlay, shares and routing
    /// tables.
    pub fn substrate(&self) -> &Substrate {
        &self.substrate
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

    /// Deterministic estimate of resident state in bytes: the
    /// substrate's own estimate plus the event queue at its high-water
    /// mark. Not allocator-exact — comparable across runs and protocols,
    /// which is what the E11 scale experiment needs.
    pub fn approx_bytes(&mut self) -> u64 {
        let queue = self.peak_queue as u64 * (std::mem::size_of::<DesEvent>() as u64 + 24);
        self.substrate.approx_bytes() + queue
    }

    /// Rebuilds dirty routing digests immediately (also triggered by the
    /// guided search path and [`DesEvent::DigestRefresh`] events).
    pub fn refresh_digests(&mut self) {
        self.substrate.refresh_digests();
    }

    // ---- the pump ----------------------------------------------------

    /// Processes events in `(timestamp, push order)` order. With
    /// `until = Some(qid)`, stops once that query finalizes; with `None`,
    /// drains the queue.
    fn pump(&mut self, until: Option<u32>) {
        while let Some((t, ev)) = self.queue.pop() {
            self.clock = self.clock.max(t);
            self.events_processed += 1;
            if let Some(trace) = &mut self.trace {
                // a copy of its own, so the event itself need not live in
                // memory on the untraced path
                trace.push((t, ev.clone(), None));
            }
            let (finished, fate) = self.dispatch(t, ev);
            if let Some((_, _, slot)) = self.trace.as_mut().and_then(|trace| trace.last_mut()) {
                *slot = fate;
            }
            self.peak_queue = self.peak_queue.max(self.queue.len());
            if finished.is_some() && finished == until {
                return;
            }
        }
    }

    /// Handles one event. A query's event is the driver half of its life
    /// on the timeline — its issue, a copy delivered to an overlay node or
    /// to the Napster server, or a hit batch landing; whether the query
    /// leaves at all and everything its walk decides is the substrate's.
    /// Counts and returns the fate of the hop it was, if it was one, and
    /// the query's id when this event was its last: the query is then
    /// closed, its times made relative to its issue and its dedup sets
    /// released.
    fn dispatch(&mut self, t: Time, ev: DesEvent) -> (Option<u32>, Option<Fate>) {
        let qid = match ev {
            DesEvent::Churn { peer, online } => {
                self.set_alive(peer, online);
                return (None, None);
            }
            DesEvent::DigestRefresh => {
                self.refresh_digests();
                return (None, None);
            }
            DesEvent::QueryIssue { qid }
            | DesEvent::Query { qid, .. }
            | DesEvent::ServerQuery { qid }
            | DesEvent::HitDeliver { qid, .. } => qid,
        };
        let Self { substrate, queue, queries, retired, .. } = self;
        let Some(qs) = query_mut(queries, *retired, qid) else { return (None, None) };
        qs.pending = qs.pending.saturating_sub(1);
        let QueryState { origin, community, query, probe, progress, pending, .. } = &mut *qs;
        let mut sink = Timeline { qid, pending, queue };
        let fate = match ev {
            DesEvent::QueryIssue { .. } => {
                substrate.issue(progress, t, *origin, community, query, probe, &mut sink)
            }
            DesEvent::Query { to, via, ttl, mode, .. } => {
                let hop = Hop { to, via, ttl, mode };
                Some(substrate.deliver(progress, t, hop, community, query, probe, &mut sink))
            }
            DesEvent::ServerQuery { .. } => {
                let hop = Hop::SERVER;
                Some(substrate.deliver(progress, t, hop, community, query, probe, &mut sink))
            }
            // a hit batch landing is one thing less to wait for
            _ => None,
        };
        if let Some(fate) = fate {
            substrate.stats.ended(fate);
        }
        if qs.done || qs.pending != 0 {
            return (None, fate);
        }
        qs.done = true;
        qs.progress.finish(qs.issued_at, &mut substrate.stats);
        (Some(qid), fate)
    }
}

// ---------------------------------------------------------------------
// PeerNetwork impl
// ---------------------------------------------------------------------

impl PeerNetwork for DesNetwork {
    fn protocol_name(&self) -> &'static str {
        self.substrate.kind().schema_value()
    }

    fn peer_count(&self) -> usize {
        self.substrate.alive.len()
    }

    fn is_alive(&self, peer: PeerId) -> bool {
        is_alive(&self.substrate.alive, peer)
    }

    fn set_alive(&mut self, peer: PeerId, alive: bool) {
        let Substrate { alive: live, stats, protocol, .. } = &mut self.substrate;
        match live.get_mut(peer.index()) {
            Some(a) if *a != alive => *a = alive,
            _ => return,
        }
        // FastTrack homes every live leaf at a live super, unless none is
        if let Protocol::FastTrack(overlay, supers) = protocol {
            supers.settle(&mut overlay.routes).rehome(peer, live, stats, &mut overlay.routes);
        }
    }

    fn publish(&mut self, provider: PeerId, record: ResourceRecord) {
        let Substrate { alive, stats, protocol, .. } = &mut self.substrate;
        let Some(&online) = alive.get(provider.index()) else { return };
        match protocol {
            // an upload needs a session: an offline peer's is dropped
            Protocol::Napster(server) if online => {
                stats.sent(MsgKind::Publish);
                server.insert(provider, &record);
            }
            // queued at the provider's super until its index is next
            // read; first record wins, and the digests hear of it when it
            // enters the index
            Protocol::FastTrack(_, supers) if online => supers.publish(provider, record, stats),
            // Gnutella shares from the peer's own store, online or not:
            // no message is sent, and republishing a key replaces the
            // peer's own record (upsert) — the stored record it replaces
            // leaves the routing digests, the new one enters them
            Protocol::Gnutella(overlay, shared) => {
                if let Some((community, fields)) = shared.upsert(provider.0, &record) {
                    let entries = |visit: &mut EntryVisitor<'_>| {
                        for_each_record_entry(community, &fields, visit)
                    };
                    overlay.routes.record_removed(provider.0, entries);
                }
                let ResourceRecord { community, fields, .. } = &record;
                let entries =
                    |visit: &mut EntryVisitor<'_>| for_each_record_entry(community, fields, visit);
                overlay.routes.record_added(provider.0, entries);
            }
            Protocol::Napster(_) | Protocol::FastTrack(..) => {}
        }
    }

    fn unpublish(&mut self, provider: PeerId, key: &str) {
        let Substrate { alive, stats, protocol, .. } = &mut self.substrate;
        if provider.index() >= alive.len() {
            return; // an id outside the network has no session to end
        }
        match protocol {
            Protocol::Napster(server) => {
                stats.sent(MsgKind::Unpublish);
                server.remove(provider, key);
            }
            Protocol::Gnutella(overlay, shared) => {
                if let Some((community, fields)) = shared.remove(provider.0, key) {
                    let entries = |visit: &mut EntryVisitor<'_>| {
                        for_each_record_entry(community, &fields, visit)
                    };
                    overlay.routes.record_removed(provider.0, entries);
                }
            }
            Protocol::FastTrack(overlay, supers) => {
                // the record leaves the digests with its last provider
                let supers = supers.settle(&mut overlay.routes);
                supers.unpublish(provider, key, stats, &mut overlay.routes);
            }
        }
    }

    fn search(&mut self, origin: PeerId, community: &str, query: &Query) -> SearchOutcome {
        let at = self.clock;
        let qid = self.schedule_query(at, origin, community, query.clone());
        self.pump(Some(qid));
        self.take_outcome(qid).unwrap_or_default()
    }

    fn retrieve(&mut self, origin: PeerId, provider: PeerId, key: &str) -> RetrieveOutcome {
        let Substrate { alive, latency, stats, protocol } = &mut self.substrate;
        stats.retrieves += 1;
        // a dead peer cannot send, and an unknown id names nobody to send
        // to: the request never leaves the origin
        let (true, Some(&provider_alive)) = (is_alive(alive, origin), alive.get(provider.index()))
        else {
            return RetrieveOutcome::Unavailable;
        };
        stats.sent(MsgKind::Retrieve);
        if !provider_alive {
            stats.ended(Fate::ProviderOffline);
            return RetrieveOutcome::Unavailable;
        }
        let has = match protocol {
            Protocol::Napster(server) => server.has_provider(key, provider),
            Protocol::Gnutella(_, shared) => shared.has(provider.0, key),
            Protocol::FastTrack(overlay, supers) => {
                supers.settle(&mut overlay.routes).owns(provider, key)
            }
        };
        if !has {
            stats.sent(MsgKind::RetrieveFail);
            return RetrieveOutcome::Unavailable;
        }
        stats.sent(MsgKind::RetrieveOk);
        stats.retrieves_ok += 1;
        let latency = latency.delay(origin, provider) + latency.delay(provider, origin);
        RetrieveOutcome::Fetched { provider, latency }
    }

    fn stats(&self) -> &NetStats {
        &self.substrate.stats
    }

    fn reset_stats(&mut self) {
        self.substrate.stats = NetStats::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flooding::FloodingConfig;
    use crate::latency::{Latency, LatencySpec};
    use crate::stats::{MsgKind, RetrieveOutcome};
    use crate::superpeer::SuperPeerConfig;
    use crate::topology::Topology;

    /// `us` microseconds on every link.
    fn constant(us: Time) -> Latency {
        LatencySpec::Constant(us).build(0, 1)
    }

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
        let mut net = DesNetwork::new(Substrate::napster(4, constant(10)));
        net.publish(PeerId(1), track("k1", "miles davis"));
        let out = net.search(PeerId(0), "tracks", &q("miles"));
        assert_eq!(out.hits.len(), 1);
        assert_eq!(out.hits[0].provider, PeerId(1));
        assert_eq!(out.messages, 2);
        assert_eq!(out.latency, 20);
        assert_eq!(out.first_hit_latency, Some(20));
        assert_ne!(net.retrieve(PeerId(0), PeerId(1), "k1"), RetrieveOutcome::Unavailable);
        assert_eq!(net.stats().count(MsgKind::Query), 1);
        assert_eq!(net.stats().count(MsgKind::QueryHit), 1);
    }

    #[test]
    fn gnutella_flood_finds_remote_record() {
        let mut net = DesNetwork::new(Substrate::gnutella(
            Topology::ring_lattice(6, 1),
            constant(5),
            FloodingConfig::default(),
        ));
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
        let mut net = DesNetwork::new(Substrate::fasttrack(8, config, constant(7), 9));
        net.publish(PeerId(5), track("k1", "mingus"));
        let out = net.search(PeerId(6), "tracks", &q("mingus"));
        assert_eq!(out.hits.len(), 1);
        assert_eq!(out.hits[0].provider, PeerId(5));
        assert!(net.stats().count(MsgKind::Query) >= 1);
    }

    #[test]
    fn global_timeline_interleaves_churn_and_queries() {
        let mut net = DesNetwork::new(Substrate::napster(3, constant(10)));
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
        let mut net = DesNetwork::new(Substrate::gnutella(
            Topology::ring_lattice(6, 1),
            constant(5),
            FloodingConfig::default(),
        ));
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
    fn trace_records_processed_events_and_their_fates() {
        let mut net = DesNetwork::new(Substrate::napster(2, constant(1)));
        net.enable_trace();
        net.publish(PeerId(1), track("k1", "ella"));
        net.schedule_query(0, PeerId(0), "tracks", q("ella"));
        net.run();
        let expected = [
            (0, DesEvent::QueryIssue { qid: 0 }, None),
            (1, DesEvent::ServerQuery { qid: 0 }, Some(Fate::Answered)),
            (2, DesEvent::HitDeliver { qid: 0, hits: 1 }, None),
        ];
        assert_eq!(net.trace(), expected);
        assert_eq!(net.stats().fate_count(Fate::Answered), 1);
    }

    #[test]
    fn a_query_scheduled_before_the_clock_runs_in_time_then_push_order() {
        let mut net = DesNetwork::new(Substrate::napster(4, constant(10)));
        net.enable_trace();
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
        use DesEvent::{HitDeliver as Hits, QueryIssue as Issue, ServerQuery as Server};
        let expected = [
            (0, Issue { qid: 1 }),
            (10, Server { qid: 1 }),
            (20, Hits { qid: 1, hits: 1 }),
            (5, Issue { qid: 2 }),
            (5, Issue { qid: 3 }),
            (15, Server { qid: 2 }),
            (15, Server { qid: 3 }),
            (25, Issue { qid: 0 }),
            (25, Issue { qid: 4 }),
            (25, Hits { qid: 2, hits: 1 }),
            (25, Hits { qid: 3, hits: 1 }),
            (35, Server { qid: 0 }),
            (35, Server { qid: 4 }),
            (45, Hits { qid: 0, hits: 1 }),
            (45, Hits { qid: 4, hits: 1 }),
        ];
        let processed: Vec<_> = net.trace().iter().map(|(t, ev, _)| (*t, ev.clone())).collect();
        assert_eq!(processed, expected);
    }

    /// 0 - 1 - 2 - 3 - 4 at 10 µs a link, with a query for "coltrane"
    /// from 0 in flight: its issue has run, so it has looked at 0's
    /// records and its first copy is on its way to 1. The search from an
    /// id outside the network pumps the timeline until its own query is
    /// done, which is at once.
    fn in_flight(before: &[(u32, &str)]) -> DesNetwork {
        let t = Topology::from_edges(5, (0..4).map(|i| (PeerId(i), PeerId(i + 1))));
        let substrate = Substrate::gnutella(t, constant(10), FloodingConfig::default());
        let mut net = DesNetwork::new(substrate);
        for &(peer, key) in before {
            net.publish(PeerId(peer), track(key, "coltrane"));
        }
        net.schedule_query(0, PeerId(0), "tracks", q("coltrane"));
        assert!(net.search(PeerId(99), "tracks", &q("coltrane")).hits.is_empty());
        net
    }

    /// `(key, provider, hops)` of each hit, then the outcome's messages
    /// and the network's `Query` and `QueryHit` counts.
    fn seen(net: &DesNetwork, out: &SearchOutcome) -> (Vec<(String, u32, u8)>, u64, u64, u64) {
        let hits = out.hits.iter().map(|h| (h.key.clone(), h.provider.0, h.hops)).collect();
        let stats = net.stats();
        (hits, out.messages, stats.count(MsgKind::Query), stats.count(MsgKind::QueryHit))
    }

    #[test]
    fn a_write_lands_in_a_query_in_flight() {
        // a record published at 4 before the copy gets there is found,
        // beside the one at 1 the query's first hop already admitted
        let mut net = in_flight(&[(1, "k1")]);
        net.publish(PeerId(4), track("k4", "coltrane"));
        let out = net.run();
        assert_eq!(out.len(), 1);
        let expected = (vec![("k1".to_string(), 1, 1), ("k4".to_string(), 4, 4)], 9, 4, 5);
        assert_eq!(seen(&net, &out[0]), expected);

        // and one unpublished there before it arrives is not
        let mut net = in_flight(&[(1, "k1"), (4, "k4")]);
        net.unpublish(PeerId(4), "k4");
        let out = net.run();
        assert_eq!(out.len(), 1);
        assert_eq!(seen(&net, &out[0]), (vec![("k1".to_string(), 1, 1)], 5, 4, 1));
    }

    #[test]
    fn the_first_record_of_a_community_lands_in_a_query_in_flight() {
        // nobody had shared in "tracks" when the query left: the publish
        // interns the community, and the hop at 4 must see it
        let mut net = in_flight(&[]);
        net.publish(PeerId(4), track("k4", "coltrane"));
        let out = net.run();
        assert_eq!(out.len(), 1);
        let hits: Vec<_> = out[0].hits.iter().map(|h| (h.key.as_str(), h.provider.0, h.hops)).collect();
        assert_eq!(hits, [("k4", 4, 4)]);
    }

    #[test]
    fn approx_bytes_is_deterministic() {
        let build = || {
            let mut net = DesNetwork::new(Substrate::gnutella(
                Topology::ring_lattice(16, 2),
                constant(3),
                FloodingConfig::default(),
            ));
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
