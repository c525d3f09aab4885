//! Gnutella: TTL-limited query broadcast over an overlay graph with
//! duplicate suppression, hits routed back along the reverse path.
//!
//! Publishing is free (objects are shared from the provider's own store;
//! no metadata leaves the peer), searching costs O(edges within the TTL
//! horizon) messages — exactly the trade-off against Napster that
//! experiment E6 measures.
//!
//! What is Gnutella's alone is here: the peers' records, in one
//! [`RecordArena`], struct-of-arrays over all peers. In front of each peer's records sit a Bloom summary of
//! their terms and one signature per record, so that a hop verifies only
//! the few records that could match and skips the peers with nothing to
//! say unopened. The summaries are stored bit-sliced, so a query is asked
//! of all of them at once, before its first hop, and a hop reads one bit
//! of the result. Liveness, digests and the assembly of the query walk
//! are the one [`crate::Substrate`]'s; the write path's dispatch and
//! retrieve are its driver's, [`crate::DesNetwork`].
//!
//! With [`DigestConfig::enabled`] the substrate switches to *guided*
//! search (the `des_guided` workload): forwarding consults per-neighbor
//! [`crate::RouteTable`] digests, follows only the most promising
//! neighbors, stops at the first peer with local hits, and falls back to
//! TTL'd random walkers when no digest matches.

use crate::digest::{self, DigestConfig, EntryVisitor, Probe, Signature, Slices};
use crate::message::{ResourceRecord, SharedFields, DEFAULT_TTL};
use crate::overlay::Match;
use crate::peer::PeerId;
use up2p_store::{Query, SymbolTable};

/// Tuning knobs for the flooding substrate.
#[derive(Debug, Clone, Copy)]
pub struct FloodingConfig {
    /// Initial query TTL in overlay hops.
    pub ttl: u8,
    /// Drop duplicate query arrivals (Gnutella's GUID cache). Disabling
    /// this is the E6 ablation `flooding_no_dedup`.
    pub dedup: bool,
    /// Routing-digest layer; `enabled: true` switches searches from
    /// blind flooding to guided forwarding (as `des_guided` runs it).
    pub digests: DigestConfig,
}

impl Default for FloodingConfig {
    fn default() -> Self {
        FloodingConfig { ttl: DEFAULT_TTL, dedup: true, digests: DigestConfig::default() }
    }
}

/// 64-bit words of one peer's term summary: 4 096 bits, a constant. The
/// few dozen records a flat-overlay peer shares fill about a tenth of it
/// (DESIGN.md §3b). Stored bit-sliced, it is 4 096 rows of one bit per
/// peer rounded up to whole words: 1 MiB at 2 000 peers, 5.1 MB at
/// 10 000.
const SUMMARY_WORDS: usize = 64;

/// One peer's term summary, as a write rebuilds it.
type Summary = [u64; SUMMARY_WORDS];

/// One record in a peer's list: its signature, its slot and its interned
/// community, side by side so a hop reads them in one pass.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PeerRecord {
    signature: Signature,
    slot: u32,
    community: u32,
}

/// The records every peer of a flat overlay shares from its own store,
/// struct-of-arrays over all peers: one slot per live record, with each
/// peer's records in insertion order. Peer `p`'s records are provided by
/// `p` alone, and republishing a key replaces the peer's copy (last
/// publish wins). An id outside `0..peers` shares nothing and accepts
/// nothing.
///
/// Communities are interned once; fields stay behind the shared
/// [`SharedFields`] arc so a record replicated on many peers costs one
/// allocation. Each peer also keeps the gate a hop asks first: a term
/// summary over all its records, and beside each slot that record's
/// [`Signature`], both in the digests' vocabulary. The summaries are one
/// bit-sliced array, row `b` holding bit `b` of every peer's summary, so
/// a query reads the few rows it names once for every peer and a peer's
/// summary is the column of its bits. A fresh publish sets its record's
/// bits in the column and pushes a signature with its slot; a replacing
/// publish or an unpublish takes the slot and its signature out together
/// and clears the taken record's bits that no record the peer still
/// shares sets (a Bloom filter cannot forget, and counters that could
/// would be sixteen times the array).
#[derive(Debug, Default)]
pub struct RecordArena {
    /// Record key per slot (empty string = free slot).
    keys: Vec<String>,
    /// Shared field list per slot.
    fields: Vec<SharedFields>,
    /// Recycled slot indices.
    free: Vec<u32>,
    /// Interned community names.
    communities: SymbolTable,
    /// The peers' term summaries, bit-sliced: peer `p`'s is column `p`.
    summaries: Slices,
    /// Writes so far: an admitted set built at another count is stale.
    writes: u64,
    /// Each peer's records in insertion order.
    by_peer: Vec<Vec<PeerRecord>>,
}

impl RecordArena {
    /// An empty arena for peers `0..peers`.
    pub fn with_peers(peers: usize) -> RecordArena {
        RecordArena {
            summaries: Slices::new(peers, SUMMARY_WORDS),
            by_peer: vec![Vec::new(); peers],
            ..RecordArena::default()
        }
    }

    /// The interned id of community `name`, if any record was ever
    /// shared in it.
    pub(crate) fn community_id(&self, name: &str) -> Option<u32> {
        self.communities.get(name)
    }

    /// Frees `peer`'s slot of `key` and drops its signature with it; the
    /// caller clears its summary bits ([`RecordArena::forget`]).
    fn take(&mut self, peer: u32, key: &str) -> Option<(u32, SharedFields)> {
        let RecordArena { keys, fields, free, by_peer, .. } = self;
        let list = by_peer.get_mut(peer as usize)?;
        let pos = list.iter().position(|r| keys[r.slot as usize] == key)?;
        let PeerRecord { slot, community, .. } = list.remove(pos);
        keys[slot as usize].clear();
        free.push(slot);
        let taken = std::mem::replace(&mut fields[slot as usize], SharedFields::from(Vec::new()));
        Some((community, taken))
    }

    /// Clears from peer `p`'s column the bits of a record it no longer
    /// shares, the `taken` fields in community `cid`, that no record it
    /// still shares sets: the column is again exactly the summary of its
    /// records, and only the taken record's rows are written.
    fn forget(&mut self, p: usize, cid: u32, taken: &[(String, String)]) {
        let RecordArena { fields, communities, summaries, by_peer, .. } = self;
        let mut kept: Summary = [0; SUMMARY_WORDS];
        for r in &by_peer[p] {
            let community = communities.name(r.community);
            digest::for_each_record_entry(community, &fields[r.slot as usize], |h| {
                digest::insert(&mut kept, h)
            });
        }
        digest::for_each_record_entry(communities.name(cid), taken, |h| {
            summaries.remove(p, h, &kept)
        });
    }

    /// Inserts or replaces `peer`'s copy of `record`; returns the
    /// `(community, fields)` of the copy it replaced.
    pub fn upsert(&mut self, peer: u32, record: &ResourceRecord) -> Option<(&str, SharedFields)> {
        let p = peer as usize;
        if p >= self.by_peer.len() {
            return None;
        }
        self.writes += 1;
        let replaced = self.take(peer, &record.key);
        let community = self.communities.intern(&record.community);
        let slot = match self.free.pop() {
            Some(s) => {
                self.keys[s as usize] = record.key.clone();
                self.fields[s as usize] = SharedFields::clone(&record.fields);
                s
            }
            None => {
                self.keys.push(record.key.clone());
                self.fields.push(SharedFields::clone(&record.fields));
                self.keys.len() as u32 - 1
            }
        };
        let summaries = &mut self.summaries;
        let signature =
            digest::sign_record(&record.community, &record.fields, |h| summaries.insert(p, h));
        self.by_peer[p].push(PeerRecord { signature, slot, community });
        let (cid, fields) = replaced?;
        // the replaced record's terms leave the summary
        self.forget(p, cid, &fields);
        Some((self.communities.name(cid), fields))
    }

    /// Removes `peer`'s copy of `key`; returns its `(community, fields)`
    /// when there was one.
    pub fn remove(&mut self, peer: u32, key: &str) -> Option<(&str, SharedFields)> {
        let (cid, fields) = self.take(peer, key)?;
        self.writes += 1;
        self.forget(peer as usize, cid, &fields);
        Some((self.communities.name(cid), fields))
    }

    /// Does `peer` share `key`?
    pub fn has(&self, peer: u32, key: &str) -> bool {
        self.by_peer
            .get(peer as usize)
            .is_some_and(|list| list.iter().any(|r| self.keys[r.slot as usize] == key))
    }

    /// `peer`'s records matching `query` within `community`, in its
    /// insertion order, by `Query::matches_fields` over every record —
    /// the ungated scan a hop's answer is tested against.
    pub fn matches(&self, peer: u32, community: &str, query: &Query) -> Vec<Match> {
        let records = self.by_peer.get(peer as usize).into_iter().flatten();
        match self.communities.get(community) {
            Some(cid) => self.verify(peer, cid, query, records),
            None => Vec::new(),
        }
    }

    /// Writes so far: [`RecordArena::admitted`] is stale once this moves.
    pub(crate) fn writes(&self) -> u64 {
        self.writes
    }

    /// Sets `admitted` to the peers whose term summary may match `probe`,
    /// one bit per peer id: [`Probe::may_match`] of every peer's summary
    /// at once, from the rows the probe names. A query builds it before
    /// its first hop and again only after a write.
    pub(crate) fn admitted(&self, probe: &Probe, admitted: &mut Vec<u64>) {
        probe.may_match_sliced(&self.summaries, admitted);
    }

    /// The records a hop verifies for `probe` at `peer`: none unless the
    /// peer is in the query's `admitted` set, built by
    /// [`RecordArena::admitted`] since the last write, then each one whose
    /// signature admits `probe`, in the peer's order. Both predicates are
    /// the one DESIGN.md §3c proves weaker than the query (applied to a
    /// peer's records together, and to each alone), so no match is left
    /// out.
    pub(crate) fn candidates<'a>(
        &'a self,
        peer: u32,
        admitted: &[u64],
        probe: &'a Probe,
    ) -> impl Iterator<Item = &'a PeerRecord> + 'a {
        let p = peer as usize;
        let records = match self.by_peer.get(p) {
            Some(list) if admitted.get(p / 64).is_some_and(|w| w >> (p % 64) & 1 == 1) => {
                list.as_slice()
            }
            _ => &[],
        };
        records.iter().filter(|r| probe.admits(&r.signature))
    }

    /// Those of `peer`'s `records` that lie in community `cid` and match
    /// `query`, as hits, in a vector sized once, at the first hit, for
    /// every record the peer shares: no hit vector is made for a peer
    /// that has none, and none grows.
    pub(crate) fn verify<'a>(
        &self,
        peer: u32,
        cid: u32,
        query: &Query,
        records: impl Iterator<Item = &'a PeerRecord>,
    ) -> Vec<Match> {
        let hit = |r: &PeerRecord| {
            let s = r.slot as usize;
            (self.keys[s].clone(), PeerId(peer), SharedFields::clone(&self.fields[s]))
        };
        let mut matching = records
            .filter(|r| r.community == cid && query.matches_fields(&self.fields[r.slot as usize]));
        let Some(first) = matching.next() else { return Vec::new() };
        let shared = self.by_peer.get(peer as usize).map_or(1, Vec::len);
        let mut hits = Vec::with_capacity(shared);
        hits.push(hit(first));
        hits.extend(matching.map(hit));
        hits
    }

    /// Hands the entries of every record `peer` shares to `visit`, each
    /// record's enumerated from its strings — what the peer's routing
    /// digest is built from.
    pub fn for_each_entry(&self, peer: u32, visit: &mut EntryVisitor<'_>) {
        for r in self.by_peer.get(peer as usize).into_iter().flatten() {
            let community = self.communities.name(r.community);
            digest::for_each_record_entry(community, &self.fields[r.slot as usize], &mut *visit);
        }
    }

    /// Deterministic size estimate in bytes (two same-seed runs report
    /// the same number): slots, keys, the summaries' rows, and each peer's
    /// list of records.
    pub(crate) fn approx_bytes(&self) -> u64 {
        let slots = self.keys.len() as u64;
        let key_bytes: u64 = self.keys.iter().map(|k| k.len() as u64).sum();
        let by_peer: usize =
            self.by_peer.iter().map(|l| 24 + std::mem::size_of_val(l.as_slice())).sum();
        let summaries = self.summaries.bytes();
        key_bytes + slots * (24 + 16) + (by_peer + summaries) as u64 + self.free.len() as u64 * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des::DesNetwork;
    use crate::latency::{Latency, LatencySpec};
    use crate::stats::{Fate, MsgKind, RetrieveOutcome};
    use crate::substrate::{Protocol, Substrate};
    use crate::topology::Topology;
    use crate::traits::PeerNetwork;
    use crate::digest::RoutingDigest;
    use crate::index_node::IndexNode;
    use crate::overlay::Progress;
    use proptest::collection::vec as pvec;
    use proptest::prelude::*;

    fn record(key: &str, name: &str) -> ResourceRecord {
        ResourceRecord::new(key, "c", vec![("o/name".to_string(), name.to_string())])
    }

    /// 1 ms on every link.
    fn ms() -> Latency {
        LatencySpec::Constant(1_000).build(0, 1)
    }

    /// The records of a Gnutella network.
    fn arena(net: &DesNetwork) -> &RecordArena {
        match &net.substrate().protocol {
            Protocol::Gnutella(_, shared) => shared,
            _ => unreachable!("a Gnutella substrate"),
        }
    }

    fn line(n: usize) -> DesNetwork {
        // 0 - 1 - 2 - ... - (n-1)
        let t = Topology::from_edges(n, (1..n as u32).map(|i| (PeerId(i - 1), PeerId(i))));
        DesNetwork::new(Substrate::gnutella(t, ms(), FloodingConfig::default()))
    }

    #[test]
    fn finds_object_within_ttl() {
        let mut net = line(5);
        net.publish(PeerId(3), record("k", "observer"));
        let out = net.search(PeerId(0), "c", &Query::any_keyword("observer"));
        assert_eq!(out.hits.len(), 1);
        assert_eq!(out.hits[0].provider, PeerId(3));
        assert_eq!(out.hits[0].hops, 3);
        // query travelled 3 edges there, hit 3 edges back: 6000us
        assert_eq!(out.first_hit_latency, Some(6_000));
    }

    #[test]
    fn ttl_bounds_reach() {
        let t = Topology::from_edges(6, (0..5).map(|i| (PeerId(i), PeerId(i + 1))));
        let mut net = DesNetwork::new(Substrate::gnutella(
            t,
            ms(),
            FloodingConfig { ttl: 2, ..FloodingConfig::default() },
        ));
        net.publish(PeerId(5), record("far", "x"));
        net.publish(PeerId(2), record("near", "x"));
        let out = net.search(PeerId(0), "c", &Query::any_keyword("x"));
        let keys: Vec<&str> = out.hits.iter().map(|h| h.key.as_str()).collect();
        assert_eq!(keys, vec!["near"], "ttl 2 reaches peer 2 but not peer 5");
    }

    #[test]
    fn local_hits_are_free() {
        let mut net = line(3);
        net.publish(PeerId(0), record("k", "x"));
        let out = net.search(PeerId(0), "c", &Query::any_keyword("x"));
        assert_eq!(out.hits.len(), 1);
        assert_eq!(out.hits[0].hops, 0);
        assert_eq!(out.first_hit_latency, Some(0));
    }

    #[test]
    fn dedup_caps_messages_on_cyclic_graphs() {
        let cycle = |dedup| {
            // complete graph — worst case for duplicate queries
            let pairs = (0..4u32).flat_map(|i| ((i + 1)..4).map(move |j| (PeerId(i), PeerId(j))));
            let t = Topology::from_edges(4, pairs);
            let mut net = DesNetwork::new(Substrate::gnutella(
                t,
                ms(),
                FloodingConfig { ttl: 4, dedup, ..FloodingConfig::default() },
            ));
            net.publish(PeerId(3), record("k", "x"));
            let out = net.search(PeerId(0), "c", &Query::any_keyword("x"));
            out.messages
        };
        let with = cycle(true);
        let without = cycle(false);
        assert!(
            without > with * 2,
            "no-dedup should blow up message count: {without} vs {with}"
        );
    }

    #[test]
    fn a_flood_without_dedup_returns_each_hit_once() {
        // a complete graph of five, two records at each of four peers:
        // without dedup every peer is reached, and evaluated, many times
        let hits = |dedup| {
            let pairs = (0..5u32).flat_map(|i| ((i + 1)..5).map(move |j| (PeerId(i), PeerId(j))));
            let mut net = DesNetwork::new(Substrate::gnutella(
                Topology::from_edges(5, pairs),
                ms(),
                FloodingConfig { ttl: 4, dedup, ..FloodingConfig::default() },
            ));
            for peer in 1..5 {
                for key in ["a", "b"] {
                    net.publish(PeerId(peer), record(&format!("{key}{peer}"), "x"));
                }
            }
            let out = net.search(PeerId(0), "c", &Query::any_keyword("x"));
            let mut hits: Vec<_> = out.hits.into_iter().map(|h| (h.key, h.provider.0)).collect();
            hits.sort();
            (hits, out.messages)
        };
        let ((once, flooded), (with, deduped)) = (hits(false), hits(true));
        assert!(flooded > 4 * deduped, "{flooded} vs {deduped} messages");
        assert_eq!(once.len(), 8);
        assert_eq!(once, with);
    }

    #[test]
    fn dead_peers_break_the_path() {
        let mut net = line(5);
        net.publish(PeerId(4), record("k", "x"));
        net.set_alive(PeerId(2), false);
        let out = net.search(PeerId(0), "c", &Query::any_keyword("x"));
        assert!(out.hits.is_empty(), "peer 2 is the only route to peer 4");
        // no copy is sent over the link to offline peer 2: the flood ends
        // at peer 1, one Query out, with TTL left and nowhere to go
        assert_eq!(out.messages, 1);
        assert_eq!(net.stats().fate_count(Fate::Dead), 0);
        assert_eq!(net.stats().fate_count(Fate::DeadEnd), 1);
    }

    #[test]
    fn replicas_found_on_both_sides() {
        let mut net = line(7);
        net.publish(PeerId(1), record("k", "x"));
        net.publish(PeerId(5), record("k", "x"));
        let out = net.search(PeerId(3), "c", &Query::any_keyword("x"));
        assert_eq!(out.hits.len(), 2);
        assert_eq!(out.distinct_keys(), 1);
        let providers: Vec<PeerId> = out.hits.iter().map(|h| h.provider).collect();
        assert!(providers.contains(&PeerId(1)) && providers.contains(&PeerId(5)));
    }

    #[test]
    fn retrieve_requires_live_provider_with_object() {
        let mut net = line(3);
        net.publish(PeerId(2), record("k", "x"));
        assert_ne!(net.retrieve(PeerId(0), PeerId(2), "k"), RetrieveOutcome::Unavailable);
        let lacking = net.retrieve(PeerId(0), PeerId(1), "k");
        assert_eq!(lacking, RetrieveOutcome::Unavailable, "peer 1 lacks it");
        net.set_alive(PeerId(2), false);
        assert_eq!(net.retrieve(PeerId(0), PeerId(2), "k"), RetrieveOutcome::Unavailable);
        assert_eq!(net.stats().retrieves, 3);
        assert_eq!(net.stats().retrieves_ok, 1);
        // per-kind accounting: every live-origin attempt sends Retrieve;
        // a live provider without the object answers RetrieveFail; a dead
        // provider answers nothing (the request is dropped)
        assert_eq!(net.stats().count(MsgKind::Retrieve), 3);
        assert_eq!(net.stats().count(MsgKind::RetrieveOk), 1);
        assert_eq!(net.stats().count(MsgKind::RetrieveFail), 1);
        assert_eq!(net.stats().fate_count(Fate::ProviderOffline), 1);
    }

    #[test]
    fn dead_origin_retrieve_sends_no_messages() {
        let mut net = line(3);
        net.publish(PeerId(2), record("k", "x"));
        net.set_alive(PeerId(0), false);
        assert_eq!(net.retrieve(PeerId(0), PeerId(2), "k"), RetrieveOutcome::Unavailable);
        assert_eq!(net.stats().retrieves, 1, "the attempt is still counted");
        assert_eq!(net.stats().messages, 0, "a dead peer cannot send");
    }

    #[test]
    fn unpublish_stops_hits() {
        let mut net = line(3);
        net.publish(PeerId(1), record("k", "x"));
        net.unpublish(PeerId(1), "k");
        let out = net.search(PeerId(0), "c", &Query::any_keyword("x"));
        assert!(out.hits.is_empty());
        assert!(arena(&net).by_peer[1].is_empty());
    }

    #[test]
    fn republish_updates_the_peers_own_record() {
        // a peer's share table keeps last-publish-wins semantics: the
        // same key republished with new metadata serves the new fields
        let mut net = line(3);
        net.publish(PeerId(1), record("k", "old name"));
        net.publish(PeerId(1), record("k", "new name"));
        assert_eq!(arena(&net).by_peer[1].len(), 1);
        assert!(net.search(PeerId(0), "c", &Query::any_keyword("old")).hits.is_empty());
        let out = net.search(PeerId(0), "c", &Query::any_keyword("new"));
        assert_eq!(out.hits.len(), 1);
    }

    #[test]
    fn community_scoping_respected() {
        let mut net = line(3);
        net.publish(
            PeerId(1),
            ResourceRecord::new("k", "other", vec![("o/name".to_string(), "x".to_string())]),
        );
        let out = net.search(PeerId(0), "c", &Query::any_keyword("x"));
        assert!(out.hits.is_empty());
    }

    #[test]
    fn message_count_bounded_by_edge_budget() {
        // with dedup, forwards ≤ 2 * edges (each edge crossed at most once
        // per direction) plus hit back-propagation
        let t = Topology::ring_lattice(20, 2);
        let edges = t.edge_count() as u64;
        let mut net = DesNetwork::new(Substrate::gnutella(t, ms(), FloodingConfig::default()));
        let out = net.search(PeerId(0), "c", &Query::any_keyword("nothing"));
        assert!(out.messages <= edges * 2, "{} > {}", out.messages, edges * 2);
    }

    /// An edgeless network of `peers`.
    fn alone(peers: usize) -> DesNetwork {
        let t = Topology::from_edges(peers, []);
        DesNetwork::new(Substrate::gnutella(t, ms(), FloodingConfig::default()))
    }

    /// Does `peer`'s summary, its column, let `query` through to its
    /// signatures?
    fn passes(net: &DesNetwork, peer: usize, query: &Query) -> bool {
        Probe::new("c", query).may_match(&arena(net).summaries.column(peer))
    }

    /// `peer`'s answer as a walk's hop evaluates it: the query's admitted
    /// set and the peer's signatures first.
    fn gated(net: &mut DesNetwork, peer: u32, community: &str, query: &Query) -> Vec<Match> {
        let (probe, mut p) = (Probe::new(community, query), Progress::new(0));
        let walk = net.substrate.walk(&mut p, community, query, &probe);
        let (_, mut eval) = walk.expect("an overlay");
        eval(peer, &p.admitted)
    }

    /// The keys of the records `peer` verifies for `query` in "c".
    fn verified(net: &DesNetwork, peer: u32, query: &Query) -> Vec<String> {
        let (probe, arena, mut admitted) = (Probe::new("c", query), arena(net), Vec::new());
        arena.admitted(&probe, &mut admitted);
        let candidates = arena.candidates(peer, &admitted, &probe);
        candidates.map(|r| arena.keys[r.slot as usize].clone()).collect()
    }

    fn keys(matches: Vec<Match>) -> Vec<String> {
        matches.into_iter().map(|(key, _, _)| key).collect()
    }

    #[test]
    fn a_removed_records_terms_leave_the_summary_with_their_last_carrier() {
        let mut net = alone(2);
        net.publish(PeerId(0), record("a", "shared alpha"));
        net.publish(PeerId(0), record("b", "shared beta"));
        let (shared, alpha, beta) =
            (Query::any_keyword("shared"), Query::any_keyword("alpha"), Query::any_keyword("beta"));
        assert!(passes(&net, 0, &shared) && passes(&net, 0, &alpha));
        assert!(!passes(&net, 1, &shared), "each peer has words of its own");
        // a Bloom filter cannot forget: the removal clears from peer 0's
        // column the bits the record it still shares does not set
        net.unpublish(PeerId(0), "a");
        assert!(!passes(&net, 0, &alpha), "no record of peer 0 carries it any more");
        assert!(passes(&net, 0, &shared) && passes(&net, 0, &beta), "b still does");
        assert_eq!(keys(gated(&mut net, 0, "c", &shared)), ["b"]);
        // a replacing publish clears them too: the old fields' terms go
        net.publish(PeerId(0), record("b", "gamma"));
        assert!(!passes(&net, 0, &shared) && !passes(&net, 0, &beta));
        assert!(passes(&net, 0, &Query::any_keyword("gamma")));
        assert!(passes(&net, 0, &Query::All), "the community marker stays with a record");
        net.unpublish(PeerId(0), "b");
        assert!(!passes(&net, 0, &Query::All), "and leaves with the last one");
        assert!((0..2).all(|p| arena(&net).summaries.column(p).iter().all(|&w| w == 0)));
    }

    #[test]
    fn a_saturated_summary_falls_through_to_the_index() {
        // far more distinct terms than 4 096 bits can tell apart: the
        // words fill up and stop filtering, the signatures still tell the
        // records apart, and the answers are as ever
        let mut net = alone(1);
        for i in 0..4_000 {
            net.publish(PeerId(0), record(&format!("k{i}"), &format!("term{i} word{i}")));
        }
        let ones: u32 = arena(&net).summaries.column(0).iter().map(|w| w.count_ones()).sum();
        assert!(ones > 4_000, "only {ones} of 4 096 bits set");
        let unseen = Query::any_keyword("unseen");
        assert!(passes(&net, 0, &unseen), "saturated: all may match");
        assert!(gated(&mut net, 0, "c", &unseen).is_empty());
        assert_eq!(keys(gated(&mut net, 0, "c", &Query::any_keyword("term1234"))), ["k1234"]);
        assert_eq!(gated(&mut net, 0, "c", &Query::All).len(), 4_000);
        let key_bytes: u64 = (0..4_000).map(|i| format!("k{i}").len() as u64).sum();
        // one peer's column still takes a whole word of each of the 4 096 rows
        let (liveness, slots, summary, records) = (1, 4_000 * 40, 4_096 * 8, 24 + 4_000 * 24);
        assert_eq!(
            net.substrate.approx_bytes(),
            liveness + key_bytes + slots + summary + records,
            "the words and the signatures are counted"
        );
    }

    #[test]
    fn a_peer_verifies_only_the_records_its_signatures_admit() {
        let mut net = alone(1);
        let both = Query::and([Query::any_keyword("apple"), Query::any_keyword("factory")]);
        net.publish(PeerId(0), record("a", "apple"));
        net.publish(PeerId(0), record("b", "factory"));
        assert!(passes(&net, 0, &both), "the summary admits terms of different records");
        assert!(verified(&net, 0, &both).is_empty(), "no record carries both: none is verified");
        assert_eq!(verified(&net, 0, &Query::any_keyword("apple")), ["a"]);
        // a replacing publish puts both terms in one record, the only one verified
        net.publish(PeerId(0), record("b", "factory apple"));
        assert_eq!(verified(&net, 0, &both), ["b"]);
        assert_eq!(keys(gated(&mut net, 0, "c", &both)), ["b"]);
        // an unpublish takes that record's signature with it
        net.publish(PeerId(0), record("c", "factory"));
        net.unpublish(PeerId(0), "b");
        assert!(passes(&net, 0, &both));
        assert!(verified(&net, 0, &both).is_empty(), "split again");
        // and a fresh record carrying both is verified at once
        net.publish(PeerId(0), record("d", "apple factory"));
        assert_eq!(verified(&net, 0, &both), ["d"]);
        // through every write, each slot kept its own record's signature
        for r in &arena(&net).by_peer[0] {
            let fields = &arena(&net).fields[r.slot as usize];
            assert_eq!(r.signature, digest::sign_record("c", fields, |_| {}));
        }
        // an `Or` has no one mask: each record is asked the predicate, and
        // the branches may sit in different records
        let either = Query::Or(vec![Query::any_keyword("apple"), Query::any_keyword("factory")]);
        assert_eq!(verified(&net, 0, &either), ["a", "c", "d"]);
        assert!(verified(&net, 0, &Query::Or(Vec::new())).is_empty(), "an empty `Or` admits none");

        // a Bloom false positive is verified, then rejected
        let mut net = alone(1);
        let wide: Vec<String> = (0..40).map(|i| format!("w{i}")).collect();
        net.publish(PeerId(0), record("wide", &wide.join(" ")));
        let signature = arena(&net).by_peer[0][0].signature;
        let stray = (0..)
            .map(|i| format!("x{i}"))
            .find(|t| Probe::new("c", &Query::any_keyword(t)).admits(&signature))
            .expect("a 40-term signature admits some stray term");
        net.publish(PeerId(0), record("narrow", &stray));
        let asked = Query::any_keyword(&stray);
        assert_eq!(verified(&net, 0, &asked), ["wide", "narrow"]);
        assert_eq!(keys(gated(&mut net, 0, "c", &asked)), ["narrow"]);
    }

    #[test]
    fn arena_digest_matches_index_node_digest() {
        let mut arena = RecordArena::with_peers(2);
        let own = |r: Option<(&str, SharedFields)>| r.map(|(c, f)| (c.to_string(), f.to_vec()));
        let mut node = IndexNode::new();
        for (i, name) in ["miles davis", "john coltrane", "sonny rollins"].iter().enumerate() {
            let rec = record(&format!("k{}", i % 2), name);
            // the peer's own table, last publish wins: on a one-provider
            // node a republish is a remove, then an insert
            let replaced = own(node.remove(PeerId(0), &rec.key));
            assert!(node.insert(PeerId(0), &rec));
            assert_eq!(own(arena.upsert(0, &rec)), replaced);
        }
        // remove one so live-term filtering is exercised
        assert_eq!(own(arena.remove(0, "k0")), own(node.remove(PeerId(0), "k0")));
        let mut from_arena = RoutingDigest::new(10);
        arena.for_each_entry(0, &mut |h| from_arena.insert(h));
        let mut from_node = RoutingDigest::new(10);
        node.for_each_entry(&mut |h| from_node.insert(h));
        assert_eq!(from_arena, from_node);
    }

    #[test]
    fn arena_upsert_recycles_slots() {
        let mut arena = RecordArena::with_peers(1);
        arena.upsert(0, &record("k1", "a"));
        arena.upsert(0, &record("k2", "b"));
        arena.remove(0, "k1");
        arena.upsert(0, &record("k3", "c"));
        assert_eq!(arena.keys.len(), 2, "slot recycled");
        assert_eq!(arena.by_peer[0].len(), 2);
        assert!(arena.has(0, "k2") && arena.has(0, "k3") && !arena.has(0, "k1"));
        arena.upsert(0, &record("k2", "b2"));
        assert_eq!(arena.by_peer[0].len(), 2, "upsert replaces");
        let hits = arena.matches(0, "c", &Query::any_keyword("b2"));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, "k2");
    }

    /// One write of a summary proptest's tape.
    #[derive(Debug, Clone)]
    enum Write {
        Publish { peer: u32, key: u8, community: usize, fields: Vec<(&'static str, &'static str)> },
        Unpublish { peer: u32, key: u8 },
    }

    const COMMUNITIES: [&str; 2] = ["alpha", "beta"];

    /// The record a [`Write::Publish`] shares.
    fn shared(key: u8, community: usize, fields: &[(&str, &str)]) -> ResourceRecord {
        let fields: Vec<_> = fields.iter().map(|&(p, v)| (p.to_string(), v.to_string())).collect();
        ResourceRecord::new(format!("k{key}"), COMMUNITIES[community], fields)
    }

    /// Field values, one of which splits into other tokens once
    /// normalized (`İ` lowercases to `i` and a combining dot).
    fn value() -> impl Strategy<Value = &'static str> + Clone {
        prop_oneof![
            Just("apple"),
            Just("banana split"),
            Just("Observer Pattern"),
            Just("factory"),
            Just("errant banana"),
            Just("İstanbul Köln"),
        ]
    }

    /// Fresh publishes, republishes with changed fields or into the other
    /// community, unpublishes of present and absent keys, at the ids
    /// `peer` draws.
    fn tape(
        peer: impl Strategy<Value = u32> + Clone + 'static,
    ) -> impl Strategy<Value = Vec<Write>> {
        let path = prop_oneof![Just("o/name"), Just("o/tag")];
        let write = prop_oneof![
            3 => (peer.clone(), 0u8..4, 0..COMMUNITIES.len(), pvec((path, value()), 0..3))
                .prop_map(|(peer, key, community, fields)| {
                    Write::Publish { peer, key, community, fields }
                }),
            1 => (peer, 0u8..4).prop_map(|(peer, key)| Write::Unpublish { peer, key }),
        ];
        pvec(write, 1..24)
    }

    /// Every query form a summary is asked: terms it can check, exact
    /// whole values it asks by their tokens, and forms it passes on the
    /// community marker alone.
    fn query() -> impl Strategy<Value = Query> {
        let word = prop_oneof![
            Just("apple"),
            Just("banana"),
            Just("observer"),
            Just("banana split"),
            Just("missing"),
        ];
        let whole = prop_oneof![Just("observer pattern"), Just("İstanbul Köln")];
        let leaf = prop_oneof![
            Just(Query::All),
            word.clone().prop_map(Query::any_keyword),
            word.clone().prop_map(|w| Query::keyword("name", w)),
            word.clone().prop_map(|w| Query::eq("o/name", w)),
            whole.prop_map(|v| Query::eq("name", v)),
            word.prop_map(|w| Query::contains("o/tag", w)),
        ];
        leaf.prop_recursive(2, 8, 3, |inner| {
            prop_oneof![
                pvec(inner.clone(), 0..3).prop_map(Query::And),
                pvec(inner.clone(), 0..3).prop_map(Query::Or),
                inner.prop_map(|q| Query::Not(Box::new(q))),
            ]
        })
    }

    /// An `And` of two terms that the tape's values carry in different
    /// records as often as in one: the case a peer's summary admits and
    /// only its signatures can turn away.
    fn split() -> impl Strategy<Value = Query> {
        let term = prop_oneof![
            prop_oneof![Just("apple"), Just("banana"), Just("observer"), Just("factory")]
                .prop_map(Query::any_keyword),
            value().prop_map(|v| Query::eq("name", v)),
        ];
        (term.clone(), term).prop_map(|(a, b)| Query::and([a, b]))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The summary and the record signatures never hide a match and
        /// never invent one: after every write of `tape` at three peers
        /// (and one id outside the network), every peer's gated answer is,
        /// in order, the arena's ungated scan, for every query in both
        /// communities.
        #[test]
        fn the_summary_never_hides_a_match(
            tape in tape(0u32..4),
            queries in pvec(prop_oneof![query(), split()], 1..4),
        ) {
            let mut net = alone(3);
            for (i, write) in tape.iter().enumerate() {
                match write {
                    Write::Publish { peer, key, community, fields } => {
                        net.publish(PeerId(*peer), shared(*key, *community, fields));
                    }
                    Write::Unpublish { peer, key } => {
                        net.unpublish(PeerId(*peer), &format!("k{key}"))
                    }
                }
                for query in &queries {
                    for community in COMMUNITIES {
                        for peer in 0..4 {
                            prop_assert_eq!(
                                gated(&mut net, peer, community, query),
                                arena(&net).matches(peer, community, query),
                                "peer {} asked {} in {} after write #{}: {:?}",
                                peer, query, community, i, write
                            );
                        }
                    }
                }
            }
        }

        /// The sliced gate is the per-peer predicate it replaced: after
        /// every write of `tape` to a 130-peer arena — at peers on both
        /// sides of two word boundaries, and at an id outside the network
        /// — a query's admitted set holds exactly the ids whose summary,
        /// rebuilt from the records they share, [`Probe::may_match`]es,
        /// for every query form in both communities; the ids the last
        /// word spans past the network are never admitted.
        #[test]
        fn admitted_set_is_per_peer_may_match(
            tape in tape(prop_oneof![Just(0u32), Just(63), Just(64), Just(129), Just(130)]),
            queries in pvec(prop_oneof![query(), split()], 1..4),
        ) {
            const PEERS: usize = 130;
            let (mut arena, mut admitted) = (RecordArena::with_peers(PEERS), Vec::new());
            for (i, write) in tape.iter().enumerate() {
                match write {
                    Write::Publish { peer, key, community, fields } => {
                        arena.upsert(*peer, &shared(*key, *community, fields));
                    }
                    Write::Unpublish { peer, key } => {
                        arena.remove(*peer, &format!("k{key}"));
                    }
                }
                let summaries: Vec<Summary> = (0..PEERS.div_ceil(64) * 64)
                    .map(|p| {
                        let mut words = [0; SUMMARY_WORDS];
                        arena.for_each_entry(p as u32, &mut |h| digest::insert(&mut words, h));
                        words
                    })
                    .collect();
                for query in &queries {
                    for community in COMMUNITIES {
                        let probe = Probe::new(community, query);
                        arena.admitted(&probe, &mut admitted);
                        prop_assert_eq!(admitted.len(), PEERS.div_ceil(64));
                        for (p, summary) in summaries.iter().enumerate() {
                            prop_assert_eq!(
                                admitted[p / 64] >> (p % 64) & 1 == 1,
                                probe.may_match(summary),
                                "peer {} asked {} in {} after write #{}: {:?}",
                                p, query, community, i, write
                            );
                        }
                    }
                }
            }
        }
    }

    fn guided_line(n: usize) -> DesNetwork {
        let t = Topology::from_edges(n, (1..n as u32).map(|i| (PeerId(i - 1), PeerId(i))));
        let config =
            FloodingConfig { digests: DigestConfig::guided(), ..FloodingConfig::default() };
        DesNetwork::new(Substrate::gnutella(t, ms(), config))
    }

    #[test]
    fn guided_search_follows_the_digest_trail() {
        let mut net = guided_line(6);
        net.publish(PeerId(4), record("k", "observer"));
        let out = net.search(PeerId(0), "c", &Query::any_keyword("observer"));
        assert_eq!(out.hits.len(), 1);
        assert_eq!(out.hits[0].provider, PeerId(4));
        // a line has one digest-matching direction: 4 Query hops out,
        // 4 QueryHit hops back, nothing else
        assert_eq!(out.messages, 8);
        assert_eq!(net.stats().count(MsgKind::Query), 4);
        assert_eq!(net.stats().count(MsgKind::QueryHit), 4);
        // the digest handshake was paid once, one request per directed edge
        assert_eq!(net.stats().count(MsgKind::DigestRequest), 10);
        assert!(net.stats().count(MsgKind::DigestPush) >= 10);
    }

    #[test]
    fn guided_search_prunes_hopeless_directions() {
        let mut net = guided_line(6);
        net.publish(PeerId(1), record("k", "x"));
        // origin 2 sees a depth-1 match toward 1 and nothing toward 3:
        // one Query, one QueryHit, and the frontier stop ends it there
        let out = net.search(PeerId(2), "c", &Query::any_keyword("x"));
        assert_eq!(out.hits.len(), 1);
        assert_eq!(out.messages, 2);
    }

    #[test]
    fn guided_local_hits_cost_nothing() {
        let mut net = guided_line(4);
        net.publish(PeerId(0), record("k", "x"));
        net.publish(PeerId(3), record("k2", "x"));
        let out = net.search(PeerId(0), "c", &Query::any_keyword("x"));
        // frontier stop at the origin: the local hit satisfies the query
        assert_eq!(out.hits.len(), 1);
        assert_eq!(out.hits[0].hops, 0);
        assert_eq!(out.messages, 0);
    }

    #[test]
    fn guided_search_refreshes_after_unpublish() {
        let mut net = guided_line(5);
        net.publish(PeerId(4), record("k", "x"));
        assert_eq!(net.search(PeerId(0), "c", &Query::any_keyword("x")).hits.len(), 1);
        net.unpublish(PeerId(4), "k");
        let out = net.search(PeerId(0), "c", &Query::any_keyword("x"));
        assert!(out.hits.is_empty(), "a removed record is never resurrected");
        // no digest matches anywhere, so the search degrades to the
        // fallback walkers: at most WALK_WIDTH TTL'd walks, far below the
        // flood cost (which would still cross every edge)
        let bound = DEFAULT_TTL as u64 * crate::overlay::WALK_WIDTH as u64;
        assert!(out.messages <= bound, "{} > {bound}", out.messages);
    }

    #[test]
    fn walk_fallback_survives_stale_digests() {
        // peer death does NOT dirty the digests (a real overlay only
        // notices through timeouts), so the guided path toward the dead
        // provider goes stale; no copy crosses the link to the offline
        // peer, the walker fallback takes over where the trail leads
        // nowhere live, and the search terminates without false hits
        let mut net = guided_line(5);
        net.publish(PeerId(3), record("k", "x"));
        assert_eq!(net.search(PeerId(0), "c", &Query::any_keyword("x")).hits.len(), 1);
        net.set_alive(PeerId(3), false);
        let out = net.search(PeerId(0), "c", &Query::any_keyword("x"));
        assert!(out.hits.is_empty(), "dead providers never produce hits");
        assert_eq!(net.stats().fate_count(Fate::Dead), 0, "no copy is sent to the offline peer");
        assert!(
            net.stats().fate_count(Fate::DeadEnd) > 0,
            "the stale trail ends at the last live peer before it"
        );
    }

    #[test]
    fn guided_hits_are_a_subset_of_flooding_hits() {
        // same topology, same records; guided may return fewer hits
        // (frontier stop) but never one flooding would not have found
        let build = |guided: bool| {
            let t = Topology::small_world(24, 2, 0.2, 9);
            let digests =
                if guided { DigestConfig::guided() } else { DigestConfig::default() };
            let mut net = DesNetwork::new(Substrate::gnutella(
                t,
                ms(),
                FloodingConfig { digests, ..FloodingConfig::default() },
            ));
            for i in [3u32, 11, 19] {
                net.publish(PeerId(i), record(&format!("k{i}"), "needle"));
            }
            net
        };
        let flood_hits: std::collections::BTreeSet<(String, PeerId)> = build(false)
            .search(PeerId(0), "c", &Query::any_keyword("needle"))
            .hits
            .into_iter()
            .map(|h| (h.key, h.provider))
            .collect();
        let guided = build(true).search(PeerId(0), "c", &Query::any_keyword("needle"));
        for h in &guided.hits {
            assert!(
                flood_hits.contains(&(h.key.clone(), h.provider)),
                "guided found {h:?} that flooding missed"
            );
        }
        assert!(!guided.hits.is_empty(), "digests lead to at least one replica");
    }
}
