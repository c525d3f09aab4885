//! Determinism/replay tests: two DES runs with the same seed and
//! configuration must produce **equal typed traces** — every processed
//! event with its time and its hop's fate — and equal metrics. A query
//! copy names the visit that sent it on its query's trail, which only
//! earlier events of the same run build, so equal traces took equal
//! routes. The guarantee comes from the event queue's tie-breaking
//! rule — `(timestamp, sequence number)`, documented and doc-tested on
//! [`up2p_net::sim::EventQueue`] — plus seeded RNG streams for walker
//! selection, super assignment, and coordinate latency.

use up2p_net::churn::exponential_schedule;
use up2p_net::{
    DesEvent, DesNetwork, DigestConfig, Fate, LatencySpec, MsgKind, NetConfig, PeerId, PeerNetwork,
    ProtocolKind, ResourceRecord, Time,
};
use up2p_store::Query;

const PEERS: usize = 64;
const SEED: u64 = 42;

/// Every processed event with its time and its hop's fate.
type Trace = Vec<(Time, DesEvent, Option<Fate>)>;

/// `(trace, per-kind and per-fate counters, per-query metrics, events,
/// clock)`.
type RunTrace = (Trace, Vec<u64>, Vec<(u64, u64)>, u64, u64);

/// One full mixed timeline: publishes, a churn schedule, digest
/// refreshes, and interleaved queries, with seeded coordinate latency and
/// guided search so every RNG stream is exercised.
fn run_once(kind: ProtocolKind) -> RunTrace {
    let config = NetConfig::new()
        .latency(LatencySpec::Coordinate { base: 1_000, per_unit: 29_000 })
        .digests(DigestConfig { log2_bits: 8, ..DigestConfig::guided() });
    let mut net = DesNetwork::build(kind, PEERS, SEED, &config);
    net.enable_trace();
    for i in 0..40u32 {
        net.publish(
            PeerId(i % PEERS as u32),
            ResourceRecord::new(
                format!("k{}", i % 16),
                if i % 2 == 0 { "alpha" } else { "beta" },
                vec![("o/name".to_string(), format!("needle {}", i % 5))],
            ),
        );
    }
    let churn = exponential_schedule(PEERS, 2_000_000, 400_000, 200_000, SEED);
    net.schedule_churn(&churn);
    net.schedule_digest_refresh(150_000);
    net.schedule_digest_refresh(900_000);
    for i in 0..12u64 {
        let origin = PeerId(((i * 13 + 3) % PEERS as u64) as u32);
        let community = if i % 2 == 0 { "alpha" } else { "beta" };
        net.schedule_query(
            i * 150_000,
            origin,
            community,
            Query::any_keyword(&format!("needle {}", i % 5)),
        );
    }
    let outcomes = net.run();
    let metrics: Vec<(u64, u64)> =
        outcomes.iter().map(|o| (o.hits.len() as u64, o.messages)).collect();
    let stats = net.stats();
    let kinds = MsgKind::ALL.map(|k| stats.count(k));
    let counts = kinds.into_iter().chain(Fate::ALL.map(|f| stats.fate_count(f))).collect();
    (net.trace().to_vec(), counts, metrics, net.events_processed(), net.clock())
}

#[test]
fn same_seed_runs_have_equal_traces() {
    for kind in [ProtocolKind::Napster, ProtocolKind::Gnutella, ProtocolKind::FastTrack] {
        let (trace_a, stats_a, metrics_a, events_a, clock_a) = run_once(kind);
        let (trace_b, stats_b, metrics_b, events_b, clock_b) = run_once(kind);
        assert!(!trace_a.is_empty(), "{kind:?}: timeline produced no events");
        assert_eq!(trace_a.len() as u64, events_a, "{kind:?}: an event went untraced");
        // equal traces, entry for entry
        assert_eq!(trace_a.len(), trace_b.len(), "{kind:?}: trace length diverged");
        for (i, (a, b)) in trace_a.iter().zip(&trace_b).enumerate() {
            assert_eq!(a, b, "{kind:?}: trace entry {i} diverged");
        }
        assert_eq!(stats_a, stats_b, "{kind:?}: per-kind or per-fate counters diverged");
        assert_eq!(metrics_a, metrics_b, "{kind:?}: query metrics diverged");
        assert_eq!(events_a, events_b, "{kind:?}: event count diverged");
        assert_eq!(clock_a, clock_b, "{kind:?}: final clock diverged");
    }
}

#[test]
fn different_seeds_diverge() {
    // Sanity: the trace actually depends on the seed (otherwise the test
    // above proves nothing).
    let run = |seed: u64| {
        let config =
            NetConfig::new().latency(LatencySpec::Coordinate { base: 1_000, per_unit: 29_000 });
        let mut net = DesNetwork::build(ProtocolKind::Gnutella, PEERS, seed, &config);
        net.enable_trace();
        net.publish(PeerId(7), ResourceRecord::new("k1", "alpha", Vec::new()));
        net.schedule_query(0, PeerId(0), "alpha", Query::All);
        net.run();
        net.trace().to_vec()
    };
    assert_ne!(run(1), run(2), "different seeds must produce different timelines");
}
