//! Churn-at-scale regression: a 10k-peer DES run with churn storms
//! landing *while* queries are in flight. Asserts that (a) the query
//! success rate and message cost stay within bounds, and (b) digest
//! staleness never produces a false negative — deaths deliberately do
//! not dirty the routing digests (PR 4's stale-but-safe property), and
//! bloom bits only accumulate, so every record published before the
//! refresh stays visible in its super's advertisement throughout the
//! storm.

use up2p_net::churn::exponential_schedule;
use up2p_net::{
    DesNetwork, DigestConfig, LatencySpec, PeerId, PeerNetwork, ResourceRecord, SuperPeerConfig,
};
use up2p_store::Query;

const PEERS: usize = 10_000;
const SUPERS: usize = 100;
const RECORDS: usize = 300;
const REPLICAS: usize = 3;
const QUERIES: u64 = 200;
const SEED: u64 = 42;

fn artist(i: usize) -> String {
    format!("artist number {}", i % 40)
}

#[test]
fn churn_storm_at_10k_peers_stays_within_bounds() {
    let config = SuperPeerConfig {
        supers: SUPERS,
        digests: DigestConfig { log2_bits: 12, ..DigestConfig::guided() },
        ..SuperPeerConfig::default()
    };
    let latency = LatencySpec::Constant(20_000).build(PEERS, SEED);
    let mut net = DesNetwork::fasttrack(PEERS, config, latency, SEED);

    // Replicated catalogue, providers spread over the leaves.
    let mut records = Vec::new();
    for i in 0..RECORDS {
        for r in 0..REPLICAS {
            let leaf = SUPERS + (i * 37 + r * 3_011) % (PEERS - SUPERS);
            let provider = PeerId(leaf as u32);
            net.publish(
                provider,
                ResourceRecord::new(
                    format!("track{i:04}"),
                    "tracks",
                    vec![("artist".to_string(), artist(i))],
                ),
            );
            if r == 0 {
                records.push((format!("track{i:04}"), i, provider));
            }
        }
    }

    // Churn storm: mean session 400ms, mean downtime 200ms over a 2s
    // horizon — every peer flaps several times while queries run.
    let churn = exponential_schedule(PEERS, 2_000_000, 400_000, 200_000, SEED);
    assert!(churn.len() > PEERS, "schedule must actually storm");
    net.schedule_churn(&churn);

    for i in 0..QUERIES {
        let origin = PeerId((SUPERS as u64 + (i * 97 + 13) % (PEERS - SUPERS) as u64) as u32);
        net.schedule_query(
            i * 9_000,
            origin,
            "tracks",
            Query::contains("artist", &artist(i as usize)),
        );
    }
    let outcomes = net.run();
    assert_eq!(outcomes.len(), QUERIES as usize);

    // ---- bounds ------------------------------------------------------
    let stats = net.stats();
    assert_eq!(stats.queries, QUERIES);
    let success = stats.query_success_rate();
    assert!(
        success >= 0.25,
        "success rate collapsed under churn: {success:.3} (queries_with_hits {})",
        stats.queries_with_hits
    );
    let mpq = stats.messages_per_query();
    assert!(
        mpq <= 400.0,
        "guided search cost blew up under churn: {mpq:.1} msgs/query"
    );
    // the engine really did interleave: churn events alone exceed the
    // query count many times over
    assert!(net.events_processed() > churn.len() as u64);

    // ---- stale-but-safe: no digest false negatives -------------------
    // Each record's home super advertises a digest built before/through
    // the storm; for every super that holds a copy of that digest (i.e.
    // every overlay neighbor, probed via the community marker), the
    // record's exact query must still be advertised as plausible.
    for (_, i, provider) in &records {
        let Some(home) = net.super_of_peer(*provider) else {
            panic!("leaf without super");
        };
        let q = Query::contains("artist", &artist(*i));
        for receiver in 0..SUPERS as u32 {
            let edge_with_content =
                net.route_min_depth(home as u32, receiver, "tracks", &Query::All, 1);
            if edge_with_content.is_some() {
                assert_eq!(
                    net.route_min_depth(home as u32, receiver, "tracks", &q, 1),
                    Some(1),
                    "stale digest went false-negative: super {home} -> {receiver} \
                     hides record {i}"
                );
            }
        }
    }
}
