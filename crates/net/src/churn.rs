//! Peer churn models for availability experiments (E5).
//!
//! Two views of churn are provided: an i.i.d. *snapshot* (each peer online
//! with probability `availability` at query time — the standard analytical
//! model where an object with `r` replicas is findable with probability
//! `1-(1-a)^r`), and an explicit on/off *schedule* with exponential
//! session and downtime durations for trace-driven simulation.

use crate::message::Time;
use crate::peer::PeerId;
use crate::traits::PeerNetwork;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Applies an i.i.d. liveness snapshot: every peer except those in
/// `pinned` is set online with probability `availability`.
///
/// # Panics
///
/// Panics if `availability` is outside `[0, 1]`.
#[expect(clippy::disallowed_macros, reason = "`# Panics` on an availability outside [0, 1]; its callers are E5, which passes 0.9 / 0.7 / 0.5, and tests passing literals")]
pub fn apply_snapshot(
    net: &mut dyn PeerNetwork,
    availability: f64,
    pinned: &[PeerId],
    rng: &mut StdRng,
) {
    assert!((0.0..=1.0).contains(&availability), "availability must be a probability");
    for i in 0..net.peer_count() {
        let p = PeerId(i as u32);
        if pinned.contains(&p) {
            net.set_alive(p, true);
        } else {
            net.set_alive(p, rng.gen::<f64>() < availability);
        }
    }
}

/// Restores every peer to online.
pub fn revive_all(net: &mut dyn PeerNetwork) {
    for i in 0..net.peer_count() {
        net.set_alive(PeerId(i as u32), true);
    }
}

/// One liveness transition in a churn schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEvent {
    /// Virtual time of the transition.
    pub at: Time,
    /// Affected peer.
    pub peer: PeerId,
    /// New liveness.
    pub online: bool,
}

/// Generates an exponential on/off schedule for every peer over
/// `[0, horizon)`. Peers start online; session lengths are exponential
/// with mean `mean_session`, downtimes with mean `mean_downtime`.
pub fn exponential_schedule(
    peers: usize,
    horizon: Time,
    mean_session: Time,
    mean_downtime: Time,
    seed: u64,
) -> Vec<ChurnEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut events = Vec::new();
    for p in 0..peers {
        let mut t: Time = 0;
        let mut online = true;
        loop {
            let mean = if online { mean_session } else { mean_downtime };
            let draw = sample_exponential(&mut rng, mean);
            t = t.saturating_add(draw);
            if t >= horizon {
                break;
            }
            online = !online;
            events.push(ChurnEvent { at: t, peer: PeerId(p as u32), online });
        }
    }
    events.sort_by_key(|e| (e.at, e.peer));
    events
}

fn sample_exponential(rng: &mut StdRng, mean: Time) -> Time {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    (-u.ln() * mean as f64) as Time
}

/// Expected availability of an object with `replicas` copies when each
/// peer is online with probability `availability` — the analytical curve
/// E5 compares the simulation against.
pub fn expected_availability(availability: f64, replicas: u32) -> f64 {
    1.0 - (1.0 - availability).powi(replicas as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use crate::{DesNetwork, FloodingConfig, LatencySpec, Substrate};

    fn net(n: usize) -> DesNetwork {
        DesNetwork::new(Substrate::gnutella(
            Topology::ring_lattice(n, 2),
            LatencySpec::Constant(1_000).build(n, 1),
            FloodingConfig::default(),
        ))
    }

    #[test]
    fn snapshot_respects_probability_roughly() {
        let mut net = net(1000);
        let mut rng = StdRng::seed_from_u64(7);
        apply_snapshot(&mut net, 0.3, &[], &mut rng);
        let alive = (0..1000).filter(|&i| net.is_alive(PeerId(i))).count();
        assert!((200..400).contains(&alive), "got {alive}, expected ≈300");
    }

    #[test]
    fn snapshot_pins_peers() {
        let mut net = net(100);
        let mut rng = StdRng::seed_from_u64(7);
        apply_snapshot(&mut net, 0.0, &[PeerId(5)], &mut rng);
        assert!(net.is_alive(PeerId(5)));
        assert!(!net.is_alive(PeerId(6)));
        revive_all(&mut net);
        assert!(net.is_alive(PeerId(6)));
    }

    #[test]
    fn extreme_probabilities() {
        let mut net = net(50);
        let mut rng = StdRng::seed_from_u64(1);
        apply_snapshot(&mut net, 1.0, &[], &mut rng);
        assert!((0..50).all(|i| net.is_alive(PeerId(i))));
        apply_snapshot(&mut net, 0.0, &[], &mut rng);
        assert!((0..50).all(|i| !net.is_alive(PeerId(i))));
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_probability_panics() {
        let mut net = net(10);
        let mut rng = StdRng::seed_from_u64(1);
        apply_snapshot(&mut net, 1.5, &[], &mut rng);
    }

    #[test]
    fn schedule_is_sorted_and_alternates() {
        let events = exponential_schedule(20, 1_000_000, 100_000, 50_000, 3);
        assert!(!events.is_empty());
        for w in events.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        // per-peer transitions must alternate starting with "go offline"
        for p in 0..20u32 {
            let mine: Vec<bool> = events
                .iter()
                .filter(|e| e.peer == PeerId(p))
                .map(|e| e.online)
                .collect();
            for (i, &online) in mine.iter().enumerate() {
                assert_eq!(online, i % 2 == 1, "peer {p} transition {i}");
            }
        }
    }

    #[test]
    fn schedule_respects_horizon() {
        let events = exponential_schedule(5, 100_000, 10_000, 10_000, 9);
        assert!(events.iter().all(|e| e.at < 100_000));
    }

    #[test]
    fn analytic_availability_curve() {
        assert!((expected_availability(0.5, 1) - 0.5).abs() < 1e-12);
        assert!((expected_availability(0.5, 2) - 0.75).abs() < 1e-12);
        assert!((expected_availability(0.3, 5) - (1.0 - 0.7f64.powi(5))).abs() < 1e-12);
        assert_eq!(expected_availability(1.0, 1), 1.0);
        assert_eq!(expected_availability(0.0, 10), 0.0);
    }
}
