//! Failure injection across crates: dead peers, super-peer leaves whose
//! super goes offline, payload tampering, malformed inputs and TTL
//! exhaustion.

use up2p::sim::corpus::{pattern_community, pattern_values, GOF_PATTERNS};
use up2p::{
    build_network, CoreError, PayloadPlane, PeerId, ProtocolKind, Query, Servent,
};
use up2p::net::{
    churn, DesNetwork, FloodingConfig, LatencySpec, PeerNetwork, Substrate, Topology,
};

fn seeded_world(
    kind: ProtocolKind,
) -> (Box<dyn PeerNetwork>, PayloadPlane, Servent, Servent, String) {
    let mut net = build_network(kind, 24, 13);
    let mut plane = PayloadPlane::new();
    let community = pattern_community();
    let mut publisher = Servent::new(PeerId(2));
    publisher.join(community.clone());
    let obj = publisher
        .create_object(&community.id, &pattern_values(&GOF_PATTERNS[18]))
        .unwrap();
    publisher.publish(&mut *net, &mut plane, &obj).unwrap();
    let mut seeker = Servent::new(PeerId(20));
    seeker.join(community.clone());
    let id = community.id.clone();
    (net, plane, publisher, seeker, id)
}

#[test]
fn provider_death_between_search_and_download() {
    for kind in [ProtocolKind::Napster, ProtocolKind::Gnutella, ProtocolKind::FastTrack] {
        let (mut net, mut plane, _publisher, mut seeker, id) = seeded_world(kind);
        let out = seeker.search(&mut *net, &id, &Query::keyword("name", "observer")).unwrap();
        assert!(!out.hits.is_empty(), "{kind}");
        net.set_alive(PeerId(2), false);
        let err = seeker.download(&mut *net, &mut plane, &out.hits[0]).unwrap_err();
        assert!(matches!(err, CoreError::Unavailable(_)), "{kind}");
        // provider returns; download succeeds again
        net.set_alive(PeerId(2), true);
        assert!(seeker.download(&mut *net, &mut plane, &out.hits[0]).is_ok(), "{kind}");
    }
}

#[test]
fn total_churn_makes_objects_invisible_then_revival_restores_them() {
    let (mut net, _plane, _publisher, mut seeker, id) =
        seeded_world(ProtocolKind::Gnutella);
    let mut rng = up2p::sim::rng_for(1, "failure");
    churn::apply_snapshot(&mut *net, 0.0, &[PeerId(20)], &mut rng);
    let out = seeker.search(&mut *net, &id, &Query::keyword("name", "observer")).unwrap();
    assert!(out.hits.is_empty(), "everyone else is offline");
    churn::revive_all(&mut *net);
    let out = seeker.search(&mut *net, &id, &Query::keyword("name", "observer")).unwrap();
    assert!(!out.hits.is_empty());
}

#[test]
fn ttl_exhaustion_hides_distant_objects() {
    // a line topology with the object 5 hops away and TTL 3
    let topo = Topology::from_edges(8, (0..7u32).map(|i| (PeerId(i), PeerId(i + 1))));
    let mut net = DesNetwork::new(Substrate::gnutella(
        topo,
        LatencySpec::Constant(10_000).build(0, 1),
        FloodingConfig { ttl: 3, dedup: true, ..FloodingConfig::default() },
    ));
    let mut plane = PayloadPlane::new();
    let community = pattern_community();
    let mut far = Servent::new(PeerId(6));
    far.join(community.clone());
    let obj = far.create_object(&community.id, &pattern_values(&GOF_PATTERNS[0])).unwrap();
    far.publish(&mut net, &mut plane, &obj).unwrap();

    let mut near = Servent::new(PeerId(0));
    near.join(community.clone());
    let out = near.search(&mut net, &community.id, &Query::All).unwrap();
    assert!(out.hits.is_empty(), "object is 6 hops away, ttl 3");

    // a closer peer finds it
    let mut close = Servent::new(PeerId(4));
    close.join(community.clone());
    let out = close.search(&mut net, &community.id, &Query::All).unwrap();
    assert_eq!(out.hits.len(), 1);
}

#[test]
fn payload_tampering_detected_on_download() {
    let (mut net, mut plane, publisher, mut seeker, id) = seeded_world(ProtocolKind::Napster);
    let out = seeker.search(&mut *net, &id, &Query::keyword("name", "observer")).unwrap();
    let hit = out.hits[0].clone();

    // rebuild the plane with a tampered payload registered under a
    // *different* (honest) key, then a plane missing the object entirely
    let empty_plane = PayloadPlane::new();
    let err = {
        let mut p = empty_plane.clone();
        std::mem::swap(&mut p, &mut plane);
        let e = seeker.download(&mut *net, &mut plane, &hit).unwrap_err();
        std::mem::swap(&mut p, &mut plane);
        e
    };
    assert!(matches!(err, CoreError::Unavailable(_)), "missing payload is detected");
    let _ = publisher;
}

#[test]
fn malformed_schema_and_stylesheets_are_rejected_cleanly() {
    // community with unparsable schema
    assert!(up2p::Community::new("x", "d", "k", "c", "", "<oops").is_err());
    // broken custom stylesheet fails at view time, not at publish time
    let community = pattern_community().with_display_style("<broken");
    let mut s = Servent::new(PeerId(0));
    s.join(community.clone());
    let obj = s.create_object(&community.id, &pattern_values(&GOF_PATTERNS[0])).unwrap();
    let err = s.view_html(&obj).unwrap_err();
    assert!(matches!(err, CoreError::Stylesheet(_)));
}

#[test]
fn a_schema_naming_an_element_that_is_no_xml_name_fails_create_object_cleanly() {
    // the schema is another peer's text: it joins (the XSD parses), and
    // the object nobody can write is an error, not a panic
    let xsd = r#"<schema xmlns="http://www.w3.org/2001/XMLSchema"><element name="thing">
        <complexType><sequence>
            <element name="title" type="string"/>
            <element name="1 bad" type="string" minOccurs="0"/>
            <element name="2 worse"><complexType><sequence>
                <element name="leaf" type="string"/>
            </sequence></complexType></element>
        </sequence></complexType></element></schema>"#;
    let community = up2p::Community::new("things", "d", "k", "c", "", xsd).unwrap();
    let mut s = Servent::new(PeerId(0));
    s.join(community.clone());
    for values in [
        vec![("title", "t"), ("1 bad", "x")],
        vec![("title", "t"), ("thing/2 worse/leaf", "x")],
    ] {
        let err = s.create_object(&community.id, &values).unwrap_err();
        assert!(matches!(err, CoreError::Validation(_)), "{err}");
        assert!(err.to_string().contains("is not an element name"), "{err}");
    }
}

#[test]
fn dead_origin_cannot_search_or_publish_visibly() {
    let (mut net, mut plane, _publisher, mut seeker, id) = seeded_world(ProtocolKind::Napster);
    net.set_alive(PeerId(20), false);
    let out = seeker.search(&mut *net, &id, &Query::All).unwrap();
    assert!(out.hits.is_empty(), "dead origin gets nothing");
    net.set_alive(PeerId(20), true);

    // a dead peer's publish is dropped by the substrate
    net.set_alive(PeerId(21), false);
    let community = pattern_community();
    let mut ghost = Servent::new(PeerId(21));
    ghost.join(community.clone());
    let obj = ghost.create_object(&id, &pattern_values(&GOF_PATTERNS[1])).unwrap();
    ghost.publish(&mut *net, &mut plane, &obj).unwrap();
    let out = seeker.search(&mut *net, &id, &Query::keyword("name", "builder")).unwrap();
    assert!(out.hits.is_empty(), "ghost publish must not be visible");
}

#[test]
fn mid_write_crash_loses_nothing_acknowledged() {
    // the durability failure mode: the servent's local store dies mid
    // write (power cut, disk full) — every acknowledged publish must
    // survive recovery, and the torn tail must vanish without a panic
    use up2p::store::{DurableOptions, DurableRepository, FailFs};
    let community = pattern_community();
    let mut servent = Servent::new(PeerId(0));
    servent.join(community.clone());
    let paths = vec!["pattern/name".to_string(), "pattern/category".to_string()];
    let objects: Vec<_> = GOF_PATTERNS[..8]
        .iter()
        .map(|p| servent.create_object(&community.id, &pattern_values(p)).unwrap())
        .collect();

    let dir = std::env::temp_dir()
        .join(format!("up2p-facade-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // budget chosen to die partway through the workload
    let fs = FailFs::new(4_000);
    let mut store = DurableRepository::open_with_fs(
        Box::new(fs.clone()),
        &dir,
        DurableOptions::default(),
    )
    .unwrap();
    let mut acked = Vec::new();
    for obj in &objects {
        match store.publish_xml(&community.id, &obj.xml(), &paths) {
            Ok(id) => acked.push(id),
            Err(_) => break,
        }
    }
    assert!(fs.is_dead(), "budget must be exhausted mid-workload");
    assert!(!acked.is_empty() && acked.len() < objects.len(), "crash landed mid-workload");
    drop(store);

    let (recovered, report) = DurableRepository::recover(&dir).unwrap();
    for id in &acked {
        assert!(recovered.contains(id), "acknowledged publish {id} lost");
    }
    assert!(recovered.len() <= acked.len() + 1, "at most the one torn record extra");
    assert!(
        report.wal_records >= acked.len(),
        "replay covers every acknowledged record"
    );
    // the recovered index serves queries over the surviving objects
    let hits = recovered.search(Some(&community.id), &Query::All);
    assert_eq!(hits.len(), recovered.len());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn superpeer_leaves_move_to_a_live_super_and_stay_when_it_returns() {
    use up2p::net::SuperPeerConfig;
    let mut net = DesNetwork::new(Substrate::fasttrack(
        24,
        SuperPeerConfig { supers: 4, super_degree: 1, ttl: 4, ..SuperPeerConfig::default() },
        LatencySpec::Constant(10_000).build(0, 1),
        99,
    ));
    let mut plane = PayloadPlane::new();
    let community = pattern_community();
    let mut publisher = Servent::new(PeerId(10));
    publisher.join(community.clone());
    let obj = publisher
        .create_object(&community.id, &pattern_values(&GOF_PATTERNS[2]))
        .unwrap();
    publisher.publish(&mut net, &mut plane, &obj).unwrap();

    let leaf = PeerId(15);
    let super_idx = net.substrate().super_of(leaf).expect("leaf is in the network") as u32;
    let mut seeker = Servent::new(leaf);
    seeker.join(community.clone());

    net.set_alive(PeerId(super_idx), false);
    let moved_to = net.substrate().super_of(leaf).expect("leaf is in the network");
    assert_ne!(moved_to as u32, super_idx, "the leaf left its offline super");
    let out = seeker
        .search(&mut net, &community.id, &Query::keyword("name", "factory"))
        .unwrap();
    assert!(!out.hits.is_empty(), "the leaf searches through its new super");

    net.set_alive(PeerId(super_idx), true);
    assert_eq!(
        net.substrate().super_of(leaf),
        Some(moved_to),
        "the super returns without the leaf that moved away"
    );
    let out = seeker
        .search(&mut net, &community.id, &Query::keyword("name", "factory"))
        .unwrap();
    assert!(!out.hits.is_empty(), "still found from the new super");
}
