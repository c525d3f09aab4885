//! Cross-crate integration tests: the complete U-P2P lifecycle
//! (bootstrap → publish community → discover → join → create → publish →
//! search → download → view, then a third peer finding the replica) on
//! every substrate under both schedulers, plus persistence and
//! query-surface equivalence.

use up2p::net::{DesNetwork, NetConfig};
use up2p::sim::corpus::{pattern_community, pattern_values, GOF_PATTERNS};
use up2p::{
    build_network, Community, FieldKind, PayloadPlane, PeerId, PeerNetwork, ProtocolKind, Query,
    SchemaBuilder, Servent, ROOT_COMMUNITY_ID,
};

fn all_protocols() -> [ProtocolKind; 3] {
    [ProtocolKind::Napster, ProtocolKind::Gnutella, ProtocolKind::FastTrack]
}

/// Each protocol under each of its two schedulers: the step substrate
/// and the discrete-event engine driving that same substrate.
fn all_worlds() -> Vec<(String, Box<dyn PeerNetwork>)> {
    let mut worlds: Vec<(String, Box<dyn PeerNetwork>)> = Vec::new();
    for kind in all_protocols() {
        worlds.push((format!("step {kind}"), build_network(kind, 48, 9)));
        let des = DesNetwork::build(kind, 48, 9, &NetConfig::default());
        worlds.push((format!("des {kind}"), Box::new(des)));
    }
    worlds
}

#[test]
fn full_lifecycle_on_every_substrate() {
    for (world, mut net) in all_worlds() {
        let mut plane = PayloadPlane::new();
        let community = pattern_community();

        // publisher shares the community and one pattern
        let mut publisher = Servent::new(PeerId(3));
        publisher.publish_community(&mut *net, &mut plane, &community).unwrap();
        let observer = &GOF_PATTERNS[18];
        let obj = publisher
            .create_object(&community.id, &pattern_values(observer))
            .unwrap();
        publisher.publish(&mut *net, &mut plane, &obj).unwrap();

        // seeker: discovery → join → search → download → view
        let mut seeker = Servent::new(PeerId(40));
        let found = seeker
            .discover_communities(&mut *net, &Query::any_keyword("patterns"))
            .unwrap();
        assert!(!found.hits.is_empty(), "{world}: discovery");
        let id = seeker.join_from_hit(&mut *net, &mut plane, &found.hits[0]).unwrap();
        assert_eq!(id, community.id, "{world}: identity is content-derived");

        let hits = seeker
            .search(&mut *net, &id, &Query::keyword("name", "observer"))
            .unwrap();
        assert!(!hits.hits.is_empty(), "{world}: search");
        let downloaded = seeker.download(&mut *net, &mut plane, &hits.hits[0]).unwrap();
        assert_eq!(downloaded.key, obj.key, "{world}: same object");

        let html = seeker.view_html(&downloaded).unwrap();
        assert!(html.contains("Observer"), "{world}: view renders");
        assert!(
            html.contains("notified and updated automatically"),
            "{world}: intent visible"
        );

        // the download replicated the object: a third peer now finds it
        // at the publisher and at the seeker
        let mut third = Servent::new(PeerId(21));
        third.join(community.clone());
        let again = third
            .search(&mut *net, &community.id, &Query::keyword("name", "observer"))
            .unwrap();
        assert_eq!(again.distinct_keys(), 1, "{world}: one object");
        assert!(again.hits.len() >= 2, "{world}: replica discoverable, {} hit(s)", again.hits.len());
    }
}

#[test]
fn downloaded_community_schema_validates_new_objects() {
    let mut net = build_network(ProtocolKind::Napster, 8, 1);
    let mut plane = PayloadPlane::new();
    let community = pattern_community();
    let mut publisher = Servent::new(PeerId(0));
    publisher.publish_community(&mut *net, &mut plane, &community).unwrap();

    let mut joiner = Servent::new(PeerId(1));
    let found = joiner.discover_communities(&mut *net, &Query::any_keyword("gof")).unwrap();
    let id = joiner.join_from_hit(&mut *net, &mut plane, &found.hits[0]).unwrap();

    // the joiner can now create valid objects and is rejected for bad ones
    let ok = joiner.create_object(&id, &pattern_values(&GOF_PATTERNS[0]));
    assert!(ok.is_ok());
    let bad = joiner.create_object(
        &id,
        &[("name", "X"), ("category", "no-such-category"), ("intent", "i"),
          ("applicability", "a"), ("participants", "p")],
    );
    assert!(bad.is_err(), "enumeration facet must travel with the schema");
}

#[test]
fn repository_persistence_round_trip() {
    let community = pattern_community();
    let mut net = build_network(ProtocolKind::Napster, 4, 2);
    let mut plane = PayloadPlane::new();
    let mut servent = Servent::new(PeerId(0));
    servent.join(community.clone());
    for p in &GOF_PATTERNS[..5] {
        let obj = servent.create_object(&community.id, &pattern_values(p)).unwrap();
        servent.publish(&mut *net, &mut plane, &obj).unwrap();
    }

    let dir = std::env::temp_dir().join(format!("up2p-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    up2p::store::DurableRepository::save_snapshot(servent.repository(), &dir).unwrap();
    let (loaded, _) = up2p::store::DurableRepository::recover(&dir).unwrap();
    assert_eq!(loaded.len(), 5);
    // ids and search results survive the round trip
    let before: Vec<_> = servent
        .repository()
        .search(Some(&community.id), &Query::any_keyword("factory"))
        .iter()
        .map(|o| o.id.clone())
        .collect();
    let after: Vec<_> = loaded
        .search(Some(&community.id), &Query::any_keyword("factory"))
        .iter()
        .map(|o| o.id.clone())
        .collect();
    assert_eq!(before, after);
    assert!(!after.is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn three_query_surfaces_agree() {
    // programmatic Query, CMIP filter text and XPath must select the same
    // objects from the same corpus
    let community = pattern_community();
    let mut repo = up2p::store::Repository::new();
    let form = up2p::FormModel::derive(&community, up2p::FormKind::Create);
    let paths = community.indexed_paths();
    for p in &GOF_PATTERNS {
        let doc = form.fill("pattern", &pattern_values(p)).unwrap();
        repo.insert_doc(&community.id, doc, &paths);
    }

    let via_query: Vec<_> = repo
        .search(None, &Query::eq("category", "creational"))
        .iter()
        .map(|o| o.id.clone())
        .collect();
    let via_cmip: Vec<_> = repo
        .search_cmip(None, "(category=creational)")
        .unwrap()
        .iter()
        .map(|o| o.id.clone())
        .collect();
    let via_xpath: Vec<_> = repo
        .xpath_search(None, "/pattern[category='creational']")
        .unwrap()
        .iter()
        .map(|o| o.id.clone())
        .collect();
    assert_eq!(via_query.len(), 5, "five creational GoF patterns");
    assert_eq!(via_query, via_cmip);
    assert_eq!(via_query, via_xpath);
}

#[test]
fn root_community_cannot_be_left_and_is_always_searchable() {
    let mut net = build_network(ProtocolKind::Gnutella, 16, 5);
    let mut plane = PayloadPlane::new();
    let mut s = Servent::new(PeerId(2));
    assert!(!s.leave(ROOT_COMMUNITY_ID));
    // searching an empty root community is fine (no communities yet)
    let out = s.discover_communities(&mut *net, &Query::any_keyword("anything")).unwrap();
    assert!(out.hits.is_empty());
    // after someone publishes, the same query finds it
    let mut b = SchemaBuilder::new("thing");
    b.field(FieldKind::text("name").searchable());
    let community =
        Community::from_builder("anything-goes", "anything", "anything", "misc", "", &b)
            .unwrap();
    let mut founder = Servent::new(PeerId(7));
    founder.publish_community(&mut *net, &mut plane, &community).unwrap();
    let out = s.discover_communities(&mut *net, &Query::any_keyword("anything")).unwrap();
    assert!(!out.hits.is_empty());
}

#[test]
fn communities_with_same_definition_converge_across_peers() {
    // two peers independently construct the same community: identical id,
    // so their objects land in the same community
    let mut net = build_network(ProtocolKind::Napster, 8, 3);
    let mut plane = PayloadPlane::new();
    let c1 = pattern_community();
    let c2 = pattern_community();
    assert_eq!(c1.id, c2.id);

    let mut a = Servent::new(PeerId(0));
    a.join(c1.clone());
    let obj = a.create_object(&c1.id, &pattern_values(&GOF_PATTERNS[4])).unwrap();
    a.publish(&mut *net, &mut plane, &obj).unwrap();

    let mut b = Servent::new(PeerId(1));
    b.join(c2);
    let out = b.search(&mut *net, &c1.id, &Query::keyword("name", "singleton")).unwrap();
    assert_eq!(out.hits.len(), 1);
}

#[test]
fn generated_forms_round_trip_into_valid_objects_for_all_corpora() {
    use up2p::sim::corpus;
    for community in [corpus::pattern_community(), corpus::mp3_community(), corpus::molecule_community()]
    {
        let create = up2p::FormModel::derive(&community, up2p::FormKind::Create);
        let search = up2p::FormModel::derive(&community, up2p::FormKind::Search);
        assert!(!create.fields.is_empty());
        assert!(!search.fields.is_empty());
        assert!(search.fields.len() <= create.fields.len());
        // HTML renders for both
        let html = up2p::core::stylesheets::render_form(&create.to_document(), None).unwrap();
        assert!(html.contains("up2p-create"));
        let html = up2p::core::stylesheets::render_form(&search.to_document(), None).unwrap();
        assert!(html.contains("up2p-search"));
    }
}
