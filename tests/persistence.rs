//! Servent state persistence and stylesheet propagation: a servent saved
//! to disk comes back with its communities (schemas, custom stylesheets)
//! and repository intact; custom stylesheets travel to joining peers as
//! attachments.

use up2p::sim::corpus::{mp3_community, pattern_community, pattern_values, GOF_PATTERNS};
use up2p::{build_network, PayloadPlane, PeerId, ProtocolKind, Query, Servent};

const CUSTOM_VIEW: &str = r#"<xsl:stylesheet version="1.0"
    xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
  <xsl:output method="html"/>
  <xsl:template match="/"><h1 class="custom"><xsl:value-of select="//name"/></h1></xsl:template>
</xsl:stylesheet>"#;

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("up2p-{name}-{}", std::process::id()))
}

#[test]
fn servent_state_round_trips() {
    let community = pattern_community().with_display_style(CUSTOM_VIEW);
    let mut net = build_network(ProtocolKind::Napster, 4, 1);
    let mut plane = PayloadPlane::new();
    let mut servent = Servent::new(PeerId(0));
    servent.join(community.clone());
    for p in &GOF_PATTERNS[..3] {
        let obj = servent.create_object(&community.id, &pattern_values(p)).unwrap();
        servent.publish(&mut *net, &mut plane, &obj).unwrap();
    }

    let dir = tmp("servent-state");
    let _ = std::fs::remove_dir_all(&dir);
    servent.save_state(&dir).unwrap();

    let restored = Servent::load_state(PeerId(0), &dir).unwrap();
    // same communities (root + patterns), same custom stylesheet
    let c = restored.community(&community.id).expect("community restored");
    assert_eq!(c.name, community.name);
    assert_eq!(c.display_style.as_deref(), Some(CUSTOM_VIEW));
    assert_eq!(c.schema_xsd, community.schema_xsd);
    // repository contents survive
    assert_eq!(restored.local_objects(&community.id).len(), 3);
    let hits = restored
        .repository()
        .search(Some(&community.id), &Query::any_keyword("factory"));
    assert!(!hits.is_empty());
    // and the restored servent can create new valid objects right away
    assert!(restored.create_object(&community.id, &pattern_values(&GOF_PATTERNS[5])).is_ok());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_community_left_between_two_saves_stays_left() {
    let (patterns, mp3) = (pattern_community(), mp3_community());
    let mut servent = Servent::new(PeerId(0));
    servent.join(patterns.clone());
    servent.join(mp3.clone());
    let dir = tmp("servent-leave");
    let _ = std::fs::remove_dir_all(&dir);
    servent.save_state(&dir).unwrap();
    assert!(servent.leave(&mp3.id));
    servent.save_state(&dir).unwrap();

    let restored = Servent::load_state(PeerId(0), &dir).unwrap();
    let ids = |s: &Servent| -> std::collections::BTreeSet<String> {
        s.communities().map(|c| c.id.clone()).collect()
    };
    assert_eq!(ids(&restored), ids(&servent), "membership is what the last save wrote");
    assert!(restored.community(&patterns.id).is_some());
    assert!(restored.community(&mp3.id).is_none(), "the left community came back");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn custom_stylesheets_propagate_to_joining_peers() {
    let community = pattern_community().with_display_style(CUSTOM_VIEW);
    let mut net = build_network(ProtocolKind::Napster, 8, 2);
    let mut plane = PayloadPlane::new();

    let mut founder = Servent::new(PeerId(1));
    founder.publish_community(&mut *net, &mut plane, &community).unwrap();
    let obj = founder
        .create_object(&community.id, &pattern_values(&GOF_PATTERNS[18]))
        .unwrap();
    founder.publish(&mut *net, &mut plane, &obj).unwrap();

    let mut joiner = Servent::new(PeerId(5));
    let found = joiner.discover_communities(&mut *net, &Query::any_keyword("gof")).unwrap();
    let id = joiner.join_from_hit(&mut *net, &mut plane, &found.hits[0]).unwrap();
    assert_eq!(id, community.id, "styled community keeps one identity everywhere");

    // the joiner renders objects with the founder's custom stylesheet
    let hits = joiner.search(&mut *net, &id, &Query::keyword("name", "observer")).unwrap();
    let downloaded = joiner.download(&mut *net, &mut plane, &hits.hits[0]).unwrap();
    let html = joiner.view_html(&downloaded).unwrap();
    assert_eq!(html, r#"<h1 class="custom">Observer</h1>"#);
}

#[test]
fn load_state_with_missing_dir_fails_cleanly() {
    let err = Servent::load_state(PeerId(0), &tmp("no-such-dir")).unwrap_err();
    assert!(matches!(err, up2p::CoreError::Store(_)));
}

#[test]
fn saved_state_loads_through_manifest_fast_path_without_retokenizing() {
    use up2p::store::{token_passes, DurableRepository};
    let community = pattern_community();
    let mut servent = Servent::new(PeerId(0));
    servent.join(community.clone());
    let mut net = build_network(ProtocolKind::Napster, 2, 1);
    let mut plane = PayloadPlane::new();
    for p in &GOF_PATTERNS[..6] {
        let obj = servent.create_object(&community.id, &pattern_values(p)).unwrap();
        servent.publish(&mut *net, &mut plane, &obj).unwrap();
    }
    let dir = tmp("fast-path-state");
    let _ = std::fs::remove_dir_all(&dir);
    servent.save_state(&dir).unwrap();

    // save_state writes a durable snapshot: the repository directory is
    // manifest-committed, and loading it runs zero tokenization passes
    let repo_dir = dir.join("repository");
    let passes_before = token_passes();
    let (loaded, recovery) = DurableRepository::recover(&repo_dir).unwrap();
    assert_eq!(token_passes() - passes_before, 0, "recovery must not re-tokenize");
    assert_eq!(loaded.len(), 6);
    assert_eq!(recovery.segment_objects, 6);
    assert_eq!(recovery.torn_bytes, 0);

    // the recovered index answers queries identically to the original
    for q in [
        Query::any_keyword("factory"),
        Query::keyword("name", "observer"),
        Query::eq("category", "creational"),
    ] {
        let before: Vec<_> =
            servent.repository().search(None, &q).iter().map(|o| o.id.clone()).collect();
        let after: Vec<_> = loaded.search(None, &q).iter().map(|o| o.id.clone()).collect();
        assert_eq!(before, after, "on {q}");
    }

    // regression: re-saving over unchanged state commits a newer
    // generation and retires the old one — repeated saves must not leave
    // a copy of the repository behind each time
    for _ in 0..3 {
        servent.save_state(&dir).unwrap();
    }
    let (_, recovery2) = DurableRepository::recover(&repo_dir).unwrap();
    assert_eq!(recovery2.generation, recovery.generation + 3);
    let mut files: Vec<String> = std::fs::read_dir(&repo_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    assert_eq!(files, ["MANIFEST", "seg-3.up2p", "wal-3.log"]);

    // and the full servent restore path uses the same loader
    let restored = Servent::load_state(PeerId(0), &dir).unwrap();
    assert_eq!(restored.local_objects(&community.id).len(), 6);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn directories_without_a_manifest_are_refused_not_loaded_empty() {
    use up2p::store::{DurableRepository, StoreError};
    // a directory of one-XML-wrapper-per-object files (the layout the
    // store wrote before it had a manifest) is not a store
    let dir = tmp("xml-only");
    let _ = std::fs::remove_dir_all(&dir);
    let repo_dir = dir.join("repository");
    std::fs::create_dir_all(&repo_dir).unwrap();
    std::fs::write(
        repo_dir.join("0123.xml"),
        r#"<stored community="patterns"><fields><field path="pattern/name">Observer</field></fields><object><pattern><name>Observer</name></pattern></object></stored>"#,
    )
    .unwrap();
    assert!(matches!(DurableRepository::recover(&repo_dir), Err(StoreError::Corrupt(_))));
    let err = Servent::load_state(PeerId(0), &dir).unwrap_err();
    assert!(matches!(err, up2p::CoreError::Store(StoreError::Corrupt(_))));
    std::fs::remove_dir_all(&dir).unwrap();
    // and neither is a directory that does not exist
    assert!(matches!(DurableRepository::recover(&repo_dir), Err(StoreError::Corrupt(_))));
}
