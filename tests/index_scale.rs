//! Facade-level coverage for the interned metadata index: loading a
//! corpus through `Repository::insert_doc`, the direct-lookup fast path
//! for exact field references, targeted removal, and index/scan
//! agreement on a corpus bigger than the unit-test samples.

use up2p::store::{parse_cmip, MetadataIndex, Query, Repository, ResourceId, ValuePattern};
use up2p::xml::Document;
use std::collections::BTreeSet;

fn synthetic_xml(i: usize) -> String {
    let genres = ["rock", "jazz", "folk", "ambient"];
    format!(
        "<track><title>song number{} take{}</title><artist>artist{:02}</artist><genre>{}</genre></track>",
        i % 50,
        i,
        i % 20,
        genres[i % genres.len()]
    )
}

fn paths() -> Vec<String> {
    vec!["track/title".into(), "track/artist".into(), "track/genre".into()]
}

#[test]
fn batch_load_then_search_remove_reload() {
    let mut repo = Repository::new();
    let ids: Vec<ResourceId> = (0..300)
        .map(|i| repo.insert_doc("tracks", Document::parse(&synthetic_xml(i)).unwrap(), &paths()))
        .collect();
    assert_eq!(ids.len(), 300);
    assert_eq!(repo.len(), 300, "synthetic corpus has no duplicate objects");

    // exact reference goes through the direct path lookup
    let jazz = repo.search(Some("tracks"), &Query::eq("track/genre", "jazz"));
    assert_eq!(jazz.len(), 75);
    // bare leaf reference resolves to the same field
    let jazz_leaf = repo.search(Some("tracks"), &Query::eq("genre", "jazz"));
    assert_eq!(jazz.len(), jazz_leaf.len());

    // boolean + keyword + wildcard through the facade
    let filter = parse_cmip("(&(genre=rock)(title~=number8))").unwrap();
    let hits = repo.search(Some("tracks"), &filter);
    assert!(!hits.is_empty());
    for o in &hits {
        assert!(o.fields.contains(&("track/genre".to_string(), "rock".to_string())));
    }
    let wild = repo.search(None, &parse_cmip("(artist=artist0*)").unwrap());
    assert_eq!(wild.len(), 150, "artist00..artist09 is half the corpus");

    // targeted removal leaves the rest of the index intact
    let before = repo.index_stats();
    for id in ids.iter().take(100) {
        assert!(repo.remove(id).is_some());
    }
    let after = repo.index_stats();
    assert_eq!(after.objects, 200);
    assert!(after.token_postings < before.token_postings);
    for id in ids.iter().take(100) {
        assert!(repo.get(id).is_none());
        assert!(repo.remove(id).is_none(), "double remove is a no-op");
    }
    // remaining objects still searchable
    let jazz_after = repo.search(Some("tracks"), &Query::eq("genre", "jazz"));
    assert_eq!(jazz_after.len(), 50);
}

#[test]
fn index_agrees_with_linear_scan_at_scale() {
    let mut ix = MetadataIndex::new();
    let mut reference = Vec::new();
    for i in 0..500usize {
        let id = ResourceId::for_bytes(&(i as u64).to_le_bytes());
        let fields = vec![
            ("track/title".to_string(), format!("song number{} take{}", i % 50, i)),
            ("track/artist".to_string(), format!("artist{:02}", i % 20)),
            ("track/genre".to_string(), ["rock", "jazz", "folk"][i % 3].to_string()),
        ];
        ix.insert_shared(id.clone(), fields.clone().into());
        reference.push((id, fields));
    }
    // remove a third to exercise doc-id recycling in query results
    for (id, _) in reference.iter().step_by(3) {
        ix.remove(id);
    }
    let live: Vec<_> = reference
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 3 != 0)
        .map(|(_, r)| r.clone())
        .collect();
    let queries = vec![
        Query::eq("track/genre", "jazz"),
        Query::eq("genre", "rock"),
        Query::keyword("title", "number7"),
        Query::any_keyword("artist05"),
        Query::and([Query::eq("genre", "folk"), Query::keyword("title", "number9")]),
        Query::or([Query::eq("genre", "jazz"), Query::eq("genre", "folk")]),
        Query::Not(Box::new(Query::eq("genre", "rock"))),
        Query::Match {
            field: "artist".to_string(),
            pattern: ValuePattern::from_wildcard("artist1*"),
        },
        Query::All,
    ];
    for q in queries {
        let via_index = ix.execute(&q);
        let via_scan: BTreeSet<ResourceId> = live
            .iter()
            .filter(|(_, fields)| q.matches_fields(fields))
            .map(|(id, _)| id.clone())
            .collect();
        assert_eq!(via_index, via_scan, "disagreement on {q}");
    }
}
