//! The local object repository — the "database based on Magenta" of the
//! paper's servent, reimplemented as a content-addressed store with the
//! metadata index attached.

use crate::digest::ResourceId;
use crate::index::{IndexStats, MetadataIndex, PreparedField, SharedFields};
use crate::query::Query;
use std::collections::BTreeMap;
use up2p_xml::{Document, XPath};

/// A stored shared object: its community, canonical XML and the
/// metadata fields that were extracted for indexing. A reader that needs
/// the document parses `xml`.
#[derive(Debug, Clone)]
pub struct StoredObject {
    /// Content-derived identifier.
    pub id: ResourceId,
    /// Community the object belongs to.
    pub community: String,
    /// Canonical (compact) XML text.
    pub xml: String,
    /// Extracted `(field path, value)` metadata — the same allocation the
    /// metadata index (and, on the publish path, the network record)
    /// holds.
    pub fields: SharedFields,
}

/// Field paths with their selections parsed — what
/// [`Repository::extract_fields`] prepares on every call, kept by a
/// caller that extracts from many documents with one set of paths.
#[derive(Debug, Clone)]
pub struct FieldPaths(Vec<(String, Option<XPath>)>);

impl FieldPaths {
    /// Parses the selection of each path. A path that does not parse is
    /// kept and selects nothing.
    pub fn new(paths: &[String]) -> FieldPaths {
        FieldPaths(
            paths
                .iter()
                .map(|path| {
                    let expr = format!("/{}", path.trim_matches('/'));
                    (path.clone(), XPath::parse(&expr).ok())
                })
                .collect(),
        )
    }

    /// The paths, as given to [`FieldPaths::new`].
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.0.iter().map(|(path, _)| path.as_str())
    }

    /// The `(path, value)` pairs of `doc`: the trimmed, non-empty text
    /// of every element a path selects, in path order.
    pub fn extract(&self, doc: &Document) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for (path, xp) in &self.0 {
            let Some(Ok(nodes)) = xp.as_ref().map(|xp| xp.select_nodes(doc, doc.root())) else {
                continue;
            };
            for n in nodes {
                let value = doc.text_content(n);
                let trimmed = value.trim();
                if !trimmed.is_empty() {
                    out.push((path.clone(), trimmed.to_string()));
                }
            }
        }
        out
    }
}

/// Content-addressed repository of XML objects with metadata search.
///
/// ```
/// use up2p_store::{Query, Repository};
/// use up2p_xml::Document;
///
/// let mut repo = Repository::new();
/// let doc = Document::parse(
///     "<pattern><name>Observer</name><category>behavioral</category></pattern>",
/// )?;
/// let id = repo.insert_doc("patterns", doc, &["pattern/name".into(), "pattern/category".into()]);
/// let hits = repo.search(Some("patterns"), &Query::any_keyword("observer"));
/// assert_eq!(hits[0].id, id);
/// # Ok::<(), up2p_store::StoreError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Repository {
    objects: BTreeMap<ResourceId, StoredObject>,
    index: MetadataIndex,
}

impl Repository {
    /// Creates an empty repository.
    pub fn new() -> Self {
        Self::default()
    }

    /// Extracts the values of the given field paths from an object
    /// document. A path `pattern/name` selects every `/pattern/name`
    /// element's text content.
    pub fn extract_fields(doc: &Document, paths: &[String]) -> Vec<(String, String)> {
        FieldPaths::new(paths).extract(doc)
    }

    /// Inserts a parsed object document.
    pub fn insert_doc(
        &mut self,
        community: &str,
        doc: Document,
        index_paths: &[String],
    ) -> ResourceId {
        let fields = Self::extract_fields(&doc, index_paths);
        self.insert_with_fields(community, doc, fields)
    }

    /// Inserts with pre-extracted fields (used by the indexer-stylesheet
    /// path, where the community's filter stylesheet chose the fields).
    /// The document is serialised and dropped.
    pub fn insert_with_fields(
        &mut self,
        community: &str,
        doc: Document,
        fields: impl Into<SharedFields>,
    ) -> ResourceId {
        self.insert_canonical(community, doc.to_xml_string(), fields)
    }

    /// Inserts an object's canonical XML — the XML writer's output, which
    /// the id hashes as given — with pre-extracted fields. The servent's
    /// publish path serialises once and shares one `Arc` between the
    /// repository, the index and the published network record.
    pub fn insert_canonical(
        &mut self,
        community: &str,
        xml: String,
        fields: impl Into<SharedFields>,
    ) -> ResourceId {
        let id = ResourceId::for_object(community, &xml);
        self.admit(id, community, xml, fields.into(), None)
    }

    /// The one write path: `id` is [`ResourceId::for_object`] of
    /// `community` and the canonical `xml`, hashed once by the caller
    /// (recovery has it from keying its live set). With `prep` — the
    /// fields' pre-tokenized form, see [`crate::prepare_fields`] — the
    /// index posts without running the tokenizer.
    pub(crate) fn admit(
        &mut self,
        id: ResourceId,
        community: &str,
        xml: String,
        fields: SharedFields,
        prep: Option<&[PreparedField]>,
    ) -> ResourceId {
        match prep {
            Some(prep) => self.index.insert_tokenized(id.clone(), fields.clone(), prep),
            None => self.index.insert_shared(id.clone(), fields.clone()),
        };
        let obj = StoredObject { id: id.clone(), community: community.to_string(), xml, fields };
        self.objects.insert(id.clone(), obj);
        id
    }

    /// Fetches an object by id.
    pub fn get(&self, id: &ResourceId) -> Option<&StoredObject> {
        self.objects.get(id)
    }

    /// `true` when the id is stored locally.
    pub fn contains(&self, id: &ResourceId) -> bool {
        self.objects.contains_key(id)
    }

    /// Removes an object, returning it if present.
    pub fn remove(&mut self, id: &ResourceId) -> Option<StoredObject> {
        let obj = self.objects.remove(id)?;
        self.index.remove(id);
        Some(obj)
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// `true` when no objects are stored.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// All stored objects, in id order.
    pub fn iter(&self) -> impl Iterator<Item = &StoredObject> {
        self.objects.values()
    }

    /// Runs a metadata query, optionally restricted to a community.
    /// Results are in id order (deterministic).
    pub fn search(&self, community: Option<&str>, query: &Query) -> Vec<&StoredObject> {
        let ids = self.index.execute(query);
        ids.iter()
            .filter_map(|id| self.objects.get(id))
            .filter(|o| community.is_none_or(|c| o.community == c))
            .collect()
    }

    /// Index size statistics (experiment E7).
    pub fn index_stats(&self) -> IndexStats {
        self.index.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OBSERVER: &str = "<pattern><name>Observer</name><category>behavioral</category>\
                            <intent>notify dependents automatically</intent></pattern>";
    const FACTORY: &str = "<pattern><name>Abstract Factory</name><category>creational</category>\
                           <intent>families of related objects</intent></pattern>";

    fn paths() -> Vec<String> {
        vec!["pattern/name".into(), "pattern/category".into(), "pattern/intent".into()]
    }

    fn insert(r: &mut Repository, community: &str, xml: &str, paths: &[String]) -> ResourceId {
        r.insert_doc(community, Document::parse(xml).unwrap(), paths)
    }

    /// The value of an object's `pattern/name` field.
    fn name(o: &StoredObject) -> &str {
        &o.fields[0].1
    }

    fn sample() -> Repository {
        let mut r = Repository::new();
        insert(&mut r, "patterns", OBSERVER, &paths());
        insert(&mut r, "patterns", FACTORY, &paths());
        insert(
            &mut r,
            "songs",
            "<song><title>So What</title><artist>Miles Davis</artist></song>",
            &["song/title".into(), "song/artist".into()],
        );
        r
    }

    #[test]
    fn insert_is_idempotent_and_content_addressed() {
        let mut r = Repository::new();
        let a = insert(&mut r, "patterns", OBSERVER, &paths());
        let b = insert(&mut r, "patterns", OBSERVER, &paths());
        assert_eq!(a, b);
        assert_eq!(r.len(), 1);
        // whitespace differences do not change identity (canonical form)
        let c = insert(
            &mut r,
            "patterns",
            "<pattern><name>Observer</name><category>behavioral</category><intent>notify dependents automatically</intent></pattern>",
            &paths(),
        );
        assert_eq!(a, c);
    }

    #[test]
    fn search_scoped_by_community() {
        let r = sample();
        let hits = r.search(Some("patterns"), &Query::any_keyword("observer"));
        assert_eq!(hits.len(), 1);
        assert_eq!(name(hits[0]), "Observer");
        // "miles" is in songs, not patterns
        assert!(r.search(Some("patterns"), &Query::any_keyword("miles")).is_empty());
        assert_eq!(r.search(None, &Query::any_keyword("miles")).len(), 1);
    }

    #[test]
    fn cmip_search() {
        let r = sample();
        let filter = crate::parse_cmip("(&(category=creational)(name=*factory*))").unwrap();
        let hits = r.search(Some("patterns"), &filter);
        assert_eq!(hits.len(), 1);
        assert_eq!(name(hits[0]), "Abstract Factory");
    }

    #[test]
    fn remove_updates_all_structures() {
        let mut r = sample();
        let id = r.search(Some("patterns"), &Query::any_keyword("observer"))[0].id.clone();
        let removed = r.remove(&id).unwrap();
        assert_eq!(name(&removed), "Observer");
        assert!(r.get(&id).is_none());
        assert!(r.search(None, &Query::any_keyword("observer")).is_empty());
        assert!(r.remove(&id).is_none());
    }

    #[test]
    fn extract_fields_pulls_text() {
        let doc = Document::parse(OBSERVER).unwrap();
        let fields = Repository::extract_fields(&doc, &paths());
        assert_eq!(fields.len(), 3);
        assert_eq!(fields[0], ("pattern/name".to_string(), "Observer".to_string()));
    }

    #[test]
    fn extract_fields_handles_repeats_and_missing() {
        let doc = Document::parse(
            "<song><tag>jazz</tag><tag>modal</tag></song>",
        )
        .unwrap();
        let fields =
            Repository::extract_fields(&doc, &["song/tag".into(), "song/absent".into()]);
        assert_eq!(fields.len(), 2);
        assert_eq!(fields[0].1, "jazz");
        assert_eq!(fields[1].1, "modal");
    }

    #[test]
    fn persistence_round_trip() {
        use crate::durable::DurableRepository;
        let r = sample();
        let dir = std::env::temp_dir().join(format!("up2p-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        DurableRepository::save_snapshot(&r, &dir).unwrap();
        let (loaded, _) = DurableRepository::recover(&dir).unwrap();
        assert_eq!(loaded.len(), r.len());
        // same ids, same search results
        let hits = loaded.search(Some("patterns"), &Query::any_keyword("factory"));
        assert_eq!(hits.len(), 1);
        assert_eq!(name(hits[0]), "Abstract Factory");
        let ids_before: Vec<_> = r.iter().map(|o| o.id.clone()).collect();
        let ids_after: Vec<_> = loaded.iter().map(|o| o.id.clone()).collect();
        assert_eq!(ids_before, ids_after);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn index_stats_exposed() {
        let r = sample();
        assert_eq!(r.index_stats().objects, 3);
    }
}
