//! The local object repository — the "database based on Magenta" of the
//! paper's servent, reimplemented as a content-addressed store with the
//! metadata index attached.

use crate::digest::ResourceId;
use crate::error::StoreError;
use crate::index::{IndexStats, MetadataIndex, PreparedField, SharedFields};
use crate::query::Query;
use std::collections::{BTreeMap, BTreeSet};
use up2p_xml::{Document, XPath};

/// A stored shared object: its community, canonical XML, parsed document
/// and the metadata fields that were extracted for indexing.
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
    doc: Document,
}

impl StoredObject {
    /// Builds the object around the canonical XML it is given (`doc`'s
    /// serialization), which also fixes its id.
    fn new(community: String, xml: String, doc: Document, fields: SharedFields) -> Self {
        let id = ResourceId::for_object(&community, &xml);
        StoredObject { id, community, xml, fields, doc }
    }

    /// The parsed object document.
    pub fn document(&self) -> &Document {
        &self.doc
    }

    /// Value of the first field whose path ends in `leaf`, used as a
    /// display title.
    pub fn field(&self, leaf: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(p, _)| crate::query::field_matches(p, leaf))
            .map(|(_, v)| v.as_str())
    }
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
/// use up2p_store::{Repository, Query};
///
/// let mut repo = Repository::new();
/// let id = repo.insert_xml(
///     "patterns",
///     "<pattern><name>Observer</name><category>behavioral</category></pattern>",
///     &["pattern/name".into(), "pattern/category".into()],
/// )?;
/// let hits = repo.search(Some("patterns"), &Query::any_keyword("observer"));
/// assert_eq!(hits[0].id, id);
/// # Ok::<(), up2p_store::StoreError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Repository {
    objects: BTreeMap<ResourceId, StoredObject>,
    by_community: BTreeMap<String, BTreeSet<ResourceId>>,
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

    /// Inserts an object from XML text, extracting and indexing the given
    /// field paths. Returns the content-derived id; inserting the same
    /// object twice is idempotent.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::InvalidXml`] when the text does not parse.
    pub fn insert_xml(
        &mut self,
        community: &str,
        xml: &str,
        index_paths: &[String],
    ) -> Result<ResourceId, StoreError> {
        let doc = Document::parse(xml)?;
        Ok(self.insert_doc(community, doc, index_paths))
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
    /// path, where the community's filter stylesheet chose the fields,
    /// and by the servent's publish path, which shares one `Arc` between
    /// the repository, the index and the published network record).
    pub fn insert_with_fields(
        &mut self,
        community: &str,
        doc: Document,
        fields: impl Into<SharedFields>,
    ) -> ResourceId {
        self.admit(community, doc.to_xml_string(), doc, fields.into(), None)
    }

    /// The one write path: `xml` is `doc`'s canonical
    /// serialization, made once by the caller (the durable store has it
    /// for the WAL record already). With `prep` — the fields'
    /// pre-tokenized form, see [`crate::prepare_fields`] — the index
    /// posts without running the tokenizer.
    pub(crate) fn admit(
        &mut self,
        community: &str,
        xml: String,
        doc: Document,
        fields: SharedFields,
        prep: Option<&[PreparedField]>,
    ) -> ResourceId {
        let obj = StoredObject::new(community.to_string(), xml, doc, fields);
        match prep {
            Some(prep) => self.index.insert_tokenized(obj.id.clone(), obj.fields.clone(), prep),
            None => self.index.insert_shared(obj.id.clone(), obj.fields.clone()),
        };
        self.file(obj)
    }

    /// Files an object under its id and community.
    fn file(&mut self, obj: StoredObject) -> ResourceId {
        let id = obj.id.clone();
        self.by_community.entry(obj.community.clone()).or_default().insert(id.clone());
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
        if let Some(set) = self.by_community.get_mut(&obj.community) {
            set.remove(id);
            if set.is_empty() {
                self.by_community.remove(&obj.community);
            }
        }
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

    /// Communities with at least one object, in sorted order.
    pub fn communities(&self) -> impl Iterator<Item = &str> {
        self.by_community.keys().map(String::as_str)
    }

    /// Ids of all objects in a community.
    pub fn ids_in(&self, community: &str) -> BTreeSet<ResourceId> {
        self.by_community.get(community).cloned().unwrap_or_default()
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

    /// Runs a CMIP-style filter text query.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::InvalidQuery`] when the filter is malformed.
    pub fn search_cmip(
        &self,
        community: Option<&str>,
        filter: &str,
    ) -> Result<Vec<&StoredObject>, StoreError> {
        let q = crate::cmip::parse_cmip(filter)?;
        Ok(self.search(community, &q))
    }

    /// Runs an XPath query against every object document (the "richer
    /// query language" of the paper's future work): an object matches
    /// when the expression evaluates to a truthy value on its document.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::InvalidQuery`] when the expression is
    /// malformed, or on the first object it cannot be evaluated on (an
    /// unbound variable, a non-node-set where a node-set is required).
    pub fn xpath_search(
        &self,
        community: Option<&str>,
        expr: &str,
    ) -> Result<Vec<&StoredObject>, StoreError> {
        let invalid = |e: up2p_xml::XPathError| StoreError::InvalidQuery(e.to_string());
        let xp = XPath::parse(expr).map_err(invalid)?;
        let mut out = Vec::new();
        for obj in self.objects.values() {
            if let Some(c) = community {
                if obj.community != c {
                    continue;
                }
            }
            if xp.eval_root(&obj.doc).map_err(invalid)?.into_bool() {
                out.push(obj);
            }
        }
        Ok(out)
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

    fn sample() -> Repository {
        let mut r = Repository::new();
        r.insert_xml("patterns", OBSERVER, &paths()).unwrap();
        r.insert_xml("patterns", FACTORY, &paths()).unwrap();
        r.insert_xml(
            "songs",
            "<song><title>So What</title><artist>Miles Davis</artist></song>",
            &["song/title".into(), "song/artist".into()],
        )
        .unwrap();
        r
    }

    #[test]
    fn insert_is_idempotent_and_content_addressed() {
        let mut r = Repository::new();
        let a = r.insert_xml("patterns", OBSERVER, &paths()).unwrap();
        let b = r.insert_xml("patterns", OBSERVER, &paths()).unwrap();
        assert_eq!(a, b);
        assert_eq!(r.len(), 1);
        // whitespace differences do not change identity (canonical form)
        let c = r
            .insert_xml(
                "patterns",
                "<pattern><name>Observer</name><category>behavioral</category><intent>notify dependents automatically</intent></pattern>",
                &paths(),
            )
            .unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn search_scoped_by_community() {
        let r = sample();
        let hits = r.search(Some("patterns"), &Query::any_keyword("observer"));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].field("name"), Some("Observer"));
        // "miles" is in songs, not patterns
        assert!(r.search(Some("patterns"), &Query::any_keyword("miles")).is_empty());
        assert_eq!(r.search(None, &Query::any_keyword("miles")).len(), 1);
    }

    #[test]
    fn cmip_search() {
        let r = sample();
        let hits = r.search_cmip(Some("patterns"), "(&(category=creational)(name=*factory*))")
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].field("name"), Some("Abstract Factory"));
        assert!(r.search_cmip(None, "(bad").is_err());
    }

    #[test]
    fn xpath_search_works_per_document() {
        let r = sample();
        let hits = r
            .xpath_search(Some("patterns"), "/pattern[category='behavioral']")
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].field("name"), Some("Observer"));
        let hits = r.xpath_search(None, "//artist[contains(., 'Davis')]").unwrap();
        assert_eq!(hits.len(), 1);
        assert!(r.xpath_search(None, "///").is_err());
    }

    /// An expression that parses but cannot be evaluated is an error, not
    /// "no object matches".
    #[test]
    fn xpath_search_reports_what_it_cannot_evaluate() {
        let r = sample();
        for expr in ["//artist[$v]", "count('a')"] {
            let err = r.xpath_search(None, expr).map(|hits| hits.len()).unwrap_err();
            assert!(matches!(err, StoreError::InvalidQuery(_)), "{expr}: {err}");
        }
    }

    #[test]
    fn remove_updates_all_structures() {
        let mut r = sample();
        let id = r.search(Some("patterns"), &Query::any_keyword("observer"))[0].id.clone();
        let removed = r.remove(&id).unwrap();
        assert_eq!(removed.field("name"), Some("Observer"));
        assert!(r.get(&id).is_none());
        assert!(r.search(None, &Query::any_keyword("observer")).is_empty());
        assert_eq!(r.ids_in("patterns").len(), 1);
        assert!(r.remove(&id).is_none());
    }

    #[test]
    fn communities_listed() {
        let r = sample();
        let cs: Vec<&str> = r.communities().collect();
        assert_eq!(cs, vec!["patterns", "songs"]);
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
        assert_eq!(hits[0].field("name"), Some("Abstract Factory"));
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
