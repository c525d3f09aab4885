//! Communities: a schema plus stylesheets, *itself shareable as an
//! object* (the paper's central idea).

use crate::cache::CompileCache;
use crate::error::CoreError;
use crate::forms::{form_fields, FormField, FormKind};
use crate::object::Attachment;
use crate::root::{ROOT_COMMUNITY_ID, ROOT_SCHEMA_XSD};
use std::sync::{Arc, OnceLock};
use up2p_schema::{leaf_fields, parse_schema_str, searchable_fields, Schema, SchemaBuilder};
use up2p_store::{FieldPaths, ResourceId};
use up2p_xml::{Document, ElementBuilder, NodeId};

/// Everything that depends on a community's XSD alone: the parsed
/// schema and the lists the servent used to re-derive from it on every
/// call. Compiled once per distinct schema text by the [`SchemaCache`]
/// and shared by every community that carries that text.
#[derive(Debug)]
pub struct CompiledSchema {
    /// The parsed schema.
    pub schema: Arc<Schema>,
    /// Create-form fields: every leaf, in schema order.
    create_fields: Vec<FormField>,
    /// Search-form fields: the searchable leaves.
    search_fields: Vec<FormField>,
    /// The searchable paths — what the community indexes — with their
    /// selections parsed.
    pub(crate) indexed: FieldPaths,
}

impl CompiledSchema {
    fn derive(schema: Arc<Schema>) -> CompiledSchema {
        let searchable = searchable_fields(&schema);
        let indexed: Vec<String> = searchable.iter().map(|f| f.path.clone()).collect();
        CompiledSchema {
            create_fields: form_fields(&leaf_fields(&schema), FormKind::Create),
            search_fields: form_fields(&searchable, FormKind::Search),
            indexed: FieldPaths::new(&indexed),
            schema,
        }
    }

    /// The fields of the form of the given kind.
    pub(crate) fn form_fields(&self, kind: FormKind) -> &[FormField] {
        match kind {
            FormKind::Create => &self.create_fields,
            FormKind::Search => &self.search_fields,
        }
    }
}

/// Compile-once schema store: the [`CompileCache`] from XSD *source
/// text* to its [`CompiledSchema`], so joining a community whose schema
/// this process has seen before parses nothing.
pub type SchemaCache = CompileCache<Box<str>, Arc<CompiledSchema>>;

impl SchemaCache {
    /// The process-wide cache every [`Community`] constructor goes
    /// through.
    pub fn global() -> &'static SchemaCache {
        static GLOBAL: OnceLock<SchemaCache> = OnceLock::new();
        GLOBAL.get_or_init(CompileCache::new)
    }

    /// Returns the compiled schema for `xsd`, parsing and caching it on
    /// first sight.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Schema`] when the XSD does not parse (nothing
    /// is cached in that case).
    pub fn get(&self, xsd: &str) -> Result<Arc<CompiledSchema>, CoreError> {
        self.get_or_compile(xsd, || {
            Ok(Arc::new(CompiledSchema::derive(Arc::new(parse_schema_str(xsd)?))))
        })
    }
}

/// The id of the community whose object is `doc`. Identity comes from the
/// object document itself, so it matches the publisher's id regardless of
/// which stylesheets a joining peer manages to resolve.
fn object_id(doc: &Document) -> String {
    ResourceId::for_object(ROOT_COMMUNITY_ID, &doc.to_xml_string()).to_string()
}

/// A resource-sharing community: identity, descriptive metadata, the
/// shared-object schema, and optional custom stylesheets.
///
/// "In the context of U-P2P a community is defined by a schema and a set
/// of stylesheets" (§IV-A). The descriptive fields mirror Fig. 3.
#[derive(Debug, Clone)]
pub struct Community {
    /// Stable identifier — the content hash of the community object in
    /// the root community (or [`ROOT_COMMUNITY_ID`] for the root itself).
    pub id: String,
    /// Display name (`community/name`).
    pub name: String,
    /// Purpose description.
    pub description: String,
    /// Space-separated search keywords.
    pub keywords: String,
    /// Category label.
    pub category: String,
    /// Security note (paper: "not implemented today"; carried verbatim).
    pub security: String,
    /// Underlying protocol: `""`, `Napster`, `Gnutella` or `FastTrack`.
    pub protocol: String,
    /// The shared-object schema, as XSD text (travels with the community
    /// object as an attachment).
    pub schema_xsd: String,
    /// The parsed schema, shared with every community of the same XSD.
    pub schema: Arc<Schema>,
    /// Custom view stylesheet (XSLT text), `None` = default.
    pub display_style: Option<String>,
    /// Custom create-form stylesheet.
    pub create_style: Option<String>,
    /// Custom search-form stylesheet.
    pub search_style: Option<String>,
    /// Custom indexed-attribute filter stylesheet (Fig. 1's fourth
    /// stylesheet).
    pub index_style: Option<String>,
    /// The parts compiled with `schema`; read through
    /// [`Community::compiled`].
    compiled: Arc<CompiledSchema>,
}

impl Community {
    /// Creates a community from descriptive metadata and its schema text.
    /// The id is derived from the community object's canonical XML, so
    /// equal definitions get equal ids on every peer.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Schema`] when the XSD does not parse.
    pub fn new(
        name: &str,
        description: &str,
        keywords: &str,
        category: &str,
        protocol: &str,
        schema_xsd: &str,
    ) -> Result<Community, CoreError> {
        let mut c = Community {
            name: name.to_string(),
            description: description.to_string(),
            keywords: keywords.to_string(),
            category: category.to_string(),
            protocol: protocol.to_string(),
            ..Community::of_schema(schema_xsd)?
        };
        c.id = c.derive_id();
        Ok(c)
    }

    /// A community of the given schema text — compiled on first sight of
    /// that text, shared afterwards — with every other field blank.
    fn of_schema(schema_xsd: &str) -> Result<Community, CoreError> {
        let compiled = SchemaCache::global().get(schema_xsd)?;
        Ok(Community {
            id: String::new(),
            name: String::new(),
            description: String::new(),
            keywords: String::new(),
            category: String::new(),
            security: String::new(),
            protocol: String::new(),
            schema_xsd: schema_xsd.to_string(),
            schema: Arc::clone(&compiled.schema),
            display_style: None,
            create_style: None,
            search_style: None,
            index_style: None,
            compiled,
        })
    }

    /// Creates a community directly from a [`SchemaBuilder`] — the
    /// paper's schema-generator tool flow: describe fields, get a
    /// community.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Schema`] if the generated XSD fails to
    /// re-parse (a builder bug; should not happen).
    pub fn from_builder(
        name: &str,
        description: &str,
        keywords: &str,
        category: &str,
        protocol: &str,
        builder: &SchemaBuilder,
    ) -> Result<Community, CoreError> {
        Community::new(name, description, keywords, category, protocol, &builder.to_xsd())
    }

    /// The built-in root community (Fig. 3 schema, fixed id).
    pub fn root() -> Community {
        Community {
            id: ROOT_COMMUNITY_ID.to_string(),
            name: "Root Community".to_string(),
            description: "The community-sharing community that bootstraps U-P2P: \
                          its objects describe other communities."
                .to_string(),
            keywords: "community discovery bootstrap metaclass".to_string(),
            category: "meta".to_string(),
            ..Community::of_schema(ROOT_SCHEMA_XSD)
                // panic-ok: compile-time literal XSD of the root community; validated by the crate's own tests, a parse failure is a build defect
                .expect("the paper's Fig. 3 schema always parses")
        }
    }

    /// Attaches a custom view stylesheet (re-deriving the identity: the
    /// community object embeds stylesheet URIs).
    pub fn with_display_style(mut self, xslt: impl Into<String>) -> Self {
        self.display_style = Some(xslt.into());
        self.id = self.derive_id();
        self
    }

    /// Attaches a custom create-form stylesheet.
    pub fn with_create_style(mut self, xslt: impl Into<String>) -> Self {
        self.create_style = Some(xslt.into());
        self.id = self.derive_id();
        self
    }

    /// Attaches a custom search-form stylesheet.
    pub fn with_search_style(mut self, xslt: impl Into<String>) -> Self {
        self.search_style = Some(xslt.into());
        self.id = self.derive_id();
        self
    }

    /// Attaches a custom indexed-attribute filter stylesheet. The index
    /// filter is servent-local (Fig. 3 has no field for it), so the
    /// identity does not change.
    pub fn with_index_style(mut self, xslt: impl Into<String>) -> Self {
        self.index_style = Some(xslt.into());
        self
    }

    /// The URI under which this community's schema travels as an
    /// attachment of its community object.
    pub fn schema_uri(&self) -> String {
        Attachment::uri_for(self.schema_xsd.as_bytes())
    }

    /// Renders this community as a community *object* conforming to the
    /// root schema (Fig. 3) — the act that makes communities discoverable
    /// like any other resource.
    pub fn to_object(&self) -> Document {
        let style_uri = |s: &Option<String>, kind: &str| match s {
            Some(text) => Attachment::uri_for(text.as_bytes()),
            None => format!("up2p:default:{kind}"),
        };
        ElementBuilder::new("community")
            .child_text("name", self.name.clone())
            .child_text("description", self.description.clone())
            .child_text("keywords", self.keywords.clone())
            .child_text("category", self.category.clone())
            .child_text("security", self.security.clone())
            .child_text("protocol", self.protocol.clone())
            .child_text("schema", self.schema_uri())
            .child_text("displaystyle", style_uri(&self.display_style, "display"))
            .child_text("createstyle", style_uri(&self.create_style, "create"))
            .child_text("searchstyle", style_uri(&self.search_style, "search"))
            .build()
    }

    /// Reconstructs a community from a downloaded community object plus
    /// its schema attachment — the "join" path of community discovery.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Xml`]/[`CoreError::Schema`] on malformed
    /// pieces, [`CoreError::MissingField`] when the object lacks required
    /// fields.
    pub fn from_object(doc: &Document, schema_xsd: &str) -> Result<Community, CoreError> {
        let no_attachments: &[(&str, &str)] = &[];
        Community::from_verified_object(object_id(doc), doc, schema_xsd, no_attachments)
    }

    /// Like [`Community::from_object`], additionally resolving custom
    /// stylesheets from downloaded attachments by their content URIs.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Community::from_object`].
    pub fn from_object_with_attachments(
        doc: &Document,
        schema_xsd: &str,
        attachments: &[(String, String)],
    ) -> Result<Community, CoreError> {
        Community::from_verified_object(object_id(doc), doc, schema_xsd, attachments)
    }

    /// The one constructor behind both public ones, for a caller that
    /// already holds the object's id: a fetched root-community object's
    /// key is `ResourceId::for_object(ROOT_COMMUNITY_ID, xml)` of the bytes
    /// `doc` was parsed from. Attachments are `(uri, text)` pairs, owned or
    /// borrowed; one named by a style field becomes that stylesheet.
    pub(crate) fn from_verified_object(
        id: String,
        doc: &Document,
        schema_xsd: &str,
        attachments: &[(impl AsRef<str>, impl AsRef<str>)],
    ) -> Result<Community, CoreError> {
        let root = doc
            .document_element()
            .ok_or_else(|| CoreError::MissingField("community".to_string()))?;
        let field = |name: &str| doc.child_named(root, name).map(|n| doc.text_content(n));
        let text = |name: &str| -> Result<String, CoreError> {
            field(name).ok_or_else(|| CoreError::MissingField(name.to_string()))
        };
        let resolve = |name: &str| -> Option<String> {
            let uri = field(name)?;
            if !uri.starts_with("up2p:attachment:") {
                return None;
            }
            let (_, text) = attachments.iter().find(|(u, _)| u.as_ref() == uri)?;
            Some(text.as_ref().to_string())
        };
        let blank = Community::of_schema(schema_xsd)?;
        Ok(Community {
            id,
            name: text("name")?,
            description: text("description")?,
            keywords: text("keywords")?,
            category: text("category")?,
            security: text("security")?,
            protocol: text("protocol")?,
            display_style: resolve("displaystyle"),
            create_style: resolve("createstyle"),
            search_style: resolve("searchstyle"),
            ..blank
        })
    }

    fn derive_id(&self) -> String {
        object_id(&self.to_object())
    }

    /// The root element name instances of this community use.
    pub fn object_root_name(&self) -> &str {
        self.schema.root_element().map(|e| e.name.as_str()).unwrap_or("object")
    }

    /// Validates an instance document against the community schema.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Validation`] listing every problem.
    pub fn validate(&self, doc: &Document) -> Result<(), CoreError> {
        up2p_schema::Validator::new(&self.schema)
            .validate(doc)
            .map_err(CoreError::Validation)
    }

    /// The parts compiled with this community's schema. `schema` is
    /// `pub`: after a swap the handle made at construction describes
    /// another schema, so the parts are derived from the one at hand.
    pub(crate) fn compiled(&self) -> Arc<CompiledSchema> {
        if Arc::ptr_eq(&self.compiled.schema, &self.schema) {
            Arc::clone(&self.compiled)
        } else {
            Arc::new(CompiledSchema::derive(Arc::clone(&self.schema)))
        }
    }

    /// Field paths this community indexes (searchable fields, honoring
    /// the schema's markers with the textual-leaf default).
    pub fn indexed_paths(&self) -> Vec<String> {
        self.compiled().indexed.paths().map(str::to_string).collect()
    }

    /// Attachment field paths of the community schema.
    pub fn attachment_paths(&self) -> Vec<String> {
        let compiled = self.compiled();
        let leaves = compiled.form_fields(FormKind::Create).iter();
        leaves.filter(|f| f.attachment).map(|f| f.path.clone()).collect()
    }

    /// Finds the element holding an attachment URI inside an instance.
    pub fn attachment_nodes(&self, doc: &Document) -> Vec<NodeId> {
        let mut out = Vec::new();
        for path in self.attachment_paths() {
            if let Ok(xp) = up2p_xml::XPath::parse(&format!("/{path}")) {
                if let Ok(nodes) = xp.select_nodes(doc, doc.root()) {
                    out.extend(nodes);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use up2p_schema::{FieldKind, Validator};

    fn song_builder() -> SchemaBuilder {
        let mut b = SchemaBuilder::new("song");
        b.field(FieldKind::text("title").searchable())
            .field(FieldKind::text("artist").searchable())
            .field(FieldKind::uri("audio").attachment());
        b
    }

    #[test]
    fn community_ids_are_deterministic() {
        let a = Community::from_builder("mp3", "songs", "music", "audio", "Gnutella", &song_builder())
            .unwrap();
        let b = Community::from_builder("mp3", "songs", "music", "audio", "Gnutella", &song_builder())
            .unwrap();
        assert_eq!(a.id, b.id);
        let c = Community::from_builder("cml", "songs", "music", "audio", "Gnutella", &song_builder())
            .unwrap();
        assert_ne!(a.id, c.id);
    }

    #[test]
    fn community_object_validates_against_root_schema() {
        let c = Community::from_builder("mp3", "songs", "music", "audio", "Gnutella", &song_builder())
            .unwrap();
        let obj = c.to_object();
        let root = Community::root();
        Validator::new(&root.schema).validate(&obj).unwrap();
    }

    #[test]
    fn community_round_trips_through_its_object() {
        let original =
            Community::from_builder("mp3", "songs", "music jazz", "audio", "FastTrack", &song_builder())
                .unwrap();
        let obj = original.to_object();
        let rebuilt = Community::from_object(&obj, &original.schema_xsd).unwrap();
        assert_eq!(rebuilt.id, original.id, "same object + schema = same identity");
        assert_eq!(rebuilt.name, "mp3");
        assert_eq!(rebuilt.protocol, "FastTrack");
        assert_eq!(rebuilt.keywords, "music jazz");
    }

    #[test]
    fn root_community_is_fixed() {
        let r = Community::root();
        assert_eq!(r.id, ROOT_COMMUNITY_ID);
        assert_eq!(r.object_root_name(), "community");
        // root community indexes its descriptive fields
        let paths = r.indexed_paths();
        assert!(paths.contains(&"community/name".to_string()));
        assert!(paths.contains(&"community/keywords".to_string()));
    }

    #[test]
    fn invalid_schema_rejected() {
        assert!(matches!(
            Community::new("x", "d", "k", "c", "", "<notaschema/>"),
            Err(CoreError::Schema(_))
        ));
    }

    #[test]
    fn validate_delegates_to_schema() {
        let c = Community::from_builder("mp3", "d", "k", "c", "", &song_builder()).unwrap();
        let good = Document::parse(
            "<song><title>t</title><artist>a</artist><audio>u</audio></song>",
        )
        .unwrap();
        assert!(c.validate(&good).is_ok());
        let bad = Document::parse("<song><title>t</title></song>").unwrap();
        assert!(matches!(c.validate(&bad), Err(CoreError::Validation(_))));
    }

    #[test]
    fn indexed_and_attachment_paths() {
        let c = Community::from_builder("mp3", "d", "k", "c", "", &song_builder()).unwrap();
        assert_eq!(c.indexed_paths(), vec!["song/title", "song/artist"]);
        assert_eq!(c.attachment_paths(), vec!["song/audio"]);
        let doc = Document::parse(
            "<song><title>t</title><artist>a</artist><audio>up2p:attachment:abc</audio></song>",
        )
        .unwrap();
        assert_eq!(c.attachment_nodes(&doc).len(), 1);
    }

    #[test]
    fn custom_stylesheets_change_object_uris() {
        let base = Community::from_builder("mp3", "d", "k", "c", "", &song_builder()).unwrap();
        let styled = Community::from_builder("mp3", "d", "k", "c", "", &song_builder())
            .unwrap()
            .with_display_style("<xsl:stylesheet/>");
        let base_obj = base.to_object();
        let styled_obj = styled.to_object();
        assert_ne!(base_obj.to_xml_string(), styled_obj.to_xml_string());
        assert!(base_obj.to_xml_string().contains("up2p:default:display"));
        assert!(styled_obj.to_xml_string().contains("up2p:attachment:"));
    }

    #[test]
    fn equal_schema_text_shares_one_parsed_schema() {
        let a = Community::from_builder("mp3", "d", "k", "c", "", &song_builder()).unwrap();
        let b = Community::from_builder("other", "d", "k", "c", "", &song_builder()).unwrap();
        assert_ne!(a.id, b.id);
        assert!(Arc::ptr_eq(&a.schema, &b.schema), "the second community parsed nothing");
        let rebuilt = Community::from_object(&a.to_object(), &a.schema_xsd).unwrap();
        assert!(Arc::ptr_eq(&a.schema, &rebuilt.schema));
    }

    #[test]
    fn swapped_schema_is_the_one_compiled_parts_describe() {
        let mut c = Community::from_builder("mp3", "d", "k", "c", "", &song_builder()).unwrap();
        let mut other = SchemaBuilder::new("clip");
        other.field(FieldKind::text("caption").searchable());
        c.schema = Arc::new(other.build());
        assert_eq!(c.indexed_paths(), vec!["clip/caption"]);
        assert_eq!(c.attachment_paths(), Vec::<String>::new());
    }

    fn numbered_xsd(i: usize) -> String {
        let mut b = SchemaBuilder::new(format!("item{i}"));
        b.field(FieldKind::text("title").searchable()).field(FieldKind::integer("year"));
        b.to_xsd()
    }

    #[test]
    fn schema_cache_converges_under_racing_gets() {
        let cache = SchemaCache::new();
        let xsd = numbered_xsd(0);
        crate::cache::tests::assert_racing_gets_converge(&cache, || cache.get(&xsd).unwrap());
    }

    #[test]
    fn schema_cache_never_stores_broken_schemas() {
        let cache = SchemaCache::new();
        assert!(matches!(cache.get("<notaschema/>"), Err(CoreError::Schema(_))));
        assert!(cache.get("<notaschema/>").is_err(), "error repeats, not cached away");
        assert!(cache.is_empty());
    }

    #[test]
    fn evicted_schema_recompiles_to_one_that_behaves_the_same() {
        let cache = SchemaCache::new();
        let first = cache.get(&numbered_xsd(0)).unwrap();
        for i in 1..=crate::CAPACITY {
            cache.get(&numbered_xsd(i)).unwrap();
        }
        assert_eq!(cache.len(), crate::CAPACITY, "one over capacity evicted one");
        let again = cache.get(&numbered_xsd(0)).unwrap();
        assert!(!Arc::ptr_eq(&first, &again), "schema 0 was evicted and parsed again");
        assert_eq!(again.schema, first.schema);
        assert_eq!(again.create_fields, first.create_fields);
        assert_eq!(again.search_fields, first.search_fields);
        let doc = Document::parse("<item0><title>So What</title><year>1959</year></item0>").unwrap();
        assert!(Validator::new(&again.schema).validate(&doc).is_ok());
        assert_eq!(again.indexed.extract(&doc), first.indexed.extract(&doc));
        assert_eq!(again.indexed.extract(&doc), vec![("item0/title".into(), "So What".into())]);
    }

    #[test]
    fn missing_fields_detected_on_join() {
        let doc = Document::parse("<community><name>x</name></community>").unwrap();
        assert!(matches!(
            Community::from_object(&doc, ROOT_SCHEMA_XSD),
            Err(CoreError::MissingField(_))
        ));
    }
}
