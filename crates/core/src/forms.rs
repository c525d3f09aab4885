//! Schema-derived form models — the Creation and Search Functions of
//! Fig. 1/2.
//!
//! The schema is interpreted once into a [`FormModel`] (an XML document of
//! `<form>`/`<field>` elements); XSLT stylesheets then render that model
//! to HTML. Splitting interpretation (Rust) from presentation (XSLT)
//! keeps the paper's pipeline — "XSLT stylesheets render screens for
//! creating, viewing and searching" — while letting the searchable-field
//! rules live in one place.
//!
//! Both steps are pure functions of the community's definition, so each
//! runs once per definition: the field lists are compiled with the
//! schema ([`crate::CompiledSchema`]) and the rendered pages
//! are kept in the [`FormCache`].

use crate::cache::{bucket_hash, CacheKey, CompileCache, Slot, BUCKET_SEED};
use crate::community::Community;
use crate::error::CoreError;
use crate::stylesheets;
use std::sync::Arc;
use up2p_schema::{BuiltinType, Field, Schema, ValidationError, ValidationErrorKind};
use up2p_xml::{Document, ElementBuilder};
use up2p_xslt::Stylesheet;

/// Which function the form serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FormKind {
    /// Object creation: every leaf field appears.
    Create,
    /// Search: only searchable fields appear.
    Search,
}

/// Input widget chosen for a field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InputKind {
    /// Free text.
    Text,
    /// Numeric input.
    Number,
    /// URI input.
    Uri,
    /// Date input.
    Date,
    /// Boolean checkbox.
    Checkbox,
    /// Closed vocabulary dropdown.
    Select(Vec<String>),
}

/// One form field derived from a schema leaf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormField {
    /// Leaf element name.
    pub name: String,
    /// Full slash path from the object root.
    pub path: String,
    /// Chosen widget.
    pub input: InputKind,
    /// Required on create forms (`minOccurs > 0`).
    pub required: bool,
    /// May repeat (`maxOccurs > 1`).
    pub repeated: bool,
    /// Holds an attachment URI.
    pub attachment: bool,
}

/// A form derived from a community schema.
#[derive(Debug, Clone, PartialEq)]
pub struct FormModel {
    /// Community id the form belongs to.
    pub community_id: String,
    /// Community display name.
    pub community_name: String,
    /// Create or search.
    pub kind: FormKind,
    /// Fields in schema order.
    pub fields: Vec<FormField>,
}

fn input_for(field: &Field) -> InputKind {
    if !field.enumeration.is_empty() {
        return InputKind::Select(field.enumeration.clone());
    }
    match field.base {
        BuiltinType::Boolean => InputKind::Checkbox,
        b if b.is_numeric() => InputKind::Number,
        BuiltinType::AnyUri => InputKind::Uri,
        BuiltinType::Date | BuiltinType::DateTime | BuiltinType::GYear => InputKind::Date,
        _ => InputKind::Text,
    }
}

/// The form fields of schema leaves, in the given order.
pub(crate) fn form_fields(fields: &[Field], kind: FormKind) -> Vec<FormField> {
    fields
        .iter()
        .map(|f| FormField {
            name: f.name.clone(),
            path: f.path.clone(),
            input: input_for(f),
            required: !f.optional && kind == FormKind::Create,
            repeated: f.repeated,
            attachment: f.attachment,
        })
        .collect()
}

impl FormModel {
    /// Derives a form of the given kind from a community's schema.
    pub fn derive(community: &Community, kind: FormKind) -> FormModel {
        FormModel {
            community_id: community.id.clone(),
            community_name: community.name.clone(),
            kind,
            fields: community.compiled().form_fields(kind).to_vec(),
        }
    }

    /// Serializes the form model as XML — the document the create/search
    /// stylesheets transform into HTML.
    pub fn to_document(&self) -> Document {
        let mut form = ElementBuilder::new("form")
            .attr("community", self.community_id.clone())
            .attr("communityname", self.community_name.clone())
            .attr(
                "kind",
                match self.kind {
                    FormKind::Create => "create",
                    FormKind::Search => "search",
                },
            );
        for f in &self.fields {
            let mut fe = ElementBuilder::new("field")
                .attr("name", f.name.clone())
                .attr("path", f.path.clone())
                .attr(
                    "input",
                    match &f.input {
                        InputKind::Text => "text",
                        InputKind::Number => "number",
                        InputKind::Uri => "uri",
                        InputKind::Date => "date",
                        InputKind::Checkbox => "checkbox",
                        InputKind::Select(_) => "select",
                    },
                );
            if f.required {
                fe = fe.attr("required", "true");
            }
            if f.repeated {
                fe = fe.attr("repeated", "true");
            }
            if f.attachment {
                fe = fe.attr("attachment", "true");
            }
            if let InputKind::Select(options) = &f.input {
                for o in options {
                    fe = fe.child(ElementBuilder::new("option").text(o.clone()));
                }
            }
            form = form.child(fe);
        }
        form.build()
    }

    /// Builds an object document from filled-in form values, in schema
    /// order. `values` maps a field *path or leaf name* to one or more
    /// values (repeated fields supply several entries).
    ///
    /// Nested paths create the intermediate elements. The result is
    /// validated by the caller ([`crate::Servent::create_object`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MissingField`] when a required field has no
    /// value.
    pub fn fill(
        &self,
        root_name: &str,
        values: &[(&str, &str)],
    ) -> Result<Document, CoreError> {
        fill_fields(&self.fields, root_name, values)
    }
}

/// [`FormModel::fill`] over the fields alone — all it reads of a model.
pub(crate) fn fill_fields(
    fields: &[FormField],
    root_name: &str,
    values: &[(&str, &str)],
) -> Result<Document, CoreError> {
    let mut doc = Document::new();
    let root = doc.create_element(
        root_name.parse().unwrap_or_else(|_| "object".into()),
    );
    let doc_root = doc.root();
    doc.append_child(doc_root, root);
    for field in fields {
        let matched: Vec<&str> = values
            .iter()
            .filter(|(k, _)| *k == field.path || *k == field.name)
            .map(|(_, v)| *v)
            .collect();
        if matched.is_empty() {
            if field.required {
                return Err(CoreError::MissingField(field.path.clone()));
            }
            continue;
        }
        // create intermediate elements for nested paths (skip the
        // root segment, it already exists)
        for value in matched {
            let mut parent = root;
            let segments: Vec<&str> = field.path.split('/').skip(1).collect();
            for (i, seg) in segments.iter().enumerate() {
                let last = i == segments.len() - 1;
                if !last {
                    if let Some(existing) = doc.child_named(parent, seg) {
                        parent = existing;
                        continue;
                    }
                }
                // the segment is a name out of the community's schema,
                // which another peer wrote
                let name = seg.parse().map_err(|_| {
                    CoreError::Validation(vec![ValidationError {
                        path: field.path.clone(),
                        kind: ValidationErrorKind::ContentModel(format!("{seg:?} is not an element name")),
                    }])
                })?;
                let el = doc.create_element(name);
                doc.append_child(parent, el);
                if last {
                    let t = doc.create_text(value);
                    doc.append_child(el, t);
                } else {
                    parent = el;
                }
            }
        }
    }
    Ok(doc)
}

/// Rendered form pages, one per distinct [`FormKey`].
pub type FormCache = CompileCache<FormKey, Arc<str>>;

impl FormCache {
    /// The calling thread's cache behind [`crate::Servent::create_form_html`]
    /// and [`crate::Servent::search_form_html`].
    pub fn global() -> &'static FormCache {
        thread_local!(static ENTRIES: Slot<FormKey, Arc<str>> = Slot::default());
        static GLOBAL: FormCache = CompileCache::new(&ENTRIES);
        &GLOBAL
    }

    /// Returns the HTML form of `kind` for a community, through its
    /// create or search stylesheet (or the default): derived and
    /// rendered on first sight of these inputs, the same page afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Stylesheet`] when the stylesheet fails to
    /// compile or apply (nothing is cached in that case).
    pub fn get(&self, community: &Community, kind: FormKind) -> Result<Arc<str>, CoreError> {
        let style = match kind {
            FormKind::Create => &community.create_style,
            FormKind::Search => &community.search_style,
        };
        let sheet = stylesheets::form_sheet(style.as_deref())?;
        self.get_or_compile(&FormInputs { community, kind, sheet: &sheet }, || {
            let doc = FormModel::derive(community, kind).to_document();
            Ok(sheet.apply_to_string(&doc)?.into())
        })
    }
}

/// Everything a rendered form page is a function of: the identity the
/// form document embeds, the kind, and the parsed schema and compiled
/// stylesheet it was made from. The two handles are kept alive by the
/// entry, so an equal pointer is the same immutable value — never an id
/// or a URI standing in for one.
#[derive(Debug)]
pub struct FormKey {
    id: String,
    name: String,
    kind: FormKind,
    schema: Arc<Schema>,
    sheet: Arc<Stylesheet>,
}

/// The borrowed form of a [`FormKey`]: a community as it stands now —
/// its fields are `pub` — and the sheet its style text compiles to.
struct FormInputs<'a> {
    community: &'a Community,
    kind: FormKind,
    sheet: &'a Arc<Stylesheet>,
}

impl CacheKey for FormInputs<'_> {
    type Stored = FormKey;

    fn bucket(&self) -> u64 {
        let hash = bucket_hash(BUCKET_SEED, self.community.id.as_bytes());
        let hash = bucket_hash(hash, &[self.kind as u8]);
        bucket_hash(hash, self.community.name.as_bytes())
    }

    fn matches(&self, stored: &FormKey) -> bool {
        stored.kind == self.kind
            && stored.id == self.community.id
            && stored.name == self.community.name
            && Arc::ptr_eq(&stored.schema, self.community.schema())
            && Arc::ptr_eq(&stored.sheet, self.sheet)
    }

    fn to_stored(&self) -> FormKey {
        FormKey {
            id: self.community.id.clone(),
            name: self.community.name.clone(),
            kind: self.kind,
            schema: Arc::clone(self.community.schema()),
            sheet: Arc::clone(self.sheet),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use up2p_schema::{FieldKind, SchemaBuilder};

    /// A cache of this test's own: each test runs on a thread of its own.
    fn own_cache() -> FormCache {
        thread_local!(static ENTRIES: Slot<FormKey, Arc<str>> = Slot::default());
        CompileCache::new(&ENTRIES)
    }

    fn community() -> Community {
        let mut b = SchemaBuilder::new("song");
        b.field(FieldKind::text("title").searchable())
            .field(FieldKind::enumeration("genre", ["rock", "jazz"]).searchable())
            .field(FieldKind::integer("year").optional())
            .field(FieldKind::boolean("live").optional())
            .field(FieldKind::text("tag").optional().repeated())
            .field(FieldKind::uri("audio").attachment());
        Community::from_builder("mp3", "d", "k", "c", "", &b).unwrap()
    }

    #[test]
    fn create_form_lists_all_fields() {
        let c = community();
        let form = FormModel::derive(&c, FormKind::Create);
        assert_eq!(form.fields.len(), 6);
        assert!(form.fields[0].required);
        assert!(!form.fields[2].required, "optional year");
        assert!(form.fields[4].repeated);
        assert!(form.fields[5].attachment);
        assert_eq!(form.fields[1].input, InputKind::Select(vec!["rock".into(), "jazz".into()]));
        assert_eq!(form.fields[2].input, InputKind::Number);
        assert_eq!(form.fields[3].input, InputKind::Checkbox);
        assert_eq!(form.fields[5].input, InputKind::Uri);
    }

    #[test]
    fn search_form_lists_searchable_only() {
        let c = community();
        let form = FormModel::derive(&c, FormKind::Search);
        let names: Vec<&str> = form.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["title", "genre"]);
        assert!(form.fields.iter().all(|f| !f.required), "search fields never required");
    }

    #[test]
    fn form_document_shape() {
        let c = community();
        let doc = FormModel::derive(&c, FormKind::Create).to_document();
        let root = doc.document_element().unwrap();
        assert_eq!(doc.local_name(root), Some("form"));
        assert_eq!(doc.attr(root, "kind"), Some("create"));
        assert_eq!(doc.children_named(root, "field").count(), 6);
        // select options serialized
        let genre = doc
            .children_named(root, "field")
            .find(|&f| doc.attr(f, "name") == Some("genre"))
            .unwrap();
        assert_eq!(doc.children_named(genre, "option").count(), 2);
    }

    #[test]
    fn fill_builds_valid_instances() {
        let c = community();
        let form = FormModel::derive(&c, FormKind::Create);
        let doc = form
            .fill(
                "song",
                &[
                    ("title", "So What"),
                    ("genre", "jazz"),
                    ("tag", "modal"),
                    ("tag", "1959"),
                    ("audio", "up2p:attachment:x"),
                ],
            )
            .unwrap();
        c.validate(&doc).unwrap();
        assert_eq!(
            doc.to_xml_string(),
            "<song><title>So What</title><genre>jazz</genre><tag>modal</tag>\
             <tag>1959</tag><audio>up2p:attachment:x</audio></song>"
        );
    }

    #[test]
    fn fill_rejects_missing_required() {
        let c = community();
        let form = FormModel::derive(&c, FormKind::Create);
        let err = form.fill("song", &[("genre", "jazz")]).unwrap_err();
        assert!(matches!(err, CoreError::MissingField(p) if p == "song/title"));
    }

    const CUSTOM_FORM: &str = r#"<xsl:stylesheet version="1.0"
        xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
      <xsl:template match="/form"><h1><xsl:value-of select="@communityname"/>:<xsl:value-of
        select="count(field)"/></h1></xsl:template>
    </xsl:stylesheet>"#;

    /// What the cache must equal: the uncached pipeline, spelled out.
    fn fresh(c: &Community, kind: FormKind) -> String {
        let style = match kind {
            FormKind::Create => &c.create_style,
            FormKind::Search => &c.search_style,
        };
        let doc = FormModel::derive(c, kind).to_document();
        let source = style.as_deref().unwrap_or(stylesheets::DEFAULT_FORM_XSL);
        Stylesheet::parse(source).unwrap().apply_to_string(&doc).unwrap()
    }

    #[test]
    fn page_follows_every_input_it_is_a_function_of() {
        let cache = own_cache();
        let original = community();
        let first = cache.get(&original, FormKind::Create).unwrap();
        assert_eq!(&*first, fresh(&original, FormKind::Create));

        // each `pub` field the page depends on, changed under the same id
        let mut renamed = original.clone();
        renamed.name = "renamed".into();
        let mut restyled = original.clone();
        restyled.create_style = Some(CUSTOM_FORM.into());
        for changed in [&renamed, &restyled] {
            let page = cache.get(changed, FormKind::Create).unwrap();
            assert_ne!(page, first, "a stale page was served");
            assert_eq!(&*page, fresh(changed, FormKind::Create));
        }
        assert_eq!(&*cache.get(&restyled, FormKind::Create).unwrap(), "<h1>mp3:6</h1>");
        // the search form is its own entry even where the style is shared
        assert_eq!(&*cache.get(&original, FormKind::Search).unwrap(), fresh(&original, FormKind::Search));
        assert_eq!(cache.len(), 4);

        // and the unchanged community is still a hit
        let again = cache.get(&original, FormKind::Create).unwrap();
        assert!(Arc::ptr_eq(&again, &first));
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn form_cache_never_stores_pages_of_broken_stylesheets() {
        let cache = own_cache();
        let mut c = community();
        c.search_style = Some("<not-xslt/>".into());
        assert!(matches!(cache.get(&c, FormKind::Search), Err(CoreError::Stylesheet(_))));
        assert!(cache.get(&c, FormKind::Search).is_err(), "error repeats, not cached away");
        assert!(cache.is_empty());
        assert!(cache.get(&c, FormKind::Create).is_ok(), "the create form has its own style");
    }

    #[test]
    fn fill_handles_nested_paths() {
        let mut b = SchemaBuilder::new("pattern");
        b.field(FieldKind::text("name"))
            .field(FieldKind::nested("solution", [FieldKind::text("structure")]));
        let c = Community::from_builder("p", "d", "k", "c", "", &b).unwrap();
        let form = FormModel::derive(&c, FormKind::Create);
        let doc = form
            .fill("pattern", &[("name", "Observer"), ("pattern/solution/structure", "UML")])
            .unwrap();
        assert_eq!(
            doc.to_xml_string(),
            "<pattern><name>Observer</name><solution><structure>UML</structure></solution></pattern>"
        );
        c.validate(&doc).unwrap();
    }
}
