//! Default stylesheets — "U-P2P provides default stylesheets that operate
//! on any community schema, but users are encouraged to create their own"
//! (§IV-A).
//!
//! Four stylesheets per community (Fig. 1): create form, search form,
//! view, and the indexed-attribute filter. The create/search defaults
//! transform the schema-derived form model; the view default transforms
//! the object document itself; the index default is *generated* from the
//! community schema's searchable fields.

use crate::cache::{CompileCache, Slot};
use crate::community::Community;
use crate::error::CoreError;
use std::sync::{Arc, OnceLock};
use up2p_xml::Document;
use up2p_xslt::Stylesheet;

/// Compile-once stylesheet store: the [`CompileCache`] from stylesheet
/// *source text* to its compiled [`Stylesheet`], so the render paths pay
/// XSLT compilation once per distinct sheet instead of once per call.
/// Compiled sheets are shared as `Arc<Stylesheet>` — [`Stylesheet`] is
/// immutable after parse, so every render of a sheet reads the same
/// compiled program.
pub type StylesheetCache = CompileCache<Box<str>, Arc<Stylesheet>>;

impl StylesheetCache {
    /// The calling thread's cache used by [`render_form`],
    /// [`render_view`] and [`apply_index_style`].
    pub fn global() -> &'static StylesheetCache {
        thread_local!(static ENTRIES: Slot<Box<str>, Arc<Stylesheet>> = Slot::default());
        static GLOBAL: StylesheetCache = CompileCache::new(&ENTRIES);
        &GLOBAL
    }

    /// Returns the compiled stylesheet for `source`, compiling and
    /// caching it on first sight.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Stylesheet`] when the source fails to
    /// compile (nothing is cached in that case).
    pub fn get(&self, source: &str) -> Result<Arc<Stylesheet>, CoreError> {
        self.get_or_compile(source, || Ok(Arc::new(Stylesheet::parse(source)?)))
    }
}

/// A default sheet, compiled from `source` on first use and kept in
/// `slot` for the life of the process.
fn default_sheet(
    slot: &OnceLock<Arc<Stylesheet>>,
    source: &str,
) -> Result<Arc<Stylesheet>, CoreError> {
    if let Some(sheet) = slot.get() {
        return Ok(Arc::clone(sheet));
    }
    let parsed = Arc::new(Stylesheet::parse(source)?);
    Ok(Arc::clone(slot.get_or_init(|| parsed)))
}

/// The compiled [`DEFAULT_FORM_XSL`].
static DEFAULT_FORM: OnceLock<Arc<Stylesheet>> = OnceLock::new();
/// The compiled [`DEFAULT_VIEW_XSL`].
static DEFAULT_VIEW: OnceLock<Arc<Stylesheet>> = OnceLock::new();

/// Default stylesheet rendering a form-model document to an HTML form
/// (both create and search; the `kind` attribute parameterizes it).
pub const DEFAULT_FORM_XSL: &str = r#"<xsl:stylesheet version="1.0"
    xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
  <xsl:output method="html"/>
  <xsl:template match="/form">
    <form class="up2p-{@kind}" action="up2p:{@kind}" method="post">
      <h2><xsl:value-of select="@communityname"/>
        <xsl:text> — </xsl:text>
        <xsl:choose>
          <xsl:when test="@kind = 'create'"><xsl:text>share an object</xsl:text></xsl:when>
          <xsl:otherwise><xsl:text>search</xsl:text></xsl:otherwise>
        </xsl:choose>
      </h2>
      <table>
        <xsl:apply-templates select="field"/>
      </table>
      <input type="submit" value="{@kind}"/>
    </form>
  </xsl:template>
  <xsl:template match="field">
    <tr>
      <td class="label">
        <label for="{@name}"><xsl:value-of select="@name"/>
          <xsl:if test="@required = 'true'"><b>*</b></xsl:if>
        </label>
      </td>
      <td>
        <xsl:choose>
          <xsl:when test="@input = 'select'">
            <select name="{@path}" id="{@name}">
              <xsl:for-each select="option">
                <option value="{.}"><xsl:value-of select="."/></option>
              </xsl:for-each>
            </select>
          </xsl:when>
          <xsl:when test="@input = 'checkbox'">
            <input type="checkbox" name="{@path}" id="{@name}"/>
          </xsl:when>
          <xsl:when test="@input = 'number'">
            <input type="text" class="number" name="{@path}" id="{@name}"/>
          </xsl:when>
          <xsl:when test="@attachment = 'true'">
            <input type="file" name="{@path}" id="{@name}"/>
          </xsl:when>
          <xsl:otherwise>
            <input type="text" name="{@path}" id="{@name}"/>
          </xsl:otherwise>
        </xsl:choose>
      </td>
    </tr>
  </xsl:template>
</xsl:stylesheet>"#;

/// Default view stylesheet: renders *any* object document as nested
/// definition lists, labelling elements by name — tailored to "more
/// simple formats" per §V (complex communities ship a custom one).
pub const DEFAULT_VIEW_XSL: &str = r#"<xsl:stylesheet version="1.0"
    xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
  <xsl:output method="html"/>
  <xsl:template match="/">
    <div class="up2p-view">
      <xsl:apply-templates select="*"/>
    </div>
  </xsl:template>
  <xsl:template match="*">
    <dl>
      <dt><xsl:value-of select="name()"/></dt>
      <dd>
        <xsl:choose>
          <xsl:when test="count(*) &gt; 0"><xsl:apply-templates select="*"/></xsl:when>
          <xsl:otherwise><xsl:value-of select="."/></xsl:otherwise>
        </xsl:choose>
      </dd>
    </dl>
  </xsl:template>
</xsl:stylesheet>"#;

/// Generates the default indexed-attribute filter stylesheet for a
/// community: an XSLT that transforms an object document into
/// `<indexed><field path="...">value</field>...</indexed>` for exactly
/// the community's searchable fields. Equivalent to the native Rust
/// extraction path (tested to agree).
pub fn default_index_xsl(community: &Community) -> String {
    let mut body = String::new();
    for path in community.indexed_paths() {
        body.push_str(&format!(
            r#"<xsl:for-each select="/{path}"><field path="{path}"><xsl:value-of select="."/></field></xsl:for-each>"#
        ));
    }
    format!(
        r#"<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
  <xsl:template match="/"><indexed>{body}</indexed></xsl:template>
</xsl:stylesheet>"#
    )
}

/// Applies a form stylesheet (custom or [`DEFAULT_FORM_XSL`]) to a form
/// model document, producing HTML.
///
/// # Errors
///
/// Returns [`CoreError::Stylesheet`] when the stylesheet fails to compile
/// or apply.
pub fn render_form(form_doc: &Document, custom: Option<&str>) -> Result<String, CoreError> {
    Ok(form_sheet(custom)?.apply_to_string(form_doc)?)
}

/// The compiled form stylesheet [`render_form`] applies.
pub(crate) fn form_sheet(custom: Option<&str>) -> Result<Arc<Stylesheet>, CoreError> {
    match custom {
        Some(source) => StylesheetCache::global().get(source),
        None => default_sheet(&DEFAULT_FORM, DEFAULT_FORM_XSL),
    }
}

/// Applies a view stylesheet (custom or [`DEFAULT_VIEW_XSL`]) to an
/// object document, producing HTML.
///
/// # Errors
///
/// Returns [`CoreError::Stylesheet`] on stylesheet failure.
pub fn render_view(object_doc: &Document, custom: Option<&str>) -> Result<String, CoreError> {
    let sheet = match custom {
        Some(source) => StylesheetCache::global().get(source)?,
        None => default_sheet(&DEFAULT_VIEW, DEFAULT_VIEW_XSL)?,
    };
    Ok(sheet.apply_to_string(object_doc)?)
}

/// Runs an indexed-attribute filter stylesheet over an object document
/// and parses the `(path, value)` pairs out of the result.
///
/// # Errors
///
/// Returns [`CoreError::Stylesheet`]/[`CoreError::Xml`] on failures.
pub fn apply_index_style(
    xslt: &str,
    object_doc: &Document,
) -> Result<Vec<(String, String)>, CoreError> {
    let sheet = StylesheetCache::global().get(xslt)?;
    let result = sheet.apply(object_doc)?;
    let mut out = Vec::new();
    let Some(root) = result.document_element() else {
        return Ok(out);
    };
    for field in result.children_named(root, "field") {
        if let Some(path) = result.attr(field, "path") {
            let value = result.text_content(field);
            let trimmed = value.trim();
            if !trimmed.is_empty() {
                out.push((path.to_string(), trimmed.to_string()));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forms::{FormKind, FormModel};
    use up2p_schema::{FieldKind, SchemaBuilder};
    use up2p_store::Repository;

    /// A cache of this test's own: each test runs on a thread of its own.
    fn own_cache() -> StylesheetCache {
        thread_local!(static ENTRIES: Slot<Box<str>, Arc<Stylesheet>> = Slot::default());
        CompileCache::new(&ENTRIES)
    }

    fn community() -> Community {
        let mut b = SchemaBuilder::new("song");
        b.field(FieldKind::text("title").searchable())
            .field(FieldKind::enumeration("genre", ["rock", "jazz"]).searchable())
            .field(FieldKind::uri("audio").attachment());
        Community::from_builder("mp3", "d", "k", "c", "", &b).unwrap()
    }

    #[test]
    fn default_create_form_renders_inputs() {
        let c = community();
        let doc = FormModel::derive(&c, FormKind::Create).to_document();
        let html = render_form(&doc, None).unwrap();
        assert!(html.contains(r#"<form class="up2p-create""#), "{html}");
        assert!(html.contains(r#"name="song/title""#));
        assert!(html.contains("<select name=\"song/genre\""));
        assert!(html.contains(r#"<option value="jazz">jazz</option>"#));
        assert!(html.contains(r#"type="file""#), "attachment renders as file input");
        assert!(html.contains("<b>*</b>"), "required marker");
    }

    #[test]
    fn default_search_form_renders_searchable_only() {
        let c = community();
        let doc = FormModel::derive(&c, FormKind::Search).to_document();
        let html = render_form(&doc, None).unwrap();
        assert!(html.contains("up2p-search"));
        assert!(html.contains("song/title"));
        assert!(!html.contains("song/audio"), "attachment not searchable: {html}");
    }

    #[test]
    fn default_view_renders_any_object() {
        let doc = Document::parse(
            "<song><title>So What</title><meta><bpm>136</bpm></meta></song>",
        )
        .unwrap();
        let html = render_view(&doc, None).unwrap();
        assert!(html.contains("<dt>song</dt>"));
        assert!(html.contains("<dt>title</dt>"));
        assert!(html.contains("<dd>So What</dd>"));
        assert!(html.contains("<dt>bpm</dt>"), "nested elements recurse: {html}");
    }

    #[test]
    fn custom_stylesheet_overrides_default() {
        let custom = r#"<xsl:stylesheet version="1.0"
            xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
          <xsl:output method="html"/>
          <xsl:template match="/"><h1>CUSTOM<xsl:value-of select="//title"/></h1></xsl:template>
        </xsl:stylesheet>"#;
        let doc = Document::parse("<song><title>x</title></song>").unwrap();
        let html = render_view(&doc, Some(custom)).unwrap();
        assert_eq!(html, "<h1>CUSTOMx</h1>");
    }

    #[test]
    fn index_stylesheet_agrees_with_native_extraction() {
        let c = community();
        let xsl = default_index_xsl(&c);
        let doc = Document::parse(
            "<song><title>So What</title><genre>jazz</genre><audio>u</audio></song>",
        )
        .unwrap();
        let via_xslt = apply_index_style(&xsl, &doc).unwrap();
        let via_native = Repository::extract_fields(&doc, &c.indexed_paths());
        assert_eq!(via_xslt, via_native);
        assert_eq!(
            via_xslt,
            vec![
                ("song/title".to_string(), "So What".to_string()),
                ("song/genre".to_string(), "jazz".to_string()),
            ]
        );
    }

    #[test]
    fn broken_custom_stylesheet_reports_error() {
        let doc = Document::parse("<x/>").unwrap();
        assert!(matches!(
            render_view(&doc, Some("<not-xslt/>")),
            Err(CoreError::Stylesheet(_))
        ));
    }

    #[test]
    fn cache_compiles_each_distinct_sheet_once() {
        let cache = own_cache();
        let a = cache.get(DEFAULT_VIEW_XSL).unwrap();
        let b = cache.get(DEFAULT_VIEW_XSL).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second get returns the same compiled sheet");
        assert_eq!(cache.len(), 1);
        let c = cache.get(DEFAULT_FORM_XSL).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cache_never_stores_broken_sheets() {
        let cache = own_cache();
        assert!(cache.is_empty());
        assert!(cache.get("<not-xslt/>").is_err());
        assert!(cache.get("<not-xslt/>").is_err(), "error repeats, not cached away");
        assert!(cache.is_empty(), "a failed compile leaves the cache untouched");
    }

    #[test]
    fn default_sheets_are_parsed_once_per_process() {
        let a = default_sheet(&DEFAULT_FORM, DEFAULT_FORM_XSL).unwrap();
        let b = default_sheet(&DEFAULT_FORM, DEFAULT_FORM_XSL).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let v1 = default_sheet(&DEFAULT_VIEW, DEFAULT_VIEW_XSL).unwrap();
        let v2 = default_sheet(&DEFAULT_VIEW, DEFAULT_VIEW_XSL).unwrap();
        assert!(Arc::ptr_eq(&v1, &v2));
        assert!(!Arc::ptr_eq(&a, &v1));
    }

    #[test]
    fn evicted_sheet_recompiles_to_one_that_renders_the_same() {
        let sheet = |i: usize| {
            format!(
                r#"<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
                <xsl:template match="/"><p n="{i}"><xsl:value-of select="//title"/></p></xsl:template>
                </xsl:stylesheet>"#
            )
        };
        let cache = own_cache();
        let doc = Document::parse("<song><title>So What</title></song>").unwrap();
        let first = cache.get(&sheet(0)).unwrap();
        for i in 1..=crate::CAPACITY {
            cache.get(&sheet(i)).unwrap();
        }
        assert_eq!(cache.len(), crate::CAPACITY, "one over capacity evicted one");
        let again = cache.get(&sheet(0)).unwrap();
        assert!(!Arc::ptr_eq(&first, &again), "sheet 0 was evicted and compiled again");
        assert_eq!(again.apply_to_string(&doc).unwrap(), first.apply_to_string(&doc).unwrap());
        assert_eq!(again.apply_to_string(&doc).unwrap(), r#"<p n="0">So What</p>"#);
    }
}
