//! Every page of the generative pipeline streams to the bytes of its
//! result tree: core's default form, view and index sheets and the
//! `community_ui` benchmark's sheet shapes, over the form and object
//! documents of 64 generated communities, written by
//! `Stylesheet::apply_to_string` equal `Stylesheet::apply`'s tree
//! serialized by the sheet's output method.

use up2p::core::stylesheets::{default_index_xsl, DEFAULT_FORM_XSL, DEFAULT_VIEW_XSL};
use up2p::xml::{Document, ElementBuilder, OutputMethod};
use up2p::xslt::{to_html, Stylesheet};
use up2p::{Community, FieldKind, FormKind, FormModel, SchemaBuilder};

/// The benchmark's form sheet for community `tag` (XML output method).
fn ui_form_xsl(tag: &str, kind: &str) -> String {
    format!(
        r#"<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
  <xsl:template match="/form">
    <form class="{tag}-{kind}" action="up2p:{{@kind}}">
      <h2><xsl:value-of select="@communityname"/></h2>
      <table><xsl:apply-templates select="field"/></table>
      <input type="submit" value="{{@kind}}"/>
    </form>
  </xsl:template>
  <xsl:template match="field">
    <tr class="{tag}-row">
      <td><label for="{{@name}}"><xsl:value-of select="@name"/>
        <xsl:if test="@required = 'true'"><b>*</b></xsl:if></label></td>
      <td><xsl:choose>
        <xsl:when test="@input = 'select'">
          <select name="{{@path}}"><xsl:for-each select="option">
            <option value="{{.}}"><xsl:value-of select="."/></option>
          </xsl:for-each></select>
        </xsl:when>
        <xsl:when test="@input = 'checkbox'"><input type="checkbox" name="{{@path}}"/></xsl:when>
        <xsl:otherwise><input type="text" name="{{@path}}"/></xsl:otherwise>
      </xsl:choose></td>
    </tr>
  </xsl:template>
</xsl:stylesheet>"#
    )
}

/// The benchmark's display sheet for community `tag`.
fn ui_view_xsl(tag: &str, root: &str) -> String {
    format!(
        r#"<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
  <xsl:template match="/{root}">
    <div class="{tag}-view">
      <h1><xsl:value-of select="*[1]"/></h1>
      <table><xsl:for-each select="*">
        <tr><th><xsl:value-of select="name()"/></th><td><xsl:value-of select="."/></td></tr>
      </xsl:for-each></table>
      <p class="count"><xsl:value-of select="count(*)"/> fields</p>
    </div>
  </xsl:template>
</xsl:stylesheet>"#
    )
}

/// Community `i`: `title`, `kind` and `2 + i % 6` fields cycling
/// through the input kinds, as the benchmark builds it, with one object
/// whose values carry markup characters.
fn community(i: usize) -> (Community, Document) {
    let tag = format!("c{i:02}");
    let root = format!("{tag}item");
    let mut b = SchemaBuilder::new(root.as_str());
    b.field(FieldKind::text("title").searchable())
        .field(FieldKind::enumeration("kind", ["a", "b", "c", "d"]).searchable());
    let mut object = ElementBuilder::new(root.as_str())
        .child_text("title", format!("<b>{tag}</b> & \"more\""))
        .child_text("kind", "b");
    for j in 0..2 + i % 6 {
        let name = format!("f{j}");
        let (field, value) = match (i + j) % 5 {
            0 => (FieldKind::text(name.clone()).searchable(), "x < y"),
            1 => (FieldKind::integer(name.clone()), "7"),
            2 => (
                FieldKind::enumeration(name.clone(), ["low", "mid", "high"]).searchable(),
                "mid",
            ),
            3 => (FieldKind::boolean(name.clone()), "true"),
            _ => (FieldKind::text(name.clone()), ""),
        };
        b.field(field);
        object = object.child_text(name.as_str(), value);
    }
    let c = Community::from_builder(
        &format!("community {tag}"),
        "Synthetic sharing community",
        &format!("topic{i:02} sharing"),
        "cat",
        "Napster",
        &b,
    )
    .expect("generated schema is valid")
    .with_display_style(ui_view_xsl(&tag, &root))
    .with_create_style(ui_form_xsl(&tag, "create"))
    .with_search_style(ui_form_xsl(&tag, "search"));
    (c, object.build())
}

/// The page streamed, and the tree serialized by the same method.
fn both_paths(source: &str, doc: &Document) -> [String; 2] {
    let sheet = Stylesheet::parse(source).unwrap();
    let tree = sheet.apply(doc).unwrap();
    let serialized = match sheet.output_method() {
        OutputMethod::Xml => tree.to_xml_string(),
        OutputMethod::Html => to_html(&tree),
        OutputMethod::Text => tree.text_content(tree.root()),
    };
    [sheet.apply_to_string(doc).unwrap(), serialized]
}

#[test]
fn every_pipeline_page_streams_to_its_trees_bytes() {
    let mut pages = 0;
    for i in 0..64 {
        let (c, object) = community(i);
        let mut renders = vec![
            (DEFAULT_VIEW_XSL.to_string(), object.clone()),
            (c.display_style.clone().unwrap(), object.clone()),
            (default_index_xsl(&c), object),
        ];
        for (kind, custom) in [
            (FormKind::Create, &c.create_style),
            (FormKind::Search, &c.search_style),
        ] {
            let form = FormModel::derive(&c, kind).to_document();
            renders.push((DEFAULT_FORM_XSL.to_string(), form.clone()));
            renders.push((custom.clone().unwrap(), form));
        }
        for (source, doc) in &renders {
            let [streamed, tree] = both_paths(source, doc);
            assert!(streamed.len() > 40, "community {i}: {streamed}");
            assert_eq!(streamed, tree, "community {i}, sheet {source}");
            pages += 1;
        }
    }
    assert_eq!(pages, 64 * 7);
}
