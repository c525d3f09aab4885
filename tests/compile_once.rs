//! Compile-once community (DESIGN.md §3f): the licence for the cache and
//! what it costs.
//!
//! * **Equivalence.** For generated communities and every route one
//!   reaches a servent by, `create_form_html` / `search_form_html` equal
//!   the uncached pipeline — `FormModel::derive` → `to_document` →
//!   `Stylesheet::parse` → `apply_to_string` — byte for byte.
//! * **First-sight cost.** A never-seen community adds one cache entry
//!   per distinct input and a known one adds none; a broken input adds
//!   none and reports its error every time.

use proptest::prelude::*;
use std::sync::Arc;
use up2p::core::stylesheets::DEFAULT_FORM_XSL;
use up2p::core::{FormCache, SchemaCache, StylesheetCache};
use up2p::xslt::Stylesheet;
use up2p::{
    build_network, Attachment, Community, CoreError, FieldKind, FormKind, FormModel,
    PayloadPlane, PeerId, PeerNetwork, ProtocolKind, Query, SchemaBuilder, Servent, SharedObject,
    ROOT_COMMUNITY_ID,
};

/// The sizes of the calling thread's caches: each test runs on a thread
/// of its own, so it reads what it alone put there.
fn cache_sizes() -> [usize; 3] {
    [SchemaCache::global().len(), StylesheetCache::global().len(), FormCache::global().len()]
}

#[derive(Debug, Clone)]
enum Kind {
    Text,
    Int,
    Decimal,
    Bool,
    Uri,
    Date,
    Enum(Vec<String>),
    Nested(Vec<(String, bool)>),
}

/// name, kind, searchable, optional, repeated
type FieldSpec = (String, Kind, bool, bool, bool);

fn kind_strategy() -> impl Strategy<Value = Kind> {
    prop_oneof![
        Just(Kind::Text),
        Just(Kind::Int),
        Just(Kind::Decimal),
        Just(Kind::Bool),
        Just(Kind::Uri),
        Just(Kind::Date),
        prop::collection::vec("[a-z]{2,6}", 1..5).prop_map(Kind::Enum),
        prop::collection::vec(("[a-z]{2,6}", any::<bool>()), 1..4).prop_map(|mut inner| {
            inner.sort();
            inner.dedup_by(|a, b| a.0 == b.0);
            Kind::Nested(inner)
        }),
    ]
}

fn fields_strategy() -> impl Strategy<Value = Vec<FieldSpec>> {
    prop::collection::vec(
        ("[a-z][a-z0-9]{1,8}", kind_strategy(), any::<bool>(), any::<bool>(), any::<bool>()),
        1..8,
    )
    .prop_map(|mut v| {
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v.dedup_by(|a, b| a.0 == b.0);
        v
    })
}

/// A custom form stylesheet, distinct per `tag`, that prints everything
/// a form document carries.
fn custom_form_xsl(tag: &str) -> String {
    format!(
        r#"<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
  <xsl:output method="html"/>
  <xsl:template match="/form">
    <form class="{tag}" id="{{@community}}" action="up2p:{{@kind}}">
      <h2><xsl:value-of select="@communityname"/></h2>
      <xsl:for-each select="field">
        <p class="{{@input}}">
          <label for="{{@path}}"><xsl:value-of select="@name"/></label>
          <xsl:if test="@required = 'true'"><b>required</b></xsl:if>
          <xsl:if test="@repeated = 'true'"><i>repeated</i></xsl:if>
          <xsl:for-each select="option"><span><xsl:value-of select="."/></span></xsl:for-each>
        </p>
      </xsl:for-each>
    </form>
  </xsl:template>
</xsl:stylesheet>"#
    )
}

fn build_community(
    name: &str,
    fields: &[FieldSpec],
    create_tag: Option<&str>,
    search_tag: Option<&str>,
) -> Community {
    let mut b = SchemaBuilder::new("object");
    for (name, kind, searchable, optional, repeated) in fields {
        let mut f = match kind {
            Kind::Text => FieldKind::text(name.clone()),
            Kind::Int => FieldKind::integer(name.clone()),
            Kind::Decimal => FieldKind::decimal(name.clone()),
            Kind::Bool => FieldKind::boolean(name.clone()),
            Kind::Uri => FieldKind::uri(name.clone()),
            Kind::Date => FieldKind::date(name.clone()),
            Kind::Enum(values) => FieldKind::enumeration(name.clone(), values.clone()),
            Kind::Nested(inner) => FieldKind::nested(
                name.clone(),
                inner.iter().map(|(leaf, searchable)| {
                    let leaf = FieldKind::text(leaf.clone());
                    if *searchable { leaf.searchable() } else { leaf }
                }),
            ),
        };
        if *searchable {
            f = f.searchable();
        }
        if *optional {
            f = f.optional();
        }
        if *repeated {
            f = f.repeated();
        }
        b.field(f);
    }
    let mut c = Community::from_builder(name, "d", "generated", "c", "", &b)
        .expect("builder output parses");
    if let Some(tag) = create_tag {
        c = c.with_create_style(custom_form_xsl(tag));
    }
    if let Some(tag) = search_tag {
        c = c.with_search_style(custom_form_xsl(tag));
    }
    c
}

/// The uncached pipeline, spelled out: what the parent commit ran on
/// every call.
fn fresh_pages(c: &Community) -> [String; 2] {
    [(FormKind::Create, &c.create_style), (FormKind::Search, &c.search_style)].map(
        |(kind, style)| {
            let doc = FormModel::derive(c, kind).to_document();
            let source = style.as_deref().unwrap_or(DEFAULT_FORM_XSL);
            Stylesheet::parse(source).unwrap().apply_to_string(&doc).unwrap()
        },
    )
}

fn served_pages(servent: &Servent, id: &str) -> [String; 2] {
    [servent.create_form_html(id).unwrap(), servent.search_form_html(id).unwrap()]
}

struct World {
    net: Box<dyn PeerNetwork>,
    plane: PayloadPlane,
}

impl World {
    fn new() -> World {
        World { net: build_network(ProtocolKind::Napster, 4, 1), plane: PayloadPlane::new() }
    }

    /// Discovers the one generated community of this world and joins it.
    fn join(&mut self, servent: &mut Servent) -> Result<String, CoreError> {
        let found = servent.discover_communities(&mut *self.net, &Query::any_keyword("generated"))?;
        servent.join_from_hit(&mut *self.net, &mut self.plane, &found.hits[0])
    }
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("up2p-{name}-{}", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn served_pages_equal_fresh_ones_on_every_route(
        fields in fields_strategy(),
        name in "[a-z]{3,8}",
        create_tag in prop_oneof![Just(None), "[a-z]{3,6}".prop_map(Some)],
        search_tag in prop_oneof![Just(None), "[a-z]{3,6}".prop_map(Some)],
    ) {
        let community =
            build_community(&name, &fields, create_tag.as_deref(), search_tag.as_deref());
        let id = community.id.as_str();
        let expect = fresh_pages(&community);

        // where it was made: on the first call and on the second
        let mut w = World::new();
        let mut founder = Servent::new(PeerId(1));
        founder.publish_community(&mut *w.net, &mut w.plane, &community).unwrap();
        prop_assert_eq!(&served_pages(&founder, id), &expect);
        prop_assert_eq!(&served_pages(&founder, id), &expect);

        // from a second servent that joined over the network
        let mut seeker = Servent::new(PeerId(2));
        prop_assert_eq!(w.join(&mut seeker).unwrap(), id);
        let joined_schema = Arc::clone(seeker.community(id).unwrap().schema());
        prop_assert!(
            Arc::ptr_eq(&joined_schema, community.schema()),
            "the join parsed a schema this thread had already compiled"
        );
        prop_assert_eq!(&served_pages(&seeker, id), &expect);

        // after leave → join_from_hit
        prop_assert!(seeker.leave(id));
        prop_assert_eq!(w.join(&mut seeker).unwrap(), id);
        prop_assert!(Arc::ptr_eq(seeker.community(id).unwrap().schema(), &joined_schema));
        prop_assert_eq!(&served_pages(&seeker, id), &expect);

        // after save_state → load_state, which sets styles after construction
        let dir = tmp("compile-once");
        let _ = std::fs::remove_dir_all(&dir);
        seeker.save_state(&dir).unwrap();
        let restored = Servent::load_state(PeerId(2), &dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        prop_assert_eq!(&served_pages(&restored, id), &expect);

        // a `pub` field changed under the same id: the new page, not the
        // one already rendered for that id
        let mut renamed = community.clone();
        renamed.name = format!("{name} renamed");
        let mut restyled = community.clone();
        restyled.create_style = Some(custom_form_xsl("restyled"));
        for changed in [renamed, restyled] {
            let mut servent = Servent::new(PeerId(3));
            servent.join(changed.clone());
            let pages = served_pages(&servent, id);
            prop_assert_eq!(&pages, &fresh_pages(&changed));
            prop_assert_ne!(&pages[0], &expect[0]);
        }
    }
}

fn unique_community(tag: &str) -> Community {
    let fields = [(format!("title{tag}"), Kind::Text, true, false, false)];
    build_community(&format!("first sight {tag}"), &fields, Some(tag), None)
}

#[test]
fn first_sight_costs_one_entry_per_distinct_input() {
    let mut w = World::new();
    // every servent is born into the root community: compiled here
    let mut founder = Servent::new(PeerId(1));
    let before = cache_sizes();

    // never seen: one schema, one custom sheet (the search form uses the
    // default, parsed once per process outside the cache)
    let community = unique_community("cold");
    founder.publish_community(&mut *w.net, &mut w.plane, &community).unwrap();
    let made = cache_sizes();
    assert_eq!(made, [before[0] + 1, before[1], before[2]], "making it compiled its schema");

    // a cold join over the network parses nothing; rendering compiles
    // the one custom sheet and renders the two pages
    let mut seeker = Servent::new(PeerId(2));
    let id = w.join(&mut seeker).unwrap();
    assert_eq!(cache_sizes(), made, "the schema was known: the join compiled nothing");
    let pages = served_pages(&seeker, &id);
    let rendered = cache_sizes();
    assert_eq!(rendered, [made[0], made[1] + 1, made[2] + 2]);

    // from here on the community is known to this thread
    assert_eq!(served_pages(&seeker, &id), pages);
    seeker.leave(&id);
    w.join(&mut seeker).unwrap();
    let mut third = Servent::new(PeerId(3));
    w.join(&mut third).unwrap();
    assert_eq!(served_pages(&third, &id), pages);
    assert_eq!(served_pages(&founder, &id), pages);
    assert_eq!(cache_sizes(), rendered, "a known community adds no entry");
}

#[test]
fn broken_inputs_report_every_time_and_cache_nothing() {
    let mut w = World::new();
    let mut founder = Servent::new(PeerId(1));
    let good = unique_community("broken");
    let mut bad_style = good.clone();
    bad_style.create_style = Some("<not-xslt/>".into());
    founder.join(bad_style);
    // a community object that names a broken XSD as its schema
    let mut bad_schema = good.clone();
    bad_schema.schema_xsd = "<notaschema/>".into();
    let attachments = vec![Attachment::from_bytes(bad_schema.schema_xsd.clone().into_bytes())];
    let object = SharedObject::new(ROOT_COMMUNITY_ID, bad_schema.to_object(), attachments);
    founder.publish(&mut *w.net, &mut w.plane, &object).unwrap();
    let mut seeker = Servent::new(PeerId(2));
    let before = cache_sizes();

    for _ in 0..2 {
        assert!(matches!(
            Community::new("x", "d", "k", "c", "", "<notaschema/>"),
            Err(CoreError::Schema(_))
        ));
        assert!(matches!(w.join(&mut seeker), Err(CoreError::Schema(_))));
        assert!(matches!(founder.create_form_html(&good.id), Err(CoreError::Stylesheet(_))));
    }
    assert_eq!(cache_sizes(), before, "an error left an entry behind");
    assert!(founder.search_form_html(&good.id).is_ok(), "the other form is not affected");
}
