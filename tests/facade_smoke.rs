//! Facade smoke test: the flattened re-exports (`Servent`,
//! `build_network`, `Query`, `SchemaBuilder`, ...) must compose into the
//! full community lifecycle on every [`ProtocolKind`], using only `up2p`
//! as a dependency — the "one crate, whole system" contract of the
//! facade.

use up2p::{
    build_network, Community, FieldKind, PayloadPlane, PeerId, ProtocolKind, Query,
    SchemaBuilder, Servent,
};

fn recipe_community() -> Community {
    let mut fields = SchemaBuilder::new("recipe");
    fields
        .field(FieldKind::text("title").searchable())
        .field(FieldKind::text("cuisine").searchable())
        .field(FieldKind::text("instructions"));
    Community::from_builder(
        "recipes",
        "Recipe sharing with ingredient search",
        "cooking recipes food",
        "lifestyle",
        "",
        &fields,
    )
    .expect("builder output parses")
}

#[test]
fn flattened_reexports_compose_on_every_protocol() {
    for kind in [ProtocolKind::Napster, ProtocolKind::Gnutella, ProtocolKind::FastTrack] {
        let community = recipe_community();
        let mut net = build_network(kind, 24, 7);
        let mut plane = PayloadPlane::new();

        // Publisher side: community + one object.
        let mut alice = Servent::new(PeerId(2));
        alice.publish_community(&mut *net, &mut plane, &community).unwrap();
        let obj = alice
            .create_object(
                &community.id,
                &[
                    ("title", "Mapo Tofu"),
                    ("cuisine", "sichuan"),
                    ("instructions", "simmer the tofu"),
                ],
            )
            .unwrap();
        alice.publish(&mut *net, &mut plane, &obj).unwrap();

        // Seeker side: discover → join → search → download → view.
        let mut bob = Servent::new(PeerId(19));
        let found =
            bob.discover_communities(&mut *net, &Query::any_keyword("cooking")).unwrap();
        assert!(!found.hits.is_empty(), "{kind}: discovery via root community");
        let id = bob.join_from_hit(&mut *net, &mut plane, &found.hits[0]).unwrap();
        assert_eq!(id, community.id, "{kind}: content-derived identity converges");

        let hits = bob.search(&mut *net, &id, &Query::keyword("title", "mapo")).unwrap();
        assert!(!hits.hits.is_empty(), "{kind}: keyword search");
        let downloaded = bob.download(&mut *net, &mut plane, &hits.hits[0]).unwrap();
        assert_eq!(downloaded.key, obj.key, "{kind}: same object after download");

        let html = bob.view_html(&downloaded).unwrap();
        assert!(html.contains("Mapo Tofu"), "{kind}: stylesheet view renders");
    }
}

#[test]
fn facade_modules_reach_every_layer() {
    // Each re-exported module is usable directly through the facade.
    let doc = up2p::xml::ElementBuilder::new("x").text("hi").build();
    let root = doc.document_element().expect("has a root element");
    assert_eq!(doc.local_name(root), Some("x"));
    let schema = up2p::schema::parse_schema_str(up2p::ROOT_SCHEMA_XSD).unwrap();
    assert!(!up2p::schema::leaf_fields(&schema).is_empty());
    let sheet = up2p::xslt::Stylesheet::parse(
        r#"<xsl:stylesheet version="1.0"
             xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
           <xsl:output method="text"/>
           <xsl:template match="/"><xsl:value-of select="/x"/></xsl:template>
           </xsl:stylesheet>"#,
    )
    .unwrap();
    assert_eq!(sheet.apply_to_string(&doc).unwrap(), "hi");
    let mut repo = up2p::store::Repository::new();
    let doc = up2p::xml::Document::parse("<o><name>n</name></o>").unwrap();
    repo.insert_doc("c", doc, &["o/name".to_string()]);
    assert_eq!(repo.search(Some("c"), &up2p::Query::eq("name", "n")).len(), 1);
    let topo = up2p::net::Topology::small_world(8, 2, 0.1, 1);
    assert!(topo.edge_count() > 0);
    let community = up2p::sim::corpus::pattern_community();
    assert!(up2p::Community::root().validate(&community.to_object()).is_ok());
}
