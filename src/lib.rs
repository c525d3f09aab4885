//! # up2p — facade crate
//!
//! Re-exports the whole U-P2P reproduction behind one dependency:
//!
//! * [`core`] — the framework (servent, communities, forms, stylesheets)
//! * [`xml`] — XML parser / DOM / XPath substrate
//! * [`schema`] — XML Schema subset
//! * [`xslt`] — XSLT engine
//! * [`store`] — repository, metadata index, query languages
//! * [`net`] — simulated P2P substrates (Napster / Gnutella / FastTrack)
//! * [`sim`] — corpora, workloads and the E1–E7 and E11 experiment scenarios
//!
//! See `examples/quickstart.rs` for the five-minute tour and DESIGN.md
//! for the paper-to-module map.
//!
//! The flattened re-exports compose into the full publish → discover →
//! join → search → download lifecycle on any substrate:
//!
//! ```
//! use up2p::{
//!     build_network, Community, FieldKind, PayloadPlane, PeerId, ProtocolKind, Query,
//!     SchemaBuilder, Servent,
//! };
//!
//! let mut fields = SchemaBuilder::new("recipe");
//! fields.field(FieldKind::text("title").searchable());
//! let community = Community::from_builder("recipes", "d", "cooking", "c", "", &fields)?;
//!
//! let mut net = build_network(ProtocolKind::Gnutella, 16, 42);
//! let mut plane = PayloadPlane::new();
//! let mut alice = Servent::new(PeerId(3));
//! alice.publish_community(&mut *net, &mut plane, &community)?;
//! let obj = alice.create_object(&community.id, &[("title", "Mapo Tofu")])?;
//! alice.publish(&mut *net, &mut plane, &obj)?;
//!
//! let mut bob = Servent::new(PeerId(11));
//! let found = bob.discover_communities(&mut *net, &Query::any_keyword("cooking"))?;
//! let id = bob.join_from_hit(&mut *net, &mut plane, &found.hits[0])?;
//! let hits = bob.search(&mut *net, &id, &Query::keyword("title", "mapo"))?;
//! let downloaded = bob.download(&mut *net, &mut plane, &hits.hits[0])?;
//! assert_eq!(downloaded.key, obj.key);
//! # Ok::<(), up2p::CoreError>(())
//! ```

pub use up2p_core as core;
pub use up2p_net as net;
pub use up2p_schema as schema;
pub use up2p_sim as sim;
pub use up2p_store as store;
pub use up2p_xml as xml;
pub use up2p_xslt as xslt;

// The most-used types, flattened for convenience.
pub use up2p_core::{
    extract_metadata, Attachment, Community, CoreError, FormKind, FormModel, PayloadPlane,
    Servent, SharedObject, ROOT_COMMUNITY_ID, ROOT_SCHEMA_XSD,
};
pub use up2p_net::{build_network, PeerId, PeerNetwork, ProtocolKind};
pub use up2p_schema::{FieldKind, SchemaBuilder};
pub use up2p_store::Query;

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compose() {
        let mut b = crate::SchemaBuilder::new("x");
        b.field(crate::FieldKind::text("name").searchable());
        let c = crate::Community::from_builder("x", "d", "k", "c", "", &b).unwrap();
        assert!(!c.id.is_empty());
    }
}
