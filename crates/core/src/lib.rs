//! # up2p-core
//!
//! The U-P2P framework (Mukherjee, Esfandiari, Arthorne — ICDCS 2002):
//! peer-to-peer description and discovery of resource-sharing communities.
//!
//! A community is *defined by an XML Schema* describing its shared object;
//! the servent's Create/Search/View functions are generated from that
//! schema via XSLT (Fig. 1/2 of the paper). Communities are themselves
//! objects of a bootstrap "root community" (Fig. 3), so discovering a
//! community reduces to searching for an object — the paper's metaclass
//! move.
//!
//! ```
//! use up2p_core::{Community, PayloadPlane, Servent};
//! use up2p_net::{build_network, PeerId, ProtocolKind};
//! use up2p_schema::{FieldKind, SchemaBuilder};
//! use up2p_store::Query;
//!
//! // a domain expert describes the shared object — no programming
//! let mut fields = SchemaBuilder::new("molecule");
//! fields.field(FieldKind::text("formula").searchable())
//!       .field(FieldKind::text("name").searchable());
//! let community = Community::from_builder(
//!     "molecules", "CML for chemists", "chemistry cml", "science", "Gnutella", &fields)?;
//!
//! // simulated fabric: 32 peers, Gnutella-style flooding
//! let mut net = build_network(ProtocolKind::Gnutella, 32, 7);
//! let mut plane = PayloadPlane::new();
//!
//! // a publisher announces the community, a seeker discovers + joins it
//! let mut publisher = Servent::new(PeerId(1));
//! publisher.publish_community(&mut *net, &mut plane, &community)?;
//! let mut seeker = Servent::new(PeerId(20));
//! let found = seeker.discover_communities(&mut *net, &Query::any_keyword("chemistry"))?;
//! let id = seeker.join_from_hit(&mut *net, &mut plane, &found.hits[0])?;
//! assert_eq!(id, community.id);
//! # Ok::<(), up2p_core::CoreError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cache;
mod community;
mod error;
mod extract;
mod forms;
mod object;
mod payload;
mod root;
mod servent;
pub mod stylesheets;

pub use cache::{CompileCache, CAPACITY};
pub use community::{Community, CompiledSchema, SchemaCache};
pub use error::CoreError;
pub use extract::{extract_metadata, ExtractedFields};
pub use forms::{FormCache, FormField, FormKey, FormKind, FormModel, InputKind};
pub use object::{Attachment, SharedObject};
pub use payload::PayloadPlane;
pub use root::{COMMUNITY_FIELDS, ROOT_COMMUNITY_ID, ROOT_SCHEMA_XSD};
pub use servent::Servent;
pub use stylesheets::StylesheetCache;
