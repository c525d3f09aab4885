//! # up2p-store
//!
//! The local object store of the U-P2P reproduction: a content-addressed
//! repository of XML objects with an inverted metadata index and three
//! query surfaces (programmatic [`Query`], CMIP/LDAP-style filter text as
//! the paper's servent used, and per-document XPath as its future-work
//! "richer query language").
//!
//! The paper's servent stored object information "in a database based on
//! Magenta … transactions … formatted as CMIP queries" (§IV-B). This crate
//! replaces that substrate 1:1: insert/search/get with community scoping,
//! plus the *Indexed Attribute* filtering of Fig. 1 — only extracted
//! fields enter the index, which experiment E7 measures.
//!
//! ```
//! use up2p_store::{Repository, Query};
//!
//! let mut repo = Repository::new();
//! repo.insert_xml(
//!     "patterns",
//!     "<pattern><name>Observer</name><category>behavioral</category></pattern>",
//!     &["pattern/name".into(), "pattern/category".into()],
//! )?;
//! assert_eq!(repo.search_cmip(None, "(name=observ*)")?.len(), 1);
//! assert_eq!(repo.xpath_search(None, "/pattern[category='behavioral']")?.len(), 1);
//! # Ok::<(), up2p_store::StoreError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cmip;
mod digest;
mod durable;
mod error;
mod fsio;
mod index;
mod query;
mod repository;
mod segment;
mod tokenizer;
mod wal;

pub use cmip::parse_cmip;
pub use digest::{sha1, ResourceId, Sha1};
pub use durable::{DurableOptions, DurableRepository, RecoveryReport};
pub use error::StoreError;
pub use fsio::{crc32, FailFs, RealFs, StoreFs, StoreWriter};
pub use index::{prepare_fields, IndexStats, MetadataIndex, PreparedField, SharedFields};
pub use query::{field_matches, Query, ValuePattern};
pub use repository::{FieldPaths, Repository, StoredObject};
pub use tokenizer::{
    for_each_token, is_normalized, normalize, token_passes, tokenize, tokenize_with, STOPWORDS,
};
pub use wal::SyncPolicy;
