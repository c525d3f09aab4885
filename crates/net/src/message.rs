//! Value types every substrate exchanges: the published record, the
//! search hit, virtual time. Traffic itself is only counted
//! ([`crate::MsgKind`]); no message struct is ever built.

use crate::peer::PeerId;

/// Virtual time in microseconds since simulation start.
pub type Time = u64;

/// Shared handle to a record's extracted `(field path, value)` metadata
/// (the store layer's [`up2p_store::SharedFields`]).
///
/// Allocated once when the object is published; uploading the record to
/// an index node, indexing it there, and embedding it in every
/// [`SearchHit`] routed back along the reverse path are all refcount
/// bumps on the same allocation.
pub type SharedFields = up2p_store::SharedFields;

/// A shared-resource record as the network layer sees it: key, community
/// and the extracted metadata fields a query is evaluated against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceRecord {
    /// Content-derived key (hex of the object's `ResourceId`).
    pub key: String,
    /// Community identifier.
    pub community: String,
    /// Extracted `(field path, value)` metadata, shared by reference.
    pub fields: SharedFields,
}

impl ResourceRecord {
    /// Builds a record, converting any field container into the shared
    /// form (tests and examples pass plain `Vec`s).
    pub fn new(
        key: impl Into<String>,
        community: impl Into<String>,
        fields: impl Into<SharedFields>,
    ) -> ResourceRecord {
        ResourceRecord { key: key.into(), community: community.into(), fields: fields.into() }
    }
}

/// One search result returned to the querying peer. Per the paper
/// (§IV-C2) results carry the full metadata of the object so the user can
/// scrutinize them before downloading.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchHit {
    /// Resource key.
    pub key: String,
    /// Peer that shares the object.
    pub provider: PeerId,
    /// Full extracted metadata (shared with the index node's record).
    pub fields: SharedFields,
    /// Hops the query travelled before matching.
    pub hops: u8,
}

/// Default Gnutella-era TTL (the protocol shipped with 7).
pub const DEFAULT_TTL: u8 = 7;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_equality() {
        let r = ResourceRecord::new("ab", "c", vec![("o/name".to_string(), "x".to_string())]);
        assert_eq!(r.clone(), r);
        // cloning shares the metadata allocation
        assert!(SharedFields::ptr_eq(&r.fields, &r.clone().fields));
    }
}
