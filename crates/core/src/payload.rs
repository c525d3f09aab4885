//! The payload plane: content-addressed object/attachment bytes.
//!
//! The metadata fabric (`up2p-net`) decides *whether and at what cost* a
//! retrieval succeeds; the payload plane is the simulator's stand-in for
//! the direct peer-to-peer transfer that then moves the actual XML and
//! attachment bytes. Integrity is enforced: payloads must hash to the key
//! they are fetched under.

use crate::error::CoreError;
use crate::object::{Attachment, SharedObject};
use std::collections::HashMap;
use up2p_store::ResourceId;
use up2p_xml::Document;

/// Published object payloads, keyed by content hash.
#[derive(Debug, Clone, Default)]
pub struct PayloadPlane {
    objects: HashMap<String, StoredPayload>,
    attachments: HashMap<String, bytes::Bytes>,
}

#[derive(Debug, Clone)]
struct StoredPayload {
    community_id: String,
    xml: String,
    attachment_uris: Vec<String>,
}

impl PayloadPlane {
    /// Creates an empty plane.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an object's payload (called on publish).
    pub fn put(&mut self, object: &SharedObject) {
        for a in &object.attachments {
            self.attachments.insert(a.uri.clone(), a.data.clone());
        }
        self.objects.insert(
            object.key.clone(),
            StoredPayload {
                community_id: object.community_id.clone(),
                xml: object.xml(),
                attachment_uris: object.attachments.iter().map(|a| a.uri.clone()).collect(),
            },
        );
    }

    /// Registers raw attachment bytes (e.g. a community schema).
    pub fn put_attachment(&mut self, attachment: &Attachment) {
        self.attachments.insert(attachment.uri.clone(), attachment.data.clone());
    }

    /// Fetches attachment bytes by URI.
    pub fn attachment(&self, uri: &str) -> Option<bytes::Bytes> {
        self.attachments.get(uri).cloned()
    }

    /// Number of registered object payloads.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// `true` when no payloads are registered.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Materializes the object stored under `key`, verifying integrity
    /// and pulling its attachments ("attachments are only downloaded when
    /// the object is retrieved", §IV-C1).
    ///
    /// # Errors
    ///
    /// [`CoreError::Unavailable`] when the key or an attachment is
    /// unknown; [`CoreError::IntegrityFailure`] when the payload does not
    /// hash to `key`; [`CoreError::Xml`] when the stored XML is corrupt.
    pub fn fetch(&self, key: &str) -> Result<SharedObject, CoreError> {
        let stored = self
            .objects
            .get(key)
            .ok_or_else(|| CoreError::Unavailable(format!("object {key}")))?;
        let doc = Document::parse(&stored.xml)?;
        let actual =
            ResourceId::for_object(&stored.community_id, &doc.to_xml_string()).to_string();
        if actual != key {
            return Err(CoreError::IntegrityFailure {
                expected: key.to_string(),
                actual,
            });
        }
        let mut attachments = Vec::new();
        for uri in &stored.attachment_uris {
            let data = self
                .attachments
                .get(uri)
                .cloned()
                .ok_or_else(|| CoreError::Unavailable(format!("attachment {uri}")))?;
            let att = Attachment { uri: uri.clone(), data };
            if !att.verify() {
                return Err(CoreError::IntegrityFailure {
                    expected: uri.clone(),
                    actual: Attachment::uri_for(&att.data),
                });
            }
            attachments.push(att);
        }
        Ok(SharedObject {
            key: key.to_string(),
            community_id: stored.community_id.clone(),
            doc,
            attachments,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn object() -> SharedObject {
        let doc = Document::parse("<song><title>x</title></song>").unwrap();
        SharedObject::new(
            "mp3",
            doc,
            vec![Attachment::from_bytes(&b"bytes"[..])],
        )
    }

    #[test]
    fn put_fetch_round_trip() {
        let mut plane = PayloadPlane::new();
        let o = object();
        plane.put(&o);
        let fetched = plane.fetch(&o.key).unwrap();
        assert_eq!(fetched.xml(), o.xml());
        assert_eq!(fetched.attachments.len(), 1);
        assert_eq!(fetched.attachments[0].data, o.attachments[0].data);
        assert_eq!(plane.len(), 1);
    }

    #[test]
    fn unknown_key_unavailable() {
        let plane = PayloadPlane::new();
        assert!(matches!(plane.fetch("nope"), Err(CoreError::Unavailable(_))));
    }

    #[test]
    fn integrity_enforced() {
        let mut plane = PayloadPlane::new();
        let o = object();
        plane.put(&o);
        // register tampered XML under the honest key
        plane.objects.get_mut(&o.key).unwrap().xml =
            "<song><title>evil</title></song>".to_string();
        assert!(matches!(plane.fetch(&o.key), Err(CoreError::IntegrityFailure { .. })));
    }

    #[test]
    fn a_payload_nested_past_the_parsers_bound_is_an_error() {
        let mut plane = PayloadPlane::new();
        let o = object();
        plane.put(&o);
        // what a provider hands over is its own bytes, however deep
        for depth in [10_000, 200_000] {
            plane.objects.get_mut(&o.key).unwrap().xml =
                format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth));
            assert!(matches!(plane.fetch(&o.key), Err(CoreError::Xml(_))), "{depth}");
        }
    }

    #[test]
    fn attachment_integrity_enforced() {
        let mut plane = PayloadPlane::new();
        let o = object();
        plane.put(&o);
        let uri = o.attachments[0].uri.clone();
        plane.attachments.insert(uri, bytes::Bytes::from_static(b"tampered"));
        assert!(matches!(plane.fetch(&o.key), Err(CoreError::IntegrityFailure { .. })));
    }

    #[test]
    fn standalone_attachments() {
        let mut plane = PayloadPlane::new();
        let a = Attachment::from_bytes(&b"schema text"[..]);
        plane.put_attachment(&a);
        assert_eq!(plane.attachment(&a.uri).unwrap(), a.data);
        assert!(plane.attachment("up2p:attachment:unknown").is_none());
    }
}
