//! Shared objects and their attachments.
//!
//! "The shared object will always be an XML object described by the
//! community schema. It may or may not have links to network accessible
//! files that are flagged as attachments. Attachments are only downloaded
//! when the object is retrieved from a peer." (§IV-C1)

use std::sync::Arc;
use up2p_store::ResourceId;
use up2p_xml::Document;

/// A binary attachment referenced from an object's `up2p:attachment`
/// field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attachment {
    /// Content-addressed URI (`up2p:attachment:<sha1>`).
    pub uri: String,
    /// The payload.
    pub data: Arc<[u8]>,
}

impl Attachment {
    /// The content-addressed URI a payload travels under.
    pub fn uri_for(data: &[u8]) -> String {
        format!("up2p:attachment:{}", ResourceId::for_bytes(data))
    }

    /// Creates an attachment from bytes, deriving its content URI.
    pub fn from_bytes(data: impl Into<Arc<[u8]>>) -> Attachment {
        let data = data.into();
        Attachment { uri: Attachment::uri_for(&data), data }
    }

    /// Verifies the payload still hashes to the URI.
    pub fn verify(&self) -> bool {
        self.uri == Attachment::uri_for(&self.data)
    }
}

/// A shared object: community scope, the XML document, and attachments.
#[derive(Debug, Clone)]
pub struct SharedObject {
    /// Content-derived key (stable across peers).
    pub key: String,
    /// Community the object belongs to.
    pub community_id: String,
    /// The object document.
    pub doc: Document,
    /// Attachments travelling with the object.
    pub attachments: Vec<Attachment>,
}

impl SharedObject {
    /// Builds an object, deriving its key from community and canonical
    /// XML.
    pub fn new(community_id: &str, doc: Document, attachments: Vec<Attachment>) -> SharedObject {
        let key = ResourceId::for_object(community_id, &doc.to_xml_string()).to_string();
        SharedObject { key, community_id: community_id.to_string(), doc, attachments }
    }

    /// Canonical XML text.
    pub fn xml(&self) -> String {
        self.doc.to_xml_string()
    }

    /// Value of the first leaf element with the given name — handy as a
    /// display title.
    pub fn field(&self, name: &str) -> Option<String> {
        let root = self.doc.document_element()?;
        self.doc
            .descendants(root)
            .into_iter()
            .chain(std::iter::once(root))
            .find(|&n| self.doc.local_name(n) == Some(name))
            .map(|n| self.doc.text_content(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attachment_uri_is_content_derived() {
        let a = Attachment::from_bytes(&b"audio-bytes"[..]);
        let b = Attachment::from_bytes(&b"audio-bytes"[..]);
        assert_eq!(a.uri, b.uri);
        assert!(a.verify());
        let mut broken = a.clone();
        broken.data = Arc::from(&b"tampered"[..]);
        assert!(!broken.verify());
    }

    #[test]
    fn object_keys_are_stable() {
        let doc = Document::parse("<song><title>x</title></song>").unwrap();
        let a = SharedObject::new("mp3", doc.clone(), Vec::new());
        let b = SharedObject::new("mp3", doc.clone(), Vec::new());
        assert_eq!(a.key, b.key);
        let c = SharedObject::new("other", doc, Vec::new());
        assert_ne!(a.key, c.key);
    }

    #[test]
    fn field_lookup() {
        let doc =
            Document::parse("<song><title>So What</title><meta><bpm>136</bpm></meta></song>")
                .unwrap();
        let o = SharedObject::new("mp3", doc, Vec::new());
        assert_eq!(o.field("title"), Some("So What".to_string()));
        assert_eq!(o.field("bpm"), Some("136".to_string()));
        assert_eq!(o.field("absent"), None);
    }
}
