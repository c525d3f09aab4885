//! The payload plane: content-addressed object/attachment bytes.
//!
//! The metadata fabric (`up2p-net`) decides *whether and at what cost* a
//! retrieval succeeds; the payload plane is the simulator's stand-in for
//! the direct peer-to-peer transfer that then moves the actual XML and
//! attachment bytes. Integrity is enforced on every fetch: the bytes that
//! arrived must hash to the key they are fetched under, each byte hashed
//! once (DESIGN.md §3h).

use crate::error::CoreError;
use crate::object::{Attachment, SharedObject};
use std::collections::HashMap;
use std::sync::Arc;
use up2p_store::ResourceId;
use up2p_xml::Document;

/// Published object payloads, keyed by content hash.
#[derive(Debug, Clone, Default)]
pub struct PayloadPlane {
    objects: HashMap<String, StoredPayload>,
    attachments: HashMap<String, Arc<[u8]>>,
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
    ///
    /// A key the plane already holds keeps the payload it holds: a key is
    /// a content hash, so it names the same bytes whoever puts it, and a
    /// download shared onward is not serialised again. So does an
    /// attachment URI, and an object carrying other bytes under a held
    /// URI is not registered: no two byte strings hash to one URI. Nor is
    /// one whose attachment under a new URI does not hash to it, so the
    /// first bytes put under a URI cannot forge it; only a new URI's bytes
    /// are hashed.
    pub fn put(&mut self, object: &SharedObject) {
        let forged = |a: &Attachment| match self.attachments.get(&a.uri) {
            Some(held) => **held != *a.data,
            None => !a.verify(),
        };
        if self.objects.contains_key(&object.key) || object.attachments.iter().any(forged) {
            return;
        }
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
    /// The check is on the bytes held, before they are parsed: the XML
    /// must hash to `key` as it stands, not after a parse and
    /// re-serialisation. An honest payload is the serialiser's own output
    /// and passes unchanged; bytes that only canonicalise to `key` — other
    /// quoting, other spacing — are refused.
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
        let actual = ResourceId::for_object(&stored.community_id, &stored.xml);
        if actual.as_hex() != key {
            return Err(CoreError::IntegrityFailure {
                expected: key.to_string(),
                actual: actual.to_string(),
            });
        }
        let doc = Document::parse(&stored.xml)?;
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
    use crate::{Community, FormKind, FormModel, InputKind, Servent};
    use up2p_net::{build_network, PeerId, ProtocolKind};
    use up2p_schema::{FieldKind, SchemaBuilder};

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

    /// Registers `xml` under `key` as a provider would: its own bytes,
    /// whatever they are.
    fn hand_over(plane: &mut PayloadPlane, key: &str, xml: String) {
        let stored = StoredPayload {
            community_id: "mp3".to_string(),
            xml,
            attachment_uris: Vec::new(),
        };
        plane.objects.insert(key.to_string(), stored);
    }

    #[test]
    fn a_payload_nested_past_the_parsers_bound_is_an_error() {
        let mut plane = PayloadPlane::new();
        // under its own key the hash passes, and the parser's depth bound
        // is what refuses it
        for depth in [10_000, 200_000] {
            let deep = format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth));
            let key = ResourceId::for_object("mp3", &deep).to_string();
            hand_over(&mut plane, &key, deep);
            assert!(matches!(plane.fetch(&key), Err(CoreError::Xml(_))), "{depth}");
        }
    }

    #[test]
    fn a_payload_that_only_canonicalises_to_its_key_is_refused() {
        let doc = Document::parse(r#"<song lang="en"><title>x</title></song>"#).unwrap();
        let honest = SharedObject::new("mp3", doc, Vec::new());
        let xml = honest.xml();
        assert_eq!(xml, r#"<song lang="en"><title>x</title></song>"#);
        let mut plane = PayloadPlane::new();
        hand_over(&mut plane, &honest.key, xml.clone());
        assert_eq!(plane.fetch(&honest.key).unwrap().xml(), xml, "the honest bytes pass");
        // each parses and re-serialises to the honest bytes
        for variant in [xml.replace("<title>", "<title >"), xml.replace('"', "'")] {
            assert_eq!(Document::parse(&variant).unwrap().to_xml_string(), xml);
            hand_over(&mut plane, &honest.key, variant.clone());
            assert!(
                matches!(plane.fetch(&honest.key), Err(CoreError::IntegrityFailure { .. })),
                "{variant}"
            );
        }
    }

    #[test]
    fn put_keeps_the_payload_a_key_already_holds() {
        let mut plane = PayloadPlane::new();
        let o = object();
        plane.put(&o);
        let held = plane.objects[&o.key].xml.clone();
        // the same key put again — a download shared onward — writes nothing
        let mut again = plane.fetch(&o.key).unwrap();
        again.attachments.clear();
        plane.put(&again);
        assert_eq!(plane.objects[&o.key].xml, held);
        assert_eq!(plane.fetch(&o.key).unwrap().attachments, o.attachments);
        assert_eq!(plane.len(), 1);
    }

    /// Community `i` in the benchmark generator's style: a `title`, a
    /// `kind` and `2 + i % 6` fields cycling through the input kinds, with
    /// custom view and form stylesheets.
    fn generated_community(i: usize) -> Community {
        let root = format!("c{i:02}item");
        let mut b = SchemaBuilder::new(root.as_str());
        b.field(FieldKind::text("title").searchable())
            .field(FieldKind::enumeration("kind", ["a", "b", "c", "d"]).searchable());
        for j in 0..2 + i % 6 {
            let name = format!("f{j}");
            b.field(match (i + j) % 5 {
                0 => FieldKind::text(name).searchable(),
                1 => FieldKind::integer(name),
                2 => FieldKind::enumeration(name, ["low", "mid", "high"]).searchable(),
                3 => FieldKind::boolean(name),
                _ => FieldKind::text(name),
            });
        }
        let sheet = |body: &str| {
            format!(
                r#"<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
  <xsl:template match="/"><div class="c{i:02}">{body}</div></xsl:template>
</xsl:stylesheet>"#
            )
        };
        Community::from_builder(
            &format!("community c{i:02} & \"friends\""),
            &format!("Synthetic <sharing> community number {i}, café ✓"),
            &format!("topic{i:02} cat{} sharing", i % 8),
            &format!("cat{}", i % 8),
            "Napster",
            &b,
        )
        .unwrap()
        .with_display_style(sheet(r#"<xsl:value-of select="*[1]"/>"#))
        .with_create_style(sheet("create"))
        .with_search_style(sheet("search"))
    }

    /// The check `fetch` makes is on the stored bytes, so an honest
    /// payload passes only if the serialiser's output is a fixed point of
    /// parse and serialise: every community object and object fetches to
    /// a document that keys to the key it was fetched under.
    #[test]
    fn every_fetched_document_keys_to_the_key_it_was_fetched_under() {
        let mut net = build_network(ProtocolKind::Napster, 4, 1);
        let mut plane = PayloadPlane::new();
        let mut author = Servent::new(PeerId(1));
        let mut keys = Vec::new();
        for i in 0..16 {
            let community = generated_community(i);
            keys.push(author.publish_community(&mut *net, &mut plane, &community).unwrap());
            let form = FormModel::derive(&community, FormKind::Create);
            for k in 0..3 {
                let values: Vec<(&str, String)> = form
                    .fields
                    .iter()
                    .map(|field| {
                        let value = match &field.input {
                            InputKind::Select(options) => options[k % options.len()].clone(),
                            InputKind::Checkbox => (k % 2 == 0).to_string(),
                            InputKind::Number => (i * 7 + k).to_string(),
                            _ => format!(" a <b> & 'c' \"d\" é\t{i}x{k}  "),
                        };
                        (field.name.as_str(), value)
                    })
                    .collect();
                let values: Vec<(&str, &str)> =
                    values.iter().map(|(f, v)| (*f, v.as_str())).collect();
                let object = author.create_object(&community.id, &values).unwrap();
                keys.push(author.publish(&mut *net, &mut plane, &object).unwrap());
            }
        }
        assert_eq!(plane.len(), 16 * 4);
        for key in &keys {
            let fetched = plane.fetch(key).unwrap();
            let rekeyed = SharedObject::new(&fetched.community_id, fetched.doc, Vec::new());
            assert_eq!(&rekeyed.key, key);
        }
    }

    #[test]
    fn attachment_integrity_enforced() {
        let mut plane = PayloadPlane::new();
        let o = object();
        plane.put(&o);
        let uri = o.attachments[0].uri.clone();
        plane.attachments.insert(uri, Arc::from(&b"tampered"[..]));
        assert!(matches!(plane.fetch(&o.key), Err(CoreError::IntegrityFailure { .. })));
    }

    #[test]
    fn standalone_attachments() {
        // an attachment is held once under its content URI, whichever
        // object brought it: two objects naming the same schema fetch it
        let mut plane = PayloadPlane::new();
        let schema = Attachment::from_bytes(&b"schema text"[..]);
        let song = |title: &str| {
            let doc = Document::parse(&format!("<song><title>{title}</title></song>")).unwrap();
            SharedObject::new("mp3", doc, vec![schema.clone()])
        };
        let (a, b) = (song("a"), song("b"));
        // other bytes under the schema's URI do not replace the held ones
        let mut forger = song("forger");
        forger.attachments[0].data = Arc::from(&b"forged schema"[..]);
        plane.put(&a);
        plane.put(&forger);
        plane.put(&b);
        for key in [&a.key, &b.key] {
            assert_eq!(plane.fetch(key).unwrap().attachments, vec![schema.clone()]);
        }
        assert!(plane.fetch(&forger.key).is_err(), "the forger's object is not served");
        assert_eq!(plane.attachments.len(), 1);
        // a forger who puts first under a URI nobody holds yet registers
        // nothing, and the honest objects after it are served
        let mut plane = PayloadPlane::new();
        plane.put(&forger);
        plane.put(&a);
        plane.put(&b);
        for key in [&a.key, &b.key] {
            assert_eq!(plane.fetch(key).unwrap().attachments, vec![schema.clone()]);
        }
        assert!(plane.fetch(&forger.key).is_err(), "the forger's object is not served");
        assert_eq!(plane.len(), 2);
        // a URI nobody put is unavailable
        let unknown = "up2p:attachment:unknown".to_string();
        plane.objects.get_mut(&b.key).unwrap().attachment_uris.push(unknown);
        assert!(matches!(plane.fetch(&b.key), Err(CoreError::Unavailable(_))));
    }
}
