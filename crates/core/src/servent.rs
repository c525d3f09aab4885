//! The U-P2P servent: create / search / view over any [`PeerNetwork`].
//!
//! One servent per peer. It owns the peer's local repository and joined
//! communities; network and payload plane are passed in per call so many
//! servents can share one simulated fabric.

use crate::community::Community;
use crate::error::CoreError;
use crate::forms::{self, FormCache, FormKind};
use crate::object::{Attachment, SharedObject};
use crate::payload::PayloadPlane;
use crate::root::ROOT_COMMUNITY_ID;
use crate::stylesheets;
use std::collections::HashMap;
use up2p_net::{
    PeerId, PeerNetwork, ResourceRecord, RetrieveOutcome, SearchHit, SearchOutcome, SharedFields,
};
use up2p_store::{Query, Repository};

/// A U-P2P peer: local repository, joined communities, and the paper's
/// create/search/view functions.
///
/// Every servent is born a member of the Root Community and can therefore
/// discover and join further communities over the network (§IV-A).
#[derive(Debug)]
pub struct Servent {
    peer: PeerId,
    repository: Repository,
    communities: HashMap<String, Community>,
}

impl Servent {
    /// Creates a servent for `peer`, joined to the root community.
    pub fn new(peer: PeerId) -> Servent {
        let mut communities = HashMap::new();
        let root = Community::root();
        communities.insert(root.id.clone(), root);
        Servent { peer, repository: Repository::new(), communities }
    }

    /// The peer this servent runs on.
    pub fn peer(&self) -> PeerId {
        self.peer
    }

    /// The local repository (objects this peer shares or downloaded).
    pub fn repository(&self) -> &Repository {
        &self.repository
    }

    /// Joined communities, root included.
    pub fn communities(&self) -> impl Iterator<Item = &Community> {
        self.communities.values()
    }

    /// Looks up a joined community.
    pub fn community(&self, id: &str) -> Option<&Community> {
        self.communities.get(id)
    }

    fn community_or_err(&self, id: &str) -> Result<&Community, CoreError> {
        self.communities.get(id).ok_or_else(|| CoreError::UnknownCommunity(id.to_string()))
    }

    /// Joins a community whose definition is already at hand (local
    /// creation; the network path is [`Servent::join_from_hit`]).
    pub fn join(&mut self, community: Community) -> &Community {
        let id = community.id.clone();
        self.communities.entry(id).or_insert(community)
    }

    /// Leaves a community (the root community cannot be left).
    pub fn leave(&mut self, id: &str) -> bool {
        if id == ROOT_COMMUNITY_ID {
            return false;
        }
        self.communities.remove(id).is_some()
    }

    // -----------------------------------------------------------------
    // Create function (§IV-C1)
    // -----------------------------------------------------------------

    /// Creates a shared object from form values, validating against the
    /// community schema.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownCommunity`], [`CoreError::MissingField`] or
    /// [`CoreError::Validation`].
    pub fn create_object(
        &self,
        community_id: &str,
        values: &[(&str, &str)],
    ) -> Result<SharedObject, CoreError> {
        self.create_object_with_attachments(community_id, values, Vec::new())
    }

    /// Creates a shared object carrying attachments. Attachment URIs are
    /// substituted into the schema's attachment fields automatically when
    /// the caller passes the field value `"@<attachment-index>"`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Servent::create_object`].
    pub fn create_object_with_attachments(
        &self,
        community_id: &str,
        values: &[(&str, &str)],
        attachments: Vec<Attachment>,
    ) -> Result<SharedObject, CoreError> {
        let community = self.community_or_err(community_id)?;
        // resolve "@N" placeholders to attachment URIs
        let resolved: Vec<(&str, String)> = values
            .iter()
            .map(|(k, v)| {
                let value = if let Some(idx) = v.strip_prefix('@') {
                    idx.parse::<usize>()
                        .ok()
                        .and_then(|i| attachments.get(i))
                        .map(|a| a.uri.clone())
                        .unwrap_or_else(|| (*v).to_string())
                } else {
                    (*v).to_string()
                };
                (*k, value)
            })
            .collect();
        let borrowed: Vec<(&str, &str)> =
            resolved.iter().map(|(k, v)| (*k, v.as_str())).collect();
        let doc = forms::fill_fields(
            community.compiled().form_fields(FormKind::Create),
            community.object_root_name(),
            &borrowed,
        )?;
        community.validate(&doc)?;
        Ok(SharedObject::new(community_id, doc, attachments))
    }

    /// Stores an object locally and announces it on the network
    /// (publish ≈ the paper's create primitive reaching the P2P layer).
    ///
    /// The extracted metadata is allocated once here and then shared by
    /// reference: the local repository, its index, the network record
    /// uploaded to index nodes and every search hit other peers receive
    /// all hold the same allocation.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownCommunity`] when the servent is not a member.
    pub fn publish(
        &mut self,
        net: &mut dyn PeerNetwork,
        plane: &mut PayloadPlane,
        object: &SharedObject,
    ) -> Result<String, CoreError> {
        let community = self.community_or_err(&object.community_id)?;
        let fields: SharedFields = self.index_fields(community, object)?.into();
        self.repository.insert_with_fields(
            &object.community_id,
            object.doc.clone(),
            SharedFields::clone(&fields),
        );
        plane.put(object);
        net.publish(
            self.peer,
            ResourceRecord {
                key: object.key.clone(),
                community: object.community_id.clone(),
                fields,
            },
        );
        Ok(object.key.clone())
    }

    /// Extracts the metadata fields to index for an object, using the
    /// community's custom indexer stylesheet when present, else native
    /// extraction of the searchable paths.
    fn index_fields(
        &self,
        community: &Community,
        object: &SharedObject,
    ) -> Result<Vec<(String, String)>, CoreError> {
        match &community.index_style {
            Some(xslt) => stylesheets::apply_index_style(xslt, &object.doc),
            None => Ok(community.compiled().indexed.extract(&object.doc)),
        }
    }

    /// Publishes a *community* into the root community — the metaclass
    /// move that makes it discoverable. The community object travels with
    /// its schema (and the custom stylesheets its object names) as
    /// attachments.
    ///
    /// # Errors
    ///
    /// Propagates from [`Servent::publish`].
    pub fn publish_community(
        &mut self,
        net: &mut dyn PeerNetwork,
        plane: &mut PayloadPlane,
        community: &Community,
    ) -> Result<String, CoreError> {
        self.join(community.clone());
        let mut attachments =
            vec![Attachment::from_bytes(community.schema_xsd.clone().into_bytes())];
        // the three sheets the community object names (Fig. 3); the index
        // filter is servent-local, no joiner could look it up
        for style in [&community.display_style, &community.create_style, &community.search_style]
            .into_iter()
            .flatten()
        {
            attachments.push(Attachment::from_bytes(style.clone().into_bytes()));
        }
        let object =
            SharedObject::new(ROOT_COMMUNITY_ID, community.to_object(), attachments);
        self.publish(net, plane, &object)
    }

    // -----------------------------------------------------------------
    // Search function (§IV-C2)
    // -----------------------------------------------------------------

    /// Searches a community over the network. Local repository results
    /// are not duplicated — the network layer already reports the
    /// servent's own shared objects as hops-0 hits where applicable.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownCommunity`] when not a member (the paper: "a
    /// user must join a community … in order to conduct searches in that
    /// community").
    pub fn search(
        &mut self,
        net: &mut dyn PeerNetwork,
        community_id: &str,
        query: &Query,
    ) -> Result<SearchOutcome, CoreError> {
        self.community_or_err(community_id)?;
        Ok(net.search(self.peer, community_id, query))
    }

    /// Searches with a CMIP-style filter string (the paper's query
    /// format).
    ///
    /// # Errors
    ///
    /// Adds [`CoreError::Store`] for malformed filters.
    pub fn search_cmip(
        &mut self,
        net: &mut dyn PeerNetwork,
        community_id: &str,
        filter: &str,
    ) -> Result<SearchOutcome, CoreError> {
        let query = up2p_store::parse_cmip(filter)?;
        self.search(net, community_id, &query)
    }

    /// Community discovery: searches the root community for community
    /// objects (§IV-A — "through the same facility, users can search for
    /// objects within a community or search for a community itself").
    ///
    /// # Errors
    ///
    /// Propagates from [`Servent::search`].
    pub fn discover_communities(
        &mut self,
        net: &mut dyn PeerNetwork,
        query: &Query,
    ) -> Result<SearchOutcome, CoreError> {
        self.search(net, ROOT_COMMUNITY_ID, query)
    }

    // -----------------------------------------------------------------
    // Download / retrieve (§IV-C2 end)
    // -----------------------------------------------------------------

    /// Downloads the object behind a search hit: retrieves it (and its
    /// attachments) from the providing peer, stores it locally, and — per
    /// the replication behavior that made Napster robust (§II) — shares
    /// it onward.
    ///
    /// # Errors
    ///
    /// [`CoreError::Unavailable`] when the provider is gone,
    /// [`CoreError::IntegrityFailure`] on hash mismatch.
    pub fn download(
        &mut self,
        net: &mut dyn PeerNetwork,
        plane: &mut PayloadPlane,
        hit: &SearchHit,
    ) -> Result<SharedObject, CoreError> {
        let object = self.retrieve(net, plane, hit)?;
        self.keep(net, plane, &object)?;
        Ok(object)
    }

    /// Retrieves the object behind a hit from its provider and verifies
    /// it against the hit's key, storing nothing.
    fn retrieve(
        &self,
        net: &mut dyn PeerNetwork,
        plane: &PayloadPlane,
        hit: &SearchHit,
    ) -> Result<SharedObject, CoreError> {
        match net.retrieve(self.peer, hit.provider, &hit.key) {
            RetrieveOutcome::Unavailable => {
                Err(CoreError::Unavailable(format!("object {} at {}", hit.key, hit.provider)))
            }
            RetrieveOutcome::Fetched { .. } => plane.fetch(&hit.key),
        }
    }

    /// Stores a downloaded object of a joined community and shares it
    /// onward.
    fn keep(
        &mut self,
        net: &mut dyn PeerNetwork,
        plane: &mut PayloadPlane,
        object: &SharedObject,
    ) -> Result<(), CoreError> {
        if self.communities.contains_key(&object.community_id) {
            self.publish(net, plane, object)?;
        }
        Ok(())
    }

    /// Discovers, downloads and joins a community from a root-community
    /// search hit: fetches the community object plus its schema
    /// attachment and becomes a member.
    ///
    /// Only an object of the root community defines a community. Its key
    /// is the hash of the root community id and the bytes the fetch just
    /// verified, which is how the community id is derived, so the key is
    /// the id and the object is not serialised and hashed again.
    ///
    /// # Errors
    ///
    /// Propagates download errors; [`CoreError::Unavailable`] when the
    /// object is no root-community object (nothing is joined or stored)
    /// or the schema attachment is missing.
    pub fn join_from_hit(
        &mut self,
        net: &mut dyn PeerNetwork,
        plane: &mut PayloadPlane,
        hit: &SearchHit,
    ) -> Result<String, CoreError> {
        let object = self.retrieve(net, plane, hit)?;
        if object.community_id != ROOT_COMMUNITY_ID {
            return Err(CoreError::Unavailable(format!("community object {}", object.key)));
        }
        self.keep(net, plane, &object)?;
        // the schema and any custom stylesheets travel as attachments,
        // matched to the URIs the object names by content hash
        let atts: Vec<_> = object
            .attachments
            .iter()
            .map(|a| (a.uri.as_str(), String::from_utf8_lossy(&a.data)))
            .collect();
        let doc = &object.doc;
        let schema_uri = doc
            .document_element()
            .and_then(|root| doc.child_named(root, "schema"))
            .map(|n| doc.text_content(n));
        let (_, xsd) = atts
            .iter()
            .find(|(uri, _)| schema_uri.as_deref() == Some(*uri))
            .ok_or_else(|| CoreError::Unavailable("community schema attachment".into()))?;
        let community = Community::from_verified_object(object.key.clone(), doc, xsd, &atts)?;
        let id = community.id.clone();
        self.join(community);
        Ok(id)
    }

    // -----------------------------------------------------------------
    // View function (§IV-C3) and generated interfaces
    // -----------------------------------------------------------------

    /// HTML create form for a community (generated from its schema via
    /// the community's create stylesheet or the default).
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownCommunity`] or stylesheet failures.
    pub fn create_form_html(&self, community_id: &str) -> Result<String, CoreError> {
        self.form_html(community_id, FormKind::Create)
    }

    /// HTML search form for a community (searchable fields only).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Servent::create_form_html`].
    pub fn search_form_html(&self, community_id: &str) -> Result<String, CoreError> {
        self.form_html(community_id, FormKind::Search)
    }

    fn form_html(&self, community_id: &str, kind: FormKind) -> Result<String, CoreError> {
        let page = FormCache::global().get(self.community_or_err(community_id)?, kind)?;
        Ok(String::from(&*page))
    }

    /// HTML view of an object via the community's display stylesheet (or
    /// the default).
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownCommunity`] or stylesheet failures.
    pub fn view_html(&self, object: &SharedObject) -> Result<String, CoreError> {
        let community = self.community_or_err(&object.community_id)?;
        stylesheets::render_view(&object.doc, community.display_style.as_deref())
    }

    /// Objects of a community in the local repository (shared or
    /// downloaded) — the paper's browse view.
    pub fn local_objects(&self, community_id: &str) -> Vec<&up2p_store::StoredObject> {
        self.repository.search(Some(community_id), &Query::All)
    }

    // -----------------------------------------------------------------
    // Persistence: a servent survives restarts
    // -----------------------------------------------------------------

    /// Persists the servent's state (joined communities with their
    /// schemas and stylesheets, plus the local repository) under `dir`.
    ///
    /// The repository is written as a durable-store snapshot (compacted
    /// segment + manifest), so [`Servent::load_state`] recovers it from
    /// pre-tokenized postings without re-indexing.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Store`] on I/O failures.
    pub fn save_state(&self, dir: &std::path::Path) -> Result<(), CoreError> {
        use up2p_xml::ElementBuilder;
        up2p_store::DurableRepository::save_snapshot(&self.repository, &dir.join("repository"))?;
        let cdir = dir.join("communities");
        std::fs::create_dir_all(&cdir).map_err(up2p_store::StoreError::from)?;
        for community in self.communities.values() {
            if community.id == ROOT_COMMUNITY_ID {
                continue; // rebuilt on load
            }
            let mut wrapper = ElementBuilder::new("saved-community")
                .child_text("schema-xsd", community.schema_xsd.clone());
            for (kind, style) in [
                ("display", &community.display_style),
                ("create", &community.create_style),
                ("search", &community.search_style),
                ("index", &community.index_style),
            ] {
                if let Some(text) = style {
                    wrapper = wrapper.child(
                        ElementBuilder::new("style").attr("kind", kind).text(text.clone()),
                    );
                }
            }
            let mut doc = up2p_xml::Document::new();
            let root = doc.root();
            let saved = wrapper.attach(&mut doc, root);
            let holder = ElementBuilder::new("object").attach(&mut doc, saved);
            let obj = community.to_object();
            for &node in obj.children(obj.root()) {
                let copied = doc.import_subtree(&obj, node);
                doc.append_child(holder, copied);
            }
            std::fs::write(cdir.join(format!("{}.xml", community.id)), doc.to_xml_string())
                .map_err(up2p_store::StoreError::from)?;
        }
        // the directory is the membership: a file an earlier save left
        // for a community since left would rejoin it on load
        for entry in std::fs::read_dir(&cdir).map_err(up2p_store::StoreError::from)? {
            let path = entry.map_err(up2p_store::StoreError::from)?.path();
            let member = path
                .file_stem()
                .and_then(|id| id.to_str())
                .is_some_and(|id| self.communities.contains_key(id));
            if path.extension().is_some_and(|e| e == "xml") && !member {
                std::fs::remove_file(&path).map_err(up2p_store::StoreError::from)?;
            }
        }
        Ok(())
    }

    /// Restores a servent previously written by [`Servent::save_state`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Store`] for I/O and format problems —
    /// including a `repository` directory with no durable-store manifest,
    /// which is refused rather than loaded empty — plus schema errors for
    /// corrupt community files.
    pub fn load_state(peer: PeerId, dir: &std::path::Path) -> Result<Servent, CoreError> {
        let mut servent = Servent::new(peer);
        (servent.repository, _) =
            up2p_store::DurableRepository::recover(&dir.join("repository"))?;
        let cdir = dir.join("communities");
        if cdir.is_dir() {
            let mut entries: Vec<_> = std::fs::read_dir(&cdir)
                .map_err(up2p_store::StoreError::from)?
                .collect::<Result<Vec<_>, _>>()
                .map_err(up2p_store::StoreError::from)?
                .into_iter()
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|e| e == "xml"))
                .collect();
            entries.sort();
            for path in entries {
                let text =
                    std::fs::read_to_string(&path).map_err(up2p_store::StoreError::from)?;
                let doc = up2p_xml::Document::parse(&text)?;
                let root = doc.document_element().ok_or_else(|| {
                    CoreError::Unavailable(format!("saved community at {}", path.display()))
                })?;
                let xsd = doc
                    .child_named(root, "schema-xsd")
                    .map(|n| doc.text_content(n))
                    .ok_or_else(|| CoreError::MissingField("schema-xsd".to_string()))?;
                let holder = doc
                    .child_named(root, "object")
                    .and_then(|h| doc.child_elements(h).next())
                    .ok_or_else(|| CoreError::MissingField("object".to_string()))?;
                let mut obj_doc = up2p_xml::Document::new();
                let copied = obj_doc.import_subtree(&doc, holder);
                let obj_root = obj_doc.root();
                obj_doc.append_child(obj_root, copied);
                let mut community = Community::from_object(&obj_doc, &xsd)?;
                for style in doc.children_named(root, "style") {
                    let text = doc.text_content(style);
                    match doc.attr(style, "kind") {
                        Some("display") => community.display_style = Some(text),
                        Some("create") => community.create_style = Some(text),
                        Some("search") => community.search_style = Some(text),
                        Some("index") => community.index_style = Some(text),
                        _ => {}
                    }
                }
                servent.join(community);
            }
        }
        Ok(servent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use up2p_net::{build_network, ProtocolKind};
    use up2p_schema::{FieldKind, SchemaBuilder};

    fn pattern_community() -> Community {
        let mut b = SchemaBuilder::new("pattern");
        b.field(FieldKind::text("name").searchable())
            .field(FieldKind::text("category").searchable())
            .field(FieldKind::text("intent").searchable())
            .field(FieldKind::text("structure"));
        Community::from_builder(
            "design-patterns",
            "software design patterns",
            "patterns gof software",
            "software",
            "Gnutella",
            &b,
        )
        .unwrap()
    }

    struct World {
        net: Box<dyn PeerNetwork + Send>,
        plane: PayloadPlane,
    }

    fn world(kind: ProtocolKind, n: usize) -> World {
        World { net: build_network(kind, n, 42), plane: PayloadPlane::new() }
    }

    #[test]
    fn servent_starts_in_root_community() {
        let s = Servent::new(PeerId(0));
        assert!(s.community(ROOT_COMMUNITY_ID).is_some());
        assert_eq!(s.communities().count(), 1);
    }

    #[test]
    fn create_publish_search_download_view() {
        let mut w = world(ProtocolKind::Napster, 4);
        let community = pattern_community();

        let mut alice = Servent::new(PeerId(1));
        alice.join(community.clone());
        let obj = alice
            .create_object(
                &community.id,
                &[
                    ("name", "Observer"),
                    ("category", "behavioral"),
                    ("intent", "notify dependents automatically"),
                    ("structure", "subject observers"),
                ],
            )
            .unwrap();
        alice.publish(&mut *w.net, &mut w.plane, &obj).unwrap();

        let mut bob = Servent::new(PeerId(2));
        bob.join(community.clone());
        let out = bob
            .search(&mut *w.net, &community.id, &Query::any_keyword("observer"))
            .unwrap();
        assert_eq!(out.hits.len(), 1);
        let downloaded = bob.download(&mut *w.net, &mut w.plane, &out.hits[0]).unwrap();
        assert_eq!(downloaded.key, obj.key);
        assert_eq!(bob.local_objects(&community.id).len(), 1);

        let html = bob.view_html(&downloaded).unwrap();
        assert!(html.contains("Observer"));
    }

    #[test]
    fn create_rejects_invalid_values() {
        let mut s = Servent::new(PeerId(0));
        let community = pattern_community();
        s.join(community.clone());
        let err = s.create_object(&community.id, &[("name", "x")]).unwrap_err();
        assert!(matches!(err, CoreError::MissingField(_)));
    }

    #[test]
    fn search_requires_membership() {
        let mut s = Servent::new(PeerId(0));
        let mut w = world(ProtocolKind::Napster, 2);
        let err = s.search(&mut *w.net, "nope", &Query::All).unwrap_err();
        assert!(matches!(err, CoreError::UnknownCommunity(_)));
    }

    #[test]
    fn community_discovery_and_join_over_network() {
        let mut w = world(ProtocolKind::Gnutella, 16);
        let community = pattern_community();

        // peer 1 publishes the community into the root community
        let mut publisher = Servent::new(PeerId(1));
        publisher.publish_community(&mut *w.net, &mut w.plane, &community).unwrap();

        // peer 9 discovers it by keyword and joins
        let mut seeker = Servent::new(PeerId(9));
        let out = seeker
            .discover_communities(&mut *w.net, &Query::any_keyword("patterns"))
            .unwrap();
        assert!(!out.hits.is_empty(), "community object should be discoverable");
        let joined_id = seeker.join_from_hit(&mut *w.net, &mut w.plane, &out.hits[0]).unwrap();
        assert_eq!(joined_id, community.id, "schema + object reproduce the same identity");
        assert!(seeker.community(&joined_id).is_some());

        // and can immediately search inside it
        let obj = publisher
            .create_object(
                &community.id,
                &[
                    ("name", "Visitor"),
                    ("category", "behavioral"),
                    ("intent", "represent an operation"),
                    ("structure", "s"),
                ],
            )
            .unwrap();
        publisher.publish(&mut *w.net, &mut w.plane, &obj).unwrap();
        let hits = seeker
            .search(&mut *w.net, &joined_id, &Query::any_keyword("visitor"))
            .unwrap();
        assert_eq!(hits.hits.len(), 1);
    }

    /// Publishes `community`'s object into the root community with the
    /// given attachments, then has a second peer discover and join it.
    fn join_published(
        community: &Community,
        attachments: Vec<Attachment>,
    ) -> (Servent, Result<String, CoreError>) {
        let mut w = world(ProtocolKind::Napster, 4);
        let object = SharedObject::new(ROOT_COMMUNITY_ID, community.to_object(), attachments);
        Servent::new(PeerId(1)).publish(&mut *w.net, &mut w.plane, &object).unwrap();
        let mut seeker = Servent::new(PeerId(2));
        let out = seeker
            .discover_communities(&mut *w.net, &Query::any_keyword("patterns"))
            .unwrap();
        let joined = seeker.join_from_hit(&mut *w.net, &mut w.plane, &out.hits[0]);
        (seeker, joined)
    }

    const CUSTOM_VIEW: &str = r#"<xsl:stylesheet version="1.0"
        xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
      <xsl:template match="/"><h1><xsl:value-of select="//name"/></h1></xsl:template>
    </xsl:stylesheet>"#;

    #[test]
    fn join_finds_the_schema_attachment_by_uri_not_by_position() {
        let community = pattern_community().with_display_style(CUSTOM_VIEW);
        // the stylesheet travels first, the schema last
        let (seeker, joined) = join_published(
            &community,
            vec![
                Attachment::from_bytes(CUSTOM_VIEW.as_bytes().to_vec()),
                Attachment::from_bytes(community.schema_xsd.clone().into_bytes()),
            ],
        );
        let joined = seeker.community(&joined.unwrap()).unwrap();
        assert_eq!(joined.id, community.id);
        assert_eq!(joined.schema_xsd, community.schema_xsd);
        assert_eq!(joined.object_root_name(), "pattern");
        assert_eq!(joined.display_style.as_deref(), Some(CUSTOM_VIEW));
    }

    #[test]
    fn publish_community_attaches_exactly_what_the_object_names() {
        let sheet = |tag: &str| CUSTOM_VIEW.replace("h1", tag);
        let community = pattern_community()
            .with_display_style(sheet("h1"))
            .with_create_style(sheet("h2"))
            .with_search_style(sheet("h3"))
            .with_index_style(sheet("h4"));
        let mut w = world(ProtocolKind::Napster, 4);
        let key = Servent::new(PeerId(1))
            .publish_community(&mut *w.net, &mut w.plane, &community)
            .unwrap();
        let object = w.plane.fetch(&key).unwrap();
        // the schema first, then the three sheets Fig. 3 has a field for;
        // the servent-local index filter has no URI to be found under
        assert_eq!(object.attachments.len(), 4);
        assert_eq!(object.attachments[0].uri, community.schema_uri());
        let named = object.xml();
        for attachment in &object.attachments {
            assert!(named.contains(&attachment.uri), "{} travels unnamed", attachment.uri);
        }

        let mut seeker = Servent::new(PeerId(2));
        let out = seeker
            .discover_communities(&mut *w.net, &Query::any_keyword("patterns"))
            .unwrap();
        let id = seeker.join_from_hit(&mut *w.net, &mut w.plane, &out.hits[0]).unwrap();
        let joined = seeker.community(&id).unwrap();
        assert_eq!(joined.id, community.id);
        assert_eq!(joined.display_style, community.display_style);
        assert_eq!(joined.create_style, community.create_style);
        assert_eq!(joined.search_style, community.search_style);
        assert_eq!(joined.index_style, None);
    }

    #[test]
    fn join_refuses_a_schema_the_community_object_does_not_name() {
        let community = pattern_community();
        let mut other = SchemaBuilder::new("song");
        other.field(FieldKind::text("title").searchable());
        // a valid XSD at index 0, but not the one `<schema>` names
        let (seeker, joined) =
            join_published(&community, vec![Attachment::from_bytes(other.to_xsd().into_bytes())]);
        assert!(
            matches!(&joined, Err(CoreError::Unavailable(what)) if what == "community schema attachment"),
            "{joined:?}"
        );
        assert!(seeker.community(&community.id).is_none());
    }

    /// An object of an ordinary community can look like a community
    /// object — Fig. 3's six descriptive fields and a `schema` naming an
    /// attached XSD — but only the root community's objects define
    /// communities, so joining from its hit is refused and joins nothing.
    #[test]
    fn join_refuses_an_object_of_another_community() {
        let mut b = SchemaBuilder::new("community");
        for field in ["name", "description", "keywords", "category", "security", "protocol"] {
            b.field(FieldKind::text(field).searchable());
        }
        b.field(FieldKind::uri("schema").attachment());
        let lookalikes =
            Community::from_builder("lookalikes", "d", "k", "c", "Napster", &b).unwrap();
        let mut w = world(ProtocolKind::Napster, 4);
        let mut alice = Servent::new(PeerId(1));
        alice.join(lookalikes.clone());
        let xsd = pattern_community().schema_xsd;
        let object = alice
            .create_object_with_attachments(
                &lookalikes.id,
                &[
                    ("name", "design-patterns"),
                    ("description", "software design patterns"),
                    ("keywords", "patterns gof software"),
                    ("category", "software"),
                    ("security", ""),
                    ("protocol", "Gnutella"),
                    ("schema", "@0"),
                ],
                vec![Attachment::from_bytes(xsd.into_bytes())],
            )
            .unwrap();
        alice.publish(&mut *w.net, &mut w.plane, &object).unwrap();

        let mut bob = Servent::new(PeerId(2));
        bob.join(lookalikes.clone());
        let out = bob.search(&mut *w.net, &lookalikes.id, &Query::any_keyword("patterns")).unwrap();
        assert_eq!(out.hits.len(), 1);
        let joined = bob.join_from_hit(&mut *w.net, &mut w.plane, &out.hits[0]);
        assert!(
            matches!(&joined, Err(CoreError::Unavailable(what)) if what.contains(&object.key)),
            "{joined:?}"
        );
        assert_eq!(bob.communities().count(), 2, "root and lookalikes only");
        assert!(bob.local_objects(&lookalikes.id).is_empty(), "nothing stored");
    }

    #[test]
    fn download_replicates_by_default() {
        let mut w = world(ProtocolKind::Napster, 4);
        let community = pattern_community();
        let mut a = Servent::new(PeerId(1));
        a.join(community.clone());
        let obj = a
            .create_object(
                &community.id,
                &[
                    ("name", "Observer"),
                    ("category", "behavioral"),
                    ("intent", "i"),
                    ("structure", "s"),
                ],
            )
            .unwrap();
        a.publish(&mut *w.net, &mut w.plane, &obj).unwrap();

        let mut b = Servent::new(PeerId(2));
        b.join(community.clone());
        let out = b.search(&mut *w.net, &community.id, &Query::any_keyword("observer")).unwrap();
        b.download(&mut *w.net, &mut w.plane, &out.hits[0]).unwrap();

        // now two providers serve the object
        let mut c = Servent::new(PeerId(3));
        c.join(community.clone());
        let out = c.search(&mut *w.net, &community.id, &Query::any_keyword("observer")).unwrap();
        let providers: Vec<PeerId> = out.hits.iter().map(|h| h.provider).collect();
        assert_eq!(providers.len(), 2, "replication doubled availability: {providers:?}");
    }

    #[test]
    fn download_fails_when_provider_dies() {
        let mut w = world(ProtocolKind::Napster, 3);
        let community = pattern_community();
        let mut a = Servent::new(PeerId(1));
        a.join(community.clone());
        let obj = a
            .create_object(
                &community.id,
                &[("name", "X"), ("category", "c"), ("intent", "i"), ("structure", "s")],
            )
            .unwrap();
        a.publish(&mut *w.net, &mut w.plane, &obj).unwrap();

        let mut b = Servent::new(PeerId(2));
        b.join(community.clone());
        let out = b.search(&mut *w.net, &community.id, &Query::any_keyword("x")).unwrap();
        w.net.set_alive(PeerId(1), false);
        let err = b.download(&mut *w.net, &mut w.plane, &out.hits[0]).unwrap_err();
        assert!(matches!(err, CoreError::Unavailable(_)));
    }

    #[test]
    fn forms_render_for_joined_communities() {
        let mut s = Servent::new(PeerId(0));
        let community = pattern_community();
        s.join(community.clone());
        let create = s.create_form_html(&community.id).unwrap();
        assert!(create.contains("pattern/name"));
        assert!(create.contains("pattern/structure"));
        let search = s.search_form_html(&community.id).unwrap();
        assert!(search.contains("pattern/name"));
        assert!(!search.contains("pattern/structure"), "not searchable");
        // root community forms work too (community discovery UI)
        let root_search = s.search_form_html(ROOT_COMMUNITY_ID).unwrap();
        assert!(root_search.contains("community/keywords"));
    }

    #[test]
    fn cmip_search_surface() {
        let mut w = world(ProtocolKind::Napster, 3);
        let community = pattern_community();
        let mut a = Servent::new(PeerId(1));
        a.join(community.clone());
        let obj = a
            .create_object(
                &community.id,
                &[
                    ("name", "Observer"),
                    ("category", "behavioral"),
                    ("intent", "i"),
                    ("structure", "s"),
                ],
            )
            .unwrap();
        a.publish(&mut *w.net, &mut w.plane, &obj).unwrap();
        let mut b = Servent::new(PeerId(2));
        b.join(community.clone());
        let out = b
            .search_cmip(&mut *w.net, &community.id, "(&(name=observ*)(category=behavioral))")
            .unwrap();
        assert_eq!(out.hits.len(), 1);
        assert!(b.search_cmip(&mut *w.net, &community.id, "(broken").is_err());
    }

    #[test]
    fn leave_community_but_never_root() {
        let mut s = Servent::new(PeerId(0));
        let community = pattern_community();
        s.join(community.clone());
        assert!(s.leave(&community.id));
        assert!(s.community(&community.id).is_none());
        assert!(!s.leave(ROOT_COMMUNITY_ID));
        assert!(s.community(ROOT_COMMUNITY_ID).is_some());
    }

    #[test]
    fn attachments_travel_with_downloads() {
        let mut w = world(ProtocolKind::Napster, 3);
        let mut b = SchemaBuilder::new("song");
        b.field(FieldKind::text("title").searchable())
            .field(FieldKind::uri("audio").attachment());
        let community =
            Community::from_builder("mp3", "d", "k", "c", "", &b).unwrap();

        let mut a = Servent::new(PeerId(1));
        a.join(community.clone());
        let att = Attachment::from_bytes(&b"fake mp3 bytes"[..]);
        let obj = a
            .create_object_with_attachments(
                &community.id,
                &[("title", "So What"), ("audio", "@0")],
                vec![att.clone()],
            )
            .unwrap();
        assert!(obj.xml().contains(&att.uri), "placeholder resolved to URI");
        a.publish(&mut *w.net, &mut w.plane, &obj).unwrap();

        let mut c = Servent::new(PeerId(2));
        c.join(community.clone());
        let out = c.search(&mut *w.net, &community.id, &Query::any_keyword("what")).unwrap();
        let downloaded = c.download(&mut *w.net, &mut w.plane, &out.hits[0]).unwrap();
        assert_eq!(downloaded.attachments.len(), 1);
        assert_eq!(downloaded.attachments[0].data, att.data);
    }
}
