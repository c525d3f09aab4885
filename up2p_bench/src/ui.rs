//! `community_ui`: the paper's generative core. An op is one discovery
//! session — find a community in the root community, download and join
//! it, render its create and search forms, view three of its objects,
//! leave. XSD parsing, XSLT and XML serialisation do the work; the index
//! and the network are nearly idle.

use crate::gen::{self, UiOp, UI_COMMUNITIES};
use crate::harness::{BlockStats, Config, Layers, MsgCount, Workload};
use crate::metrics::Json;
use crate::oracle::{community_round_trips, well_formed_html, Tally};
use crate::publish::{index_fields, publish_decomposed};
use crate::trace::Tracer;
use std::collections::HashMap;
use std::time::Instant;
use up2p_core::stylesheets::StylesheetCache;
use up2p_core::{
    Community, CoreError, FormKind, FormModel, PayloadPlane, Servent, SharedObject,
    ROOT_COMMUNITY_ID,
};
use up2p_net::{build_network, PeerId, PeerNetwork, ProtocolKind, RetrieveOutcome, SearchHit};
use up2p_schema::parse_schema_str;
use up2p_store::{Query, Repository};
use up2p_xml::Document;
use up2p_xslt::Stylesheet;

const BLOCK_OPS: usize = 2_000;
const NET_PEERS: usize = 64;
const PUBLISHER: PeerId = PeerId(1);
const BROWSER: PeerId = PeerId(2);
/// Local objects viewed per session.
const VIEWS: usize = 3;
/// Stylesheet lookups per session: two forms and the views.
const LOOKUPS: u64 = 2 + VIEWS as u64;

/// A network with the 64 communities published into the root community.
struct Fabric {
    net: Box<dyn PeerNetwork + Send>,
    plane: PayloadPlane,
}

impl Fabric {
    fn new(communities: &[Community]) -> Fabric {
        let mut fabric = Fabric {
            net: build_network(ProtocolKind::Napster, NET_PEERS, gen::OVERLAY_SEED),
            plane: PayloadPlane::new(),
        };
        let mut publisher = Servent::new(PUBLISHER);
        for c in communities {
            publisher
                .publish_community(&mut *fabric.net, &mut fabric.plane, c)
                .expect("a member of the root community can publish into it");
        }
        fabric
    }
}

/// The HTML of one session, in render order.
type Pages = Vec<String>;

/// The hit a session's user picks: the `pick`-th distinct community of
/// the result list, at its lowest-numbered provider.
fn choose(hits: &[SearchHit], pick: usize) -> Option<&SearchHit> {
    let mut keys: Vec<&str> = hits.iter().map(|h| h.key.as_str()).collect();
    keys.sort_unstable();
    keys.dedup();
    let key = *keys.get(pick % keys.len().max(1))?;
    hits.iter()
        .filter(|h| h.key == key)
        .min_by_key(|h| h.provider)
}

/// The decomposed browser: a servent's private state spelled out.
struct Shadow {
    repo: Repository,
    communities: HashMap<String, Community>,
    fabric: Fabric,
}

impl Shadow {
    /// `Servent::create_form_html` / `search_form_html`.
    fn form_html(
        community: &Community,
        kind: FormKind,
        t: &mut Tracer,
    ) -> Result<String, CoreError> {
        let id = t.begin("core.form_html");
        let form = t.span("core.form_derive", || FormModel::derive(community, kind));
        let doc = t.span("core.form_doc", || form.to_document());
        let style = match kind {
            FormKind::Create => &community.create_style,
            FormKind::Search => &community.search_style,
        };
        let html = render(&doc, style.as_deref().unwrap_or_default(), t);
        t.end(id);
        html
    }

    /// One session, decomposed. Returns the joined id and the pages.
    fn session(
        &mut self,
        op: &UiOp,
        objects: &HashMap<String, Vec<SharedObject>>,
        t: &mut Tracer,
    ) -> Result<(String, Pages), CoreError> {
        let Fabric { net, plane } = &mut self.fabric;
        // Servent::discover_communities
        let query = Query::keyword("keywords", &op.keyword);
        let found = t.span("net.napster.search", || {
            net.search(BROWSER, ROOT_COMMUNITY_ID, &query)
        });
        let hit = choose(&found.hits, op.pick)
            .ok_or_else(|| CoreError::Unavailable(format!("community for {}", op.keyword)))?;
        // Servent::join_from_hit → download
        let fetched = t.span("net.retrieve", || {
            net.retrieve(BROWSER, hit.provider, &hit.key)
        });
        if fetched == RetrieveOutcome::Unavailable {
            return Err(CoreError::Unavailable(format!("object {}", hit.key)));
        }
        let object = t.span("core.payload_fetch", || plane.fetch(&hit.key))?;
        // download shares the object onward (`share_downloads`)
        let root = &self.communities[ROOT_COMMUNITY_ID];
        let fields = index_fields(root, &object.doc, t)?;
        publish_decomposed(
            &mut self.repo,
            &mut **net,
            plane,
            BROWSER,
            &object,
            fields.into(),
            t,
        );
        // join_from_hit proper: schema and stylesheets from the attachments
        let community = t.span("core.community_from_object", || {
            let attachments: Vec<(String, String)> = object
                .attachments
                .iter()
                .map(|a| (a.uri.clone(), String::from_utf8_lossy(&a.data).into_owned()))
                .collect();
            let xsd = attachments
                .first()
                .map(|(_, text)| text.as_str())
                .unwrap_or_default();
            Community::from_object_with_attachments(&object.doc, xsd, &attachments)
        })?;
        let id = community.id.clone();
        let community = self.communities.entry(id.clone()).or_insert(community);
        // the generated interfaces
        let mut pages = vec![
            Self::form_html(community, FormKind::Create, t)?,
            Self::form_html(community, FormKind::Search, t)?,
        ];
        for object in objects.get(&id).into_iter().flatten() {
            let span = t.begin("core.view_html");
            let html = render(
                &object.doc,
                community.display_style.as_deref().unwrap_or_default(),
                t,
            );
            t.end(span);
            pages.push(html?);
        }
        self.communities.remove(&id);
        Ok((id, pages))
    }
}

/// `stylesheets::render_form` / `render_view` with a custom sheet:
/// compile-once cache lookup, then apply.
fn render(doc: &Document, style: &str, t: &mut Tracer) -> Result<String, CoreError> {
    let sheet = t.span("core.style_cache_get", || {
        StylesheetCache::global().get(style)
    })?;
    Ok(t.span("xslt.apply", || sheet.apply_to_string(doc))?)
}

pub struct CommunityUi {
    communities: Vec<Community>,
    by_id: HashMap<String, usize>,
    /// Three local objects per community, by community id.
    objects: HashMap<String, Vec<SharedObject>>,
    fabric: Fabric,
    browser: Servent,
    shadow: Option<Shadow>,
    style_entries_before: usize,
    traced_sessions: u64,
}

impl CommunityUi {
    /// One session through the servent. Returns the joined id, the
    /// pages, and the op time in nanoseconds — the round-trip check of
    /// the joined community sits between view and leave, outside the
    /// timing.
    fn session(&mut self, op: &UiOp) -> (Result<(String, Pages), CoreError>, u64) {
        let Fabric { net, plane } = &mut self.fabric;
        let (browser, objects) = (&mut self.browser, &self.objects);
        let started = Instant::now();
        let joined = (|| {
            let query = Query::keyword("keywords", &op.keyword);
            let found = browser.discover_communities(&mut **net, &query)?;
            let hit = choose(&found.hits, op.pick)
                .ok_or_else(|| CoreError::Unavailable(format!("community for {}", op.keyword)))?;
            let id = browser.join_from_hit(&mut **net, plane, hit)?;
            let mut pages = vec![
                browser.create_form_html(&id)?,
                browser.search_form_html(&id)?,
            ];
            for object in objects.get(&id).into_iter().flatten() {
                pages.push(browser.view_html(object)?);
            }
            Ok((id, pages))
        })();
        let mut ns = started.elapsed().as_nanos() as u64;
        let checked = joined.and_then(|(id, pages): (String, Pages)| {
            let published = self.by_id.get(&id).map(|&i| &self.communities[i]);
            let same = browser
                .community(&id)
                .zip(published)
                .is_some_and(|(joined, published)| community_round_trips(joined, published));
            let started = Instant::now();
            browser.leave(&id);
            ns += started.elapsed().as_nanos() as u64;
            if same {
                Ok((id, pages))
            } else {
                Err(CoreError::IntegrityFailure {
                    expected: id,
                    actual: "joined community".into(),
                })
            }
        });
        (checked, ns)
    }

    /// Unit-cost probes on what a traced session downloaded: the parses
    /// and the serialisation that the servent's monolithic calls hide.
    fn probes(&self, id: &str, nth: usize, t: &mut Tracer) {
        let Some(community) = self.by_id.get(id).map(|&i| &self.communities[i]) else {
            return;
        };
        if !nth.is_multiple_of(4) {
            return;
        }
        let object = community.to_object();
        let xml = t.span("xml.serialize", || object.to_xml_string());
        std::hint::black_box(t.span("xml.parse", || Document::parse(&xml)).is_ok());
        std::hint::black_box(
            t.span("schema.parse", || parse_schema_str(&community.schema_xsd))
                .is_ok(),
        );
        if let Some(style) = &community.display_style {
            std::hint::black_box(t.span("xslt.compile", || Stylesheet::parse(style)).is_ok());
        }
    }
}

fn pages_ok(pages: &Pages) -> bool {
    pages.len() == 2 + VIEWS && pages.iter().all(|p| well_formed_html(p))
}

impl Workload for CommunityUi {
    const NAME: &'static str = "community_ui";

    fn setup(cfg: &Config) -> Self {
        let communities = gen::ui_communities();
        let fabric = Fabric::new(&communities);
        let mut author = Servent::new(PUBLISHER);
        let mut objects = HashMap::new();
        for (i, c) in communities.iter().enumerate() {
            author.join(c.clone());
            let local: Vec<SharedObject> = (0..VIEWS)
                .map(|k| {
                    let values = gen::ui_object_values(cfg.seed, i, k);
                    let values: Vec<(&str, &str)> = values
                        .iter()
                        .map(|(k, v)| (k.as_str(), v.as_str()))
                        .collect();
                    author
                        .create_object(&c.id, &values)
                        .expect("generated values fit the schema")
                })
                .collect();
            objects.insert(c.id.clone(), local);
        }
        let by_id = communities
            .iter()
            .enumerate()
            .map(|(i, c)| (c.id.clone(), i))
            .collect();
        let shadow = cfg.trace.then(|| {
            let root = Community::root();
            Shadow {
                repo: Repository::new(),
                communities: HashMap::from([(root.id.clone(), root)]),
                fabric: Fabric::new(&communities),
            }
        });
        let mut world = CommunityUi {
            communities,
            by_id,
            objects,
            fabric,
            browser: Servent::new(BROWSER),
            shadow,
            style_entries_before: 0,
            traced_sessions: 0,
        };
        // warm-up: one session per community, so every stylesheet is
        // compiled before the first timed block
        for i in 0..UI_COMMUNITIES {
            let _ = world.session(&UiOp {
                keyword: format!("topic{i:02}"),
                pick: 0,
            });
        }
        world.style_entries_before = StylesheetCache::global().len();
        world.fabric.net.reset_stats();
        world
    }

    fn block(
        &mut self,
        cfg: &Config,
        block: u32,
        mut tracer: Option<&mut Tracer>,
        tally: &mut Tally,
    ) -> BlockStats {
        let ops = gen::ui_ops(cfg.seed, block, cfg.scaled(BLOCK_OPS, 20));
        let before = self.fabric.net.stats().clone();
        let mut op_ns = Vec::with_capacity(ops.len());
        for (i, op) in ops.iter().enumerate() {
            let (session, ns) = self.session(op);
            let mut ok = session.as_ref().is_ok_and(|(_, pages)| pages_ok(pages));
            let (Some(t), Some(shadow)) = (tracer.as_deref_mut(), self.shadow.as_mut()) else {
                op_ns.push(ns);
                tally.op(ok);
                continue;
            };
            // the same session decomposed: id and HTML must agree
            let root = t.begin_op();
            let decomposed = shadow.session(op, &self.objects, t);
            op_ns.push(t.end_op(root));
            ok &= matches!((&decomposed, &session), (Ok(d), Ok(s)) if d == s);
            tally.op(ok);
            self.traced_sessions += 1;
            if let Ok((id, _)) = &session {
                self.probes(id, i, t);
            }
        }
        let msgs = MsgCount::delta(&before, self.fabric.net.stats());
        BlockStats::per_op(op_ns, msgs)
    }

    fn layers(
        &mut self,
        _cfg: &Config,
        _tracer: &mut Tracer,
        _tally: &mut Tally,
        out: &mut Layers,
    ) {
        let cache = StylesheetCache::global().len();
        out.insert("core.style_cache.entries", cache as f64);
        // both the servent and its decomposed twin looked every sheet up
        let lookups = (2 * LOOKUPS * self.traced_sessions).max(1) as f64;
        let compiled = (cache - self.style_entries_before) as f64;
        out.insert("core.style_cache.hit_ratio", 1.0 - compiled / lookups);
        let index = self.browser.repository().index_stats();
        out.insert("store.index_bytes", index.approx_bytes as f64);
        out.insert("store.token_postings", index.token_postings as f64);
    }

    fn info(&self) -> Json {
        Json::obj([
            ("net", Json::Str(format!("Napster, {NET_PEERS} peers"))),
            ("communities", Json::Num(self.communities.len() as f64)),
            ("views_per_session", Json::Num(VIEWS as f64)),
        ])
    }
}
