//! The experiment scenarios E1–E12 (see DESIGN.md §4 for the mapping to
//! the paper's figures and claims). Each function regenerates the
//! table(s) recorded in EXPERIMENTS.md; all randomness is seeded, so runs
//! are exactly reproducible.

use crate::corpus::{
    self, mp3_community, pattern_community, pattern_filename, song_filename, GOF_PATTERNS,
};
use crate::experiment::{pattern_world, World};
use crate::metrics::{retrieval_quality, Series};
use crate::report::{fnum, BenchReport, Table};
use crate::workload::{rng_for, Zipf};
use rand::Rng;
use std::time::Instant;
use up2p_core::{Community, FormKind, FormModel, PayloadPlane, Servent, SharedObject};
use up2p_net::{churn, PeerId, ProtocolKind};
use up2p_schema::{FieldKind, SchemaBuilder};
use up2p_store::{tokenize, Query, Repository};

/// Scale knob: scenario sizes are divided by this for fast test runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Full sizes (benches, EXPERIMENTS.md).
    Full,
    /// Reduced sizes (unit/integration tests).
    Smoke,
}

impl Scale {
    fn peers(self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Smoke => (full / 4).max(8),
        }
    }

    fn queries(self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Smoke => (full / 10).max(5),
        }
    }
}

// ---------------------------------------------------------------------
// E1 — Fig. 1: the generative shared-object pipeline
// ---------------------------------------------------------------------

/// E1: runs the full Fig. 1 pipeline (schema → create form → instance →
/// validate → index → view) over the GoF corpus and reports per-stage
/// timing and throughput.
pub fn e1_pipeline() -> Table {
    let mut t = Table::new(
        "E1 (Fig. 1): generative pipeline over the GoF corpus (23 objects)",
        &["stage", "total ms", "per object us", "output"],
    );
    let started = Instant::now();
    let community = pattern_community();
    let parse_ms = started.elapsed().as_secs_f64() * 1e3;
    t.row(["schema parse + community build", &fnum(parse_ms), &fnum(parse_ms * 1e3), "1 community"]);

    let started = Instant::now();
    let form = FormModel::derive(&community, FormKind::Create);
    let derive_ms = started.elapsed().as_secs_f64() * 1e3;
    t.row([
        "create-form derivation".to_string(),
        fnum(derive_ms),
        fnum(derive_ms * 1e3),
        format!("{} fields", form.fields.len()),
    ]);

    let started = Instant::now();
    let mut objects = Vec::new();
    for p in &GOF_PATTERNS {
        let doc = form.fill("pattern", &corpus::pattern_values(p)).expect("valid");
        community.validate(&doc).expect("valid");
        objects.push(SharedObject::new(&community.id, doc, Vec::new()));
    }
    let create_ms = started.elapsed().as_secs_f64() * 1e3;
    t.row([
        "fill + validate".to_string(),
        fnum(create_ms),
        fnum(create_ms * 1e3 / 23.0),
        format!("{} objects", objects.len()),
    ]);

    let started = Instant::now();
    let mut repo = Repository::new();
    let paths = community.indexed_paths();
    for o in &objects {
        repo.insert_doc(&community.id, o.doc.clone(), &paths);
    }
    let index_ms = started.elapsed().as_secs_f64() * 1e3;
    let stats = repo.index_stats();
    t.row([
        "metadata indexing".to_string(),
        fnum(index_ms),
        fnum(index_ms * 1e3 / 23.0),
        format!("{} token postings", stats.token_postings),
    ]);

    let started = Instant::now();
    let mut html_bytes = 0usize;
    for o in &objects {
        html_bytes += up2p_core::stylesheets::render_view(&o.doc, None).expect("renders").len();
    }
    let view_ms = started.elapsed().as_secs_f64() * 1e3;
    t.row([
        "XSLT view rendering".to_string(),
        fnum(view_ms),
        fnum(view_ms * 1e3 / 23.0),
        format!("{html_bytes} HTML bytes"),
    ]);

    let started = Instant::now();
    let queries = ["observer", "factory", "interface", "algorithm", "state"];
    let mut hits = 0;
    for q in queries {
        hits += repo.search(None, &Query::any_keyword(q)).len();
    }
    let query_ms = started.elapsed().as_secs_f64() * 1e3;
    t.row([
        "indexed keyword queries".to_string(),
        fnum(query_ms),
        fnum(query_ms * 1e3 / queries.len() as f64),
        format!("{hits} hits / {} queries", queries.len()),
    ]);
    t
}

// ---------------------------------------------------------------------
// E2 — Fig. 2: default stylesheets work on any community schema
// ---------------------------------------------------------------------

/// E2: generates schemas of increasing width, derives and renders both
/// forms and a view for each, reporting cost vs schema size. All sizes
/// must succeed — that is the Fig. 2 "operates on any community schema"
/// claim.
pub fn e2_generation(sizes: &[usize]) -> Table {
    let mut t = Table::new(
        "E2 (Fig. 2): interface generation vs schema size",
        &["fields", "xsd bytes", "parse us", "form us", "create-form HTML bytes", "render us"],
    );
    for &n in sizes {
        let mut b = SchemaBuilder::new("object");
        for i in 0..n {
            let f = match i % 4 {
                0 => FieldKind::text(format!("text{i}")).searchable(),
                1 => FieldKind::integer(format!("num{i}")),
                2 => FieldKind::enumeration(format!("enum{i}"), ["a", "b", "c"]).searchable(),
                _ => FieldKind::uri(format!("uri{i}")),
            };
            b.field(f);
        }
        let xsd = b.to_xsd();

        let started = Instant::now();
        let community = Community::new("gen", "generated", "k", "c", "", &xsd).expect("valid");
        let parse_us = started.elapsed().as_secs_f64() * 1e6;

        let started = Instant::now();
        let form = FormModel::derive(&community, FormKind::Create);
        let form_us = started.elapsed().as_secs_f64() * 1e6;
        assert_eq!(form.fields.len(), n, "every field surfaces on the form");

        let doc = form.to_document();
        let started = Instant::now();
        let html = up2p_core::stylesheets::render_form(&doc, None).expect("default renders");
        let render_us = started.elapsed().as_secs_f64() * 1e6;

        t.row([
            n.to_string(),
            xsd.len().to_string(),
            fnum(parse_us),
            fnum(form_us),
            html.len().to_string(),
            fnum(render_us),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E3 — Fig. 3: community discovery as object search
// ---------------------------------------------------------------------

/// E3: publishes `communities` community objects into the root community
/// of a fabric of `peers`, then issues Zipf-popular discovery queries;
/// reports success rate, messages and latency per protocol.
pub fn e3_discovery(scale: Scale, seed: u64) -> Table {
    let mut t = Table::new(
        "E3 (Fig. 3): community discovery via the root community",
        &["protocol", "peers", "communities", "queries", "success", "msgs/query", "mean ms", "p95 ms"],
    );
    for kind in [ProtocolKind::Napster, ProtocolKind::Gnutella, ProtocolKind::FastTrack] {
        for &(peers, n_comms) in &[(64usize, 16usize), (256, 16), (256, 64)] {
            let peers = scale.peers(peers);
            let n_comms = n_comms.min(peers);
            let n_queries = scale.queries(200);
            let mut world = World::new(kind, peers, seed);
            let mut rng = rng_for(seed, "e3");

            // each community gets a distinctive keyword and a publisher
            let mut keywords = Vec::new();
            for c in 0..n_comms {
                let keyword = format!("domain{c:03}");
                let mut b = SchemaBuilder::new("item");
                b.field(FieldKind::text("name").searchable());
                let community = Community::from_builder(
                    &format!("community-{c}"),
                    &format!("resources about {keyword}"),
                    &keyword,
                    "generated",
                    kind.schema_value(),
                    &b,
                )
                .expect("valid");
                let publisher = rng.gen_range(0..peers);
                world.servents[publisher]
                    .publish_community(&mut *world.net, &mut world.plane, &community)
                    .expect("publish");
                keywords.push(keyword);
            }

            let zipf = Zipf::new(n_comms, 1.0);
            let mut found = 0usize;
            let mut msgs = Series::new();
            let mut lat = Series::new();
            world.net.reset_stats();
            for q in 0..n_queries {
                let target = zipf.sample(&mut rng);
                let origin = (q * 7 + 3) % peers;
                let out = world.servents[origin]
                    .discover_communities(&mut *world.net, &Query::any_keyword(&keywords[target]))
                    .expect("root member");
                if !out.hits.is_empty() {
                    found += 1;
                }
                msgs.push(out.messages as f64);
                lat.push(out.latency as f64 / 1000.0);
            }
            t.row([
                kind.to_string(),
                peers.to_string(),
                n_comms.to_string(),
                n_queries.to_string(),
                fnum(found as f64 / n_queries as f64),
                fnum(msgs.mean()),
                fnum(lat.mean()),
                fnum(lat.percentile(95.0)),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------------
// E4 — §II: metadata search vs filename matching
// ---------------------------------------------------------------------

/// Derives E4 query terms from a corpus: frequent metadata tokens of at
/// least five characters (deterministic).
fn query_terms(fields_per_object: &[Vec<(String, String)>], count: usize) -> Vec<String> {
    use std::collections::BTreeMap;
    let mut freq: BTreeMap<String, usize> = BTreeMap::new();
    for fields in fields_per_object {
        for (_, value) in fields {
            for tok in tokenize(value) {
                if tok.len() >= 5 {
                    *freq.entry(tok).or_insert(0) += 1;
                }
            }
        }
    }
    let mut terms: Vec<(String, usize)> = freq.into_iter().collect();
    terms.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    terms.into_iter().take(count).map(|(t, _)| t).collect()
}

/// E4: precision/recall/F1 of schema-driven metadata search vs the
/// filename-substring search of Napster-era clients, on both corpora.
/// Ground truth: an object is relevant to a term when any metadata field
/// contains it.
pub fn e4_metadata() -> Table {
    let mut t = Table::new(
        "E4 (§II): metadata search vs filename matching",
        &["corpus", "method", "queries", "precision", "recall", "F1"],
    );

    // corpus 1: design patterns (filenames carry only the name)
    {
        let community = pattern_community();
        let paths = community.indexed_paths();
        let mut repo = Repository::new();
        let mut filenames = Vec::new();
        let mut all_fields = Vec::new();
        let mut ids = Vec::new();
        for p in &GOF_PATTERNS {
            let form = FormModel::derive(&community, FormKind::Create);
            let doc = form.fill("pattern", &corpus::pattern_values(p)).expect("valid");
            let fields = Repository::extract_fields(&doc, &paths);
            all_fields.push(fields);
            filenames.push(pattern_filename(p));
            ids.push(repo.insert_doc(&community.id, doc, &paths));
        }
        let terms = query_terms(&all_fields, 20);
        push_quality_rows(&mut t, "patterns", &repo, &ids, &filenames, &all_fields, &terms);
    }

    // corpus 2: MP3s (filenames carry artist + title — richer baseline)
    {
        let community = mp3_community();
        let paths = community.indexed_paths();
        let songs = corpus::songs(100);
        let mut repo = Repository::new();
        let mut filenames = Vec::new();
        let mut all_fields = Vec::new();
        let mut ids = Vec::new();
        let form = FormModel::derive(&community, FormKind::Create);
        for s in &songs {
            let year = s.year.to_string();
            let doc = form
                .fill(
                    "song",
                    &[
                        ("title", s.title.as_str()),
                        ("artist", s.artist.as_str()),
                        ("album", s.album.as_str()),
                        ("genre", s.genre.as_str()),
                        ("year", year.as_str()),
                        ("audio", "up2p:attachment:x"),
                    ],
                )
                .expect("valid");
            let fields = Repository::extract_fields(&doc, &paths);
            all_fields.push(fields);
            filenames.push(song_filename(s));
            ids.push(repo.insert_doc(&community.id, doc, &paths));
        }
        let terms = query_terms(&all_fields, 20);
        push_quality_rows(&mut t, "mp3", &repo, &ids, &filenames, &all_fields, &terms);
    }
    t
}

fn push_quality_rows(
    t: &mut Table,
    corpus_name: &str,
    repo: &Repository,
    ids: &[up2p_store::ResourceId],
    filenames: &[String],
    all_fields: &[Vec<(String, String)>],
    terms: &[String],
) {
    let mut meta = (Series::new(), Series::new(), Series::new());
    let mut file = (Series::new(), Series::new(), Series::new());
    for term in terms {
        // ground truth: metadata contains the term as substring
        let relevant: Vec<usize> = all_fields
            .iter()
            .enumerate()
            .filter(|(_, fields)| {
                fields.iter().any(|(_, v)| v.to_lowercase().contains(term.as_str()))
            })
            .map(|(i, _)| i)
            .collect();
        // metadata search: indexed keyword query
        let hits = repo.search(None, &Query::any_keyword(term));
        let meta_found: Vec<usize> = hits
            .iter()
            .filter_map(|o| ids.iter().position(|id| id == &o.id))
            .collect();
        let q = retrieval_quality(&meta_found, &relevant);
        meta.0.push(q.precision);
        meta.1.push(q.recall);
        meta.2.push(q.f1);
        // filename search: substring over the filename
        let file_found: Vec<usize> = filenames
            .iter()
            .enumerate()
            .filter(|(_, f)| f.contains(term.as_str()))
            .map(|(i, _)| i)
            .collect();
        let q = retrieval_quality(&file_found, &relevant);
        file.0.push(q.precision);
        file.1.push(q.recall);
        file.2.push(q.f1);
    }
    t.row([
        corpus_name.to_string(),
        "metadata (U-P2P)".to_string(),
        terms.len().to_string(),
        fnum(meta.0.mean()),
        fnum(meta.1.mean()),
        fnum(meta.2.mean()),
    ]);
    t.row([
        corpus_name.to_string(),
        "filename (baseline)".to_string(),
        terms.len().to_string(),
        fnum(file.0.mean()),
        fnum(file.1.mean()),
        fnum(file.2.mean()),
    ]);
}

// ---------------------------------------------------------------------
// E5 — §V: replication vs availability under churn
// ---------------------------------------------------------------------

/// E5: availability of a pattern object under peer churn, as a function
/// of its replication factor — simulated on the flooding substrate vs the
/// analytic `1-(1-a)^r` curve.
pub fn e5_replication(scale: Scale, seed: u64) -> Table {
    let mut t = Table::new(
        "E5 (§V): object availability vs replication under churn (Gnutella substrate)",
        &["availability", "replicas", "trials", "found rate", "analytic", "retrieve ok"],
    );
    let peers = scale.peers(128);
    let trials = scale.queries(200);
    for &availability in &[0.9, 0.7, 0.5] {
        for &replicas in &[1usize, 2, 4, 8] {
            let (mut world, community) =
                pattern_world(ProtocolKind::Gnutella, peers, replicas, seed);
            let mut found = 0usize;
            let mut fetched = 0usize;
            for trial in 0..trials {
                let origin = (trial * 13 + 1) % peers;
                // Common random numbers: the churn snapshot for a trial
                // depends only on (availability, trial), so every replica
                // count faces the identical alive/dead pattern. Together
                // with nested provider placement (see assign_providers)
                // this makes found-rate monotone in `replicas` per trial,
                // not just in expectation.
                let mut rng = rng_for(seed, &format!("e5-{availability}-t{trial}"));
                churn::apply_snapshot(
                    &mut *world.net,
                    availability,
                    &[PeerId(origin as u32)],
                    &mut rng,
                );
                let target = &GOF_PATTERNS[trial % GOF_PATTERNS.len()];
                let first_token = tokenize(target.name).into_iter().next().expect("name token");
                let out = world.search_from(origin, &community, &Query::and([
                    Query::keyword("name", &first_token),
                    Query::eq("category", target.category),
                ]));
                if let Some(hit) = out.hits.first() {
                    found += 1;
                    let hit = hit.clone();
                    let servent = &mut world.servents[origin];
                    if servent.download(&mut *world.net, &mut world.plane, &hit).is_ok() {
                        fetched += 1;
                    }
                }
            }
            churn::revive_all(&mut *world.net);
            t.row([
                fnum(availability),
                replicas.to_string(),
                trials.to_string(),
                fnum(found as f64 / trials as f64),
                fnum(churn::expected_availability(availability, replicas as u32)),
                fnum(fetched as f64 / trials as f64),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------------
// E6 — §IV-B / Conclusion: protocol independence
// ---------------------------------------------------------------------

/// E6a: the same servent workload on all three substrates.
pub fn e6_protocols(scale: Scale, seed: u64) -> Table {
    let mut t = Table::new(
        "E6a (§IV-B): one workload, three substrates",
        &["protocol", "peers", "recall", "msgs/query", "mean ms", "p95 ms"],
    );
    let peers = scale.peers(256);
    let n_queries = scale.queries(200);
    for kind in [ProtocolKind::Napster, ProtocolKind::FastTrack, ProtocolKind::Gnutella] {
        let (mut world, community) = pattern_world(kind, peers, 2, seed);
        let zipf = Zipf::new(GOF_PATTERNS.len(), 1.0);
        let mut rng = rng_for(seed, "e6a");
        let mut recall = Series::new();
        let mut msgs = Series::new();
        let mut lat = Series::new();
        for q in 0..n_queries {
            let target = &GOF_PATTERNS[zipf.sample(&mut rng)];
            let origin = (q * 11 + 5) % peers;
            let first_token = tokenize(target.name).into_iter().next().expect("token");
            let out = world.search_from(origin, &community, &Query::and([
                Query::keyword("name", &first_token),
                Query::eq("category", target.category),
            ]));
            recall.push(if out.hits.is_empty() { 0.0 } else { 1.0 });
            msgs.push(out.messages as f64);
            lat.push(out.latency as f64 / 1000.0);
        }
        t.row([
            kind.to_string(),
            peers.to_string(),
            fnum(recall.mean()),
            fnum(msgs.mean()),
            fnum(lat.mean()),
            fnum(lat.percentile(95.0)),
        ]);
    }
    t
}

/// E6b: TTL sweep on the flooding substrate — recall vs message cost
/// (the knee motivates Gnutella's default TTL 7).
pub fn e6_ttl_sweep(scale: Scale, seed: u64) -> Table {
    use up2p_net::{ConstantLatency, FloodingConfig, FloodingNetwork, Topology};
    let mut t = Table::new(
        "E6b: flooding TTL sweep (small-world overlay)",
        &["ttl", "recall", "msgs/query", "mean ms"],
    );
    let peers = scale.peers(256);
    let n_queries = scale.queries(100);
    for ttl in 1..=7u8 {
        let topo = Topology::small_world(peers, 2, 0.2, seed);
        let net = FloodingNetwork::new(
            topo,
            Box::new(ConstantLatency(20_000)),
            FloodingConfig { ttl, dedup: true, ..FloodingConfig::default() },
        );
        let community = pattern_community();
        let mut world = World {
            net: Box::new(net),
            plane: PayloadPlane::new(),
            servents: (0..peers).map(|i| Servent::new(PeerId(i as u32))).collect(),
        };
        world.join_all(&community);
        let mut rng = rng_for(seed, "e6b");
        world.populate_patterns(&community, 2, &mut rng);
        let mut recall = Series::new();
        let mut msgs = Series::new();
        let mut lat = Series::new();
        for q in 0..n_queries {
            let target = &GOF_PATTERNS[q % GOF_PATTERNS.len()];
            let origin = (q * 17 + 3) % peers;
            let first_token = tokenize(target.name).into_iter().next().expect("token");
            let out =
                world.search_from(origin, &community, &Query::keyword("name", &first_token));
            recall.push(if out.hits.is_empty() { 0.0 } else { 1.0 });
            msgs.push(out.messages as f64);
            lat.push(out.latency as f64 / 1000.0);
        }
        t.row([ttl.to_string(), fnum(recall.mean()), fnum(msgs.mean()), fnum(lat.mean())]);
    }
    t
}

/// E6c: duplicate-suppression ablation on a cyclic overlay.
pub fn e6_dedup_ablation(scale: Scale, seed: u64) -> Table {
    use up2p_net::{ConstantLatency, FloodingConfig, FloodingNetwork, Topology};
    let mut t = Table::new(
        "E6c: duplicate suppression ablation (flooding)",
        &["dedup", "ttl", "msgs/query", "recall"],
    );
    let peers = scale.peers(64);
    let n_queries = scale.queries(50);
    for dedup in [true, false] {
        let ttl = 5u8;
        let topo = Topology::small_world(peers, 3, 0.3, seed);
        let net = FloodingNetwork::new(
            topo,
            Box::new(ConstantLatency(20_000)),
            FloodingConfig { ttl, dedup, ..FloodingConfig::default() },
        );
        let community = pattern_community();
        let mut world = World {
            net: Box::new(net),
            plane: PayloadPlane::new(),
            servents: (0..peers).map(|i| Servent::new(PeerId(i as u32))).collect(),
        };
        world.join_all(&community);
        let mut rng = rng_for(seed, "e6c");
        world.populate_patterns(&community, 1, &mut rng);
        let mut msgs = Series::new();
        let mut recall = Series::new();
        for q in 0..n_queries {
            let target = &GOF_PATTERNS[q % GOF_PATTERNS.len()];
            let origin = (q * 17 + 3) % peers;
            let first_token = tokenize(target.name).into_iter().next().expect("token");
            let out =
                world.search_from(origin, &community, &Query::keyword("name", &first_token));
            msgs.push(out.messages as f64);
            recall.push(if out.hits.is_empty() { 0.0 } else { 1.0 });
        }
        t.row([
            dedup.to_string(),
            ttl.to_string(),
            fnum(msgs.mean()),
            fnum(recall.mean()),
        ]);
    }
    t
}

/// E6d: overlay-topology ablation for flooding — ring lattice vs
/// small world vs scale-free (measured Gnutella overlays were
/// heavy-tailed; topology changes the cost/recall point at fixed TTL).
pub fn e6_topologies(scale: Scale, seed: u64) -> Table {
    use up2p_net::{ConstantLatency, FloodingConfig, FloodingNetwork, Topology};
    let mut t = Table::new(
        "E6d: flooding overlay-topology ablation (TTL 5)",
        &["topology", "edges", "recall", "msgs/query", "mean ms"],
    );
    let peers = scale.peers(256);
    let n_queries = scale.queries(100);
    let topologies: Vec<(&str, Topology)> = vec![
        ("ring lattice (k=2)", Topology::ring_lattice(peers, 2)),
        ("small world (k=2, beta=0.2)", Topology::small_world(peers, 2, 0.2, seed)),
        ("scale-free (m=2)", Topology::scale_free(peers, 2, seed)),
    ];
    for (name, topo) in topologies {
        let edges = topo.edge_count();
        let net = FloodingNetwork::new(
            topo,
            Box::new(ConstantLatency(20_000)),
            FloodingConfig { ttl: 5, dedup: true, ..FloodingConfig::default() },
        );
        let community = pattern_community();
        let mut world = World {
            net: Box::new(net),
            plane: PayloadPlane::new(),
            servents: (0..peers).map(|i| Servent::new(PeerId(i as u32))).collect(),
        };
        world.join_all(&community);
        let mut rng = rng_for(seed, "e6d");
        world.populate_patterns(&community, 2, &mut rng);
        let mut recall = Series::new();
        let mut msgs = Series::new();
        let mut lat = Series::new();
        for q in 0..n_queries {
            let target = &GOF_PATTERNS[q % GOF_PATTERNS.len()];
            let origin = (q * 19 + 7) % peers;
            let first_token = tokenize(target.name).into_iter().next().expect("token");
            let out =
                world.search_from(origin, &community, &Query::keyword("name", &first_token));
            recall.push(if out.hits.is_empty() { 0.0 } else { 1.0 });
            msgs.push(out.messages as f64);
            lat.push(out.latency as f64 / 1000.0);
        }
        t.row([
            name.to_string(),
            edges.to_string(),
            fnum(recall.mean()),
            fnum(msgs.mean()),
            fnum(lat.mean()),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E7 — §V: which attributes to index
// ---------------------------------------------------------------------

/// E7: index-filtering profiles for the design-pattern community — size
/// vs recall, supporting the paper's community-designer-controlled
/// Indexed Attribute filter.
pub fn e7_indexing() -> Table {
    let mut t = Table::new(
        "E7 (§V): indexed-attribute filtering on the GoF corpus",
        &["profile", "fields", "token postings", "approx bytes", "build ms", "recall"],
    );
    let community = pattern_community();
    let all_paths: Vec<String> = up2p_schema::leaf_fields(&community.schema)
        .into_iter()
        .filter(|f| f.base.is_textual() || !f.enumeration.is_empty())
        .map(|f| f.path)
        .collect();
    let profiles: Vec<(&str, Vec<String>)> = vec![
        ("full metadata", all_paths.clone()),
        ("searchable (default)", community.indexed_paths()),
        (
            "name + intent",
            vec!["pattern/name".to_string(), "pattern/intent".to_string()],
        ),
        ("name only (filename-equivalent)", vec!["pattern/name".to_string()]),
    ];

    // ground truth against the full profile
    let terms: Vec<String> = {
        let form = FormModel::derive(&community, FormKind::Create);
        let fields: Vec<Vec<(String, String)>> = GOF_PATTERNS
            .iter()
            .map(|p| {
                let doc = form.fill("pattern", &corpus::pattern_values(p)).expect("valid");
                Repository::extract_fields(&doc, &all_paths)
            })
            .collect();
        query_terms(&fields, 20)
    };
    let mut full_results: Vec<Vec<String>> = Vec::new();

    for (name, paths) in &profiles {
        let started = Instant::now();
        let mut repo = Repository::new();
        let form = FormModel::derive(&community, FormKind::Create);
        for p in &GOF_PATTERNS {
            let doc = form.fill("pattern", &corpus::pattern_values(p)).expect("valid");
            repo.insert_doc(&community.id, doc, paths);
        }
        let build_ms = started.elapsed().as_secs_f64() * 1e3;
        let stats = repo.index_stats();

        let results: Vec<Vec<String>> = terms
            .iter()
            .map(|term| {
                repo.search(None, &Query::any_keyword(term))
                    .iter()
                    .map(|o| o.id.to_string())
                    .collect()
            })
            .collect();
        if full_results.is_empty() {
            full_results = results.clone();
        }
        let mut recall = Series::new();
        for (got, want) in results.iter().zip(&full_results) {
            let q = retrieval_quality(got, want);
            recall.push(q.recall);
        }
        t.row([
            name.to_string(),
            paths.len().to_string(),
            stats.token_postings.to_string(),
            stats.approx_bytes.to_string(),
            fnum(build_ms),
            fnum(recall.mean()),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E8 — ROADMAP: the metadata index at scale
// ---------------------------------------------------------------------

/// E8: loads a large synthetic corpus into the interned-doc-id metadata
/// index and measures insert throughput (sequential, batch and through
/// the repository), query latency per query class, and targeted-removal
/// cost. Returns the report table; [`e8_index_scale_report`] also yields
/// the JSON metrics written to `BENCH_e8_index_scale.json`.
pub fn e8_index_scale(scale: Scale, seed: u64) -> Table {
    e8_index_scale_report(scale, seed).0
}

/// E8 with the machine-readable metrics alongside the table.
pub fn e8_index_scale_report(scale: Scale, seed: u64) -> (Table, BenchReport) {
    use up2p_store::{MetadataIndex, ResourceId, ValuePattern};
    let n = match scale {
        Scale::Full => 100_000,
        Scale::Smoke => 10_000,
    };
    let reps = scale.queries(100);
    let mut t = Table::new(
        format!("E8 (ROADMAP): metadata index at scale ({n} synthetic tracks)"),
        &["operation", "count", "per-unit us", "throughput /s", "detail"],
    );
    let mut report = BenchReport::new("e8_index_scale");
    report.push("objects", n as f64);

    let fields = corpus::synthetic_track_fields(n, seed);
    let items: Vec<(ResourceId, Vec<(String, String)>)> = fields
        .into_iter()
        .enumerate()
        .map(|(i, f)| (ResourceId::for_bytes(&(i as u64).to_le_bytes()), f))
        .collect();

    // sequential inserts (the servent's publish path); clone outside the
    // timed region so only index work is measured
    let work = items.clone();
    let started = Instant::now();
    let mut ix = MetadataIndex::new();
    for (id, f) in work {
        ix.insert(id, f);
    }
    let secs = started.elapsed().as_secs_f64();
    report.push("insert_per_sec", n as f64 / secs);
    t.row([
        "sequential insert".to_string(),
        n.to_string(),
        fnum(secs * 1e6 / n as f64),
        fnum(n as f64 / secs),
        "one MetadataIndex::insert per object".to_string(),
    ]);

    // batch insert (bulk load with deferred posting-list merging); the
    // sequential index is dropped first so both loads face the same heap
    drop(ix);
    let work = items.clone();
    let started = Instant::now();
    let mut ix = MetadataIndex::new();
    ix.insert_batch(work.into_iter().map(|(id, f)| (id, f, None)));
    let secs = started.elapsed().as_secs_f64();
    report.push("batch_insert_per_sec", n as f64 / secs);
    t.row([
        "batch insert".to_string(),
        n.to_string(),
        fnum(secs * 1e6 / n as f64),
        fnum(n as f64 / secs),
        "MetadataIndex::insert_batch".to_string(),
    ]);

    // repository batch load over real XML documents (smaller slice:
    // parse + content addressing dominate above the index)
    let docs_n = (n / 20).max(100);
    let xml_docs: Vec<String> = items
        .iter()
        .take(docs_n)
        .map(|(_, f)| {
            let cell = |leaf: &str| {
                f.iter().find(|(p, _)| p.ends_with(leaf)).map(|(_, v)| v.as_str()).unwrap_or("")
            };
            format!(
                "<track><title>{}</title><artist>{}</artist><genre>{}</genre><year>{}</year></track>",
                cell("title"),
                cell("artist"),
                cell("genre"),
                cell("year")
            )
        })
        .collect();
    let paths: Vec<String> = ["track/title", "track/artist", "track/genre", "track/year"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let parsed: Vec<up2p_xml::Document> =
        xml_docs.iter().map(|x| up2p_xml::Document::parse(x).expect("synthetic XML")).collect();
    let started = Instant::now();
    let mut repo = Repository::new();
    let repo_ids = repo.insert_batch("tracks", parsed, &paths);
    let secs = started.elapsed().as_secs_f64();
    assert_eq!(repo.len(), repo_ids.iter().collect::<std::collections::BTreeSet<_>>().len());
    report.push("repo_batch_docs_per_sec", docs_n as f64 / secs);
    t.row([
        "repository batch insert".to_string(),
        docs_n.to_string(),
        fnum(secs * 1e6 / docs_n as f64),
        fnum(docs_n as f64 / secs),
        "Repository::insert_batch (XML + hash + index)".to_string(),
    ]);

    // query latency per class, over the populated index
    let genres = corpus::TRACK_GENRES;
    let classes: Vec<(&str, Vec<Query>)> = vec![
        (
            "exact",
            (0..reps).map(|i| Query::eq("track/genre", genres[i % genres.len()])).collect(),
        ),
        (
            "keyword",
            (0..reps).map(|i| Query::keyword("title", &format!("word{:04}", i % 200))).collect(),
        ),
        (
            "wildcard",
            (0..reps)
                .map(|i| Query::Match {
                    field: "track/artist".to_string(),
                    pattern: ValuePattern::from_wildcard(&format!("artist{:02}*", i % 100)),
                })
                .collect(),
        ),
        (
            "boolean",
            (0..reps)
                .map(|i| {
                    Query::and([
                        Query::eq("track/genre", genres[i % genres.len()]),
                        Query::keyword("title", &format!("word{:04}", i % 200)),
                    ])
                })
                .collect(),
        ),
    ];
    let mut query_secs = 0.0;
    let mut query_ops = 0usize;
    for (class, queries) in &classes {
        let started = Instant::now();
        let mut hits = 0usize;
        for q in queries {
            hits += ix.execute(q).len();
        }
        let secs = started.elapsed().as_secs_f64();
        query_secs += secs;
        query_ops += queries.len();
        let us = secs * 1e6 / queries.len() as f64;
        report.push(&format!("{class}_query_us"), us);
        t.row([
            format!("{class} query"),
            queries.len().to_string(),
            fnum(us),
            fnum(1e6 / us.max(1e-9)),
            format!("{} hits total", hits),
        ]);
    }

    // the headline scale metric: inserts + queries per wall-clock second
    // (sequential-insert time + all query time over one workload)
    let insert_secs = n as f64 / report.get("insert_per_sec").expect("recorded above");
    let combined = (n + query_ops) as f64 / (insert_secs + query_secs);
    report.push("insert_plus_query_per_sec", combined);
    t.row([
        "insert+query combined".to_string(),
        (n + query_ops).to_string(),
        String::new(),
        fnum(combined),
        "sequential insert + all query classes".to_string(),
    ]);

    // targeted removal: cost proportional to the object's own postings
    let removals = n / 10;
    let started = Instant::now();
    for (id, _) in items.iter().take(removals) {
        ix.remove(id);
    }
    let us = started.elapsed().as_secs_f64() * 1e6 / removals as f64;
    report.push("remove_us_per_object", us);
    t.row([
        "targeted remove".to_string(),
        removals.to_string(),
        fnum(us),
        fnum(1e6 / us.max(1e-9)),
        "replays the removed object's own postings".to_string(),
    ]);

    let stats = ix.stats();
    report.push("token_postings", stats.token_postings as f64);
    report.push("approx_bytes", stats.approx_bytes as f64);
    t.row([
        "index size".to_string(),
        stats.objects.to_string(),
        String::new(),
        String::new(),
        format!("{} token postings, {} bytes interned", stats.token_postings, stats.approx_bytes),
    ]);
    (t, report)
}

// ---------------------------------------------------------------------
// E9 — ROADMAP: indexed query evaluation at every network node
// ---------------------------------------------------------------------

/// The Zipf-skewed E9 query mix over the synthetic track corpus: half
/// keyword lookups, a quarter exact genre matches, and the rest boolean
/// and wildcard queries — the shape of a large community's search box.
fn e9_query_mix(n_queries: usize, seed: u64) -> Vec<Query> {
    use up2p_store::ValuePattern;
    let mut rng = rng_for(seed, "e9-queries");
    let vocab = Zipf::new(5000, 1.05);
    let genres = corpus::TRACK_GENRES;
    (0..n_queries)
        .map(|i| {
            let word = format!("word{:04}", vocab.sample(&mut rng));
            match i % 20 {
                0..=9 => Query::keyword("title", &word),
                10..=14 => Query::eq("track/genre", genres[rng.gen_range(0..genres.len())]),
                15..=17 => Query::and([
                    Query::eq("track/genre", genres[rng.gen_range(0..genres.len())]),
                    Query::keyword("title", &word),
                ]),
                _ => Query::Match {
                    field: "track/artist".to_string(),
                    pattern: ValuePattern::from_wildcard(&format!(
                        "artist{:02}*",
                        rng.gen_range(0..100)
                    )),
                },
            }
        })
        .collect()
}

/// E9: the indexed data plane at network scale. Loads a large synthetic
/// corpus into one [`up2p_net::IndexNode`] (the structure every
/// record-holding node now uses), measures indexed evaluation against
/// the pre-refactor linear `matches_fields` scan on the identical
/// workload, then drives the same records and query mix end-to-end
/// through all three substrates.
pub fn e9_search_scale(scale: Scale, seed: u64) -> Table {
    e9_search_scale_report(scale, seed).0
}

/// E9 with the machine-readable metrics alongside the table (written to
/// `BENCH_e9_search_scale.json` by `run_experiments`).
pub fn e9_search_scale_report(scale: Scale, seed: u64) -> (Table, BenchReport) {
    use up2p_net::{build_network, IndexNode, PeerId, ResourceRecord};
    let (peers, n, n_queries) = match scale {
        Scale::Full => (2_000, 100_000, 2_000),
        Scale::Smoke => (256, 10_000, 400),
    };
    // the linear baseline re-matches every record per query; cap its
    // sample so the baseline measurement stays tractable and report both
    // sides as per-query rates over the same mix
    let lin_queries = n_queries.min(match scale {
        Scale::Full => 200,
        Scale::Smoke => 50,
    });
    let net_queries = scale.queries(200);

    let mut t = Table::new(
        format!(
            "E9 (ROADMAP): indexed query evaluation at every node \
             ({n} records, {peers} peers)"
        ),
        &["operation", "count", "per-unit us", "throughput /s", "detail"],
    );
    let mut report = BenchReport::new("e9_search_scale");
    report.push("objects", n as f64);
    report.push("peers", peers as f64);
    report.push("queries", n_queries as f64);

    // one shared-metadata record set; every publish below is an Arc bump
    let records: Vec<(ResourceRecord, PeerId)> = corpus::synthetic_track_fields(n, seed)
        .into_iter()
        .enumerate()
        .map(|(i, fields)| {
            (
                ResourceRecord::new(format!("track{i:06}"), "tracks", fields),
                PeerId((i % peers) as u32),
            )
        })
        .collect();
    let queries = e9_query_mix(n_queries, seed);
    // seeded liveness pattern: ~10% of providers offline, filtered from
    // the candidate set on both the indexed and the linear side
    let alive: Vec<bool> = {
        let mut rng = rng_for(seed, "e9-liveness");
        (0..peers).map(|_| rng.gen::<f64>() < 0.9).collect()
    };

    // -- per-node evaluation: indexed ---------------------------------
    let started = Instant::now();
    let mut node = IndexNode::new();
    for (record, provider) in &records {
        node.insert(*provider, record);
    }
    let secs = started.elapsed().as_secs_f64();
    report.push("publish_per_sec", n as f64 / secs);
    t.row([
        "publish into IndexNode".to_string(),
        n.to_string(),
        fnum(secs * 1e6 / n as f64),
        fnum(n as f64 / secs),
        "shared-metadata upload (Arc bump + postings)".to_string(),
    ]);

    let started = Instant::now();
    let mut indexed_hits = 0usize;
    for q in &queries {
        node.search(
            "tracks",
            q,
            |p| alive[p.index() % peers],
            |_, _, _| indexed_hits += 1,
        );
    }
    let indexed_secs = started.elapsed().as_secs_f64();
    let indexed_per_sec = n_queries as f64 / indexed_secs;
    report.push("indexed_eval_per_sec", indexed_per_sec);
    t.row([
        "indexed evaluation".to_string(),
        n_queries.to_string(),
        fnum(indexed_secs * 1e6 / n_queries as f64),
        fnum(indexed_per_sec),
        format!("IndexNode posting-list lookups, {indexed_hits} hits"),
    ]);

    // -- per-node evaluation: pre-refactor linear baseline ------------
    let started = Instant::now();
    let mut linear_hits = 0usize;
    for q in queries.iter().take(lin_queries) {
        for (record, provider) in &records {
            if record.community == "tracks"
                && q.matches_fields(&record.fields)
                && alive[provider.index() % peers]
            {
                linear_hits += 1;
            }
        }
    }
    let linear_secs = started.elapsed().as_secs_f64();
    let linear_per_sec = lin_queries as f64 / linear_secs;
    report.push("linear_eval_per_sec", linear_per_sec);
    t.row([
        "linear baseline".to_string(),
        lin_queries.to_string(),
        fnum(linear_secs * 1e6 / lin_queries as f64),
        fnum(linear_per_sec),
        format!("matches_fields scan over all records, {linear_hits} hits"),
    ]);

    let speedup = indexed_per_sec / linear_per_sec;
    report.push("indexed_speedup", speedup);
    t.row([
        "indexed vs linear".to_string(),
        String::new(),
        String::new(),
        String::new(),
        format!("{:.1}x more searches/sec at one node", speedup),
    ]);

    // -- end-to-end through all three substrates ----------------------
    for kind in [ProtocolKind::Napster, ProtocolKind::FastTrack, ProtocolKind::Gnutella] {
        let mut net = build_network(kind, peers, seed);
        for (record, provider) in &records {
            net.publish(*provider, record.clone());
        }
        net.reset_stats();
        let started = Instant::now();
        let mut with_hits = 0usize;
        let mut msgs = Series::new();
        for (i, q) in queries.iter().take(net_queries).enumerate() {
            let origin = PeerId(((i * 11 + 5) % peers) as u32);
            let out = net.search(origin, "tracks", q);
            if !out.hits.is_empty() {
                with_hits += 1;
            }
            msgs.push(out.messages as f64);
        }
        let secs = started.elapsed().as_secs_f64();
        let key = kind.schema_value().to_lowercase();
        report.push(&format!("{key}_searches_per_sec"), net_queries as f64 / secs);
        report.push(&format!("{key}_msgs_per_query"), msgs.mean());
        report.push(
            &format!("{key}_success_rate"),
            with_hits as f64 / net_queries as f64,
        );
        t.row([
            format!("{kind} end-to-end"),
            net_queries.to_string(),
            fnum(secs * 1e6 / net_queries as f64),
            fnum(net_queries as f64 / secs),
            format!("{:.1} msgs/query, {with_hits}/{net_queries} with hits", msgs.mean()),
        ]);
    }

    // -- multi-core serving plane: sharded index, 1→N worker grid -----
    // The corpus is spread over many communities so the sharded node has
    // independent read-mostly shards to serve from; the same query mix
    // is then answered through `serve_batch` at increasing pool widths.
    // Scaling is bounded by the machine: `hardware_threads` records how
    // many cores this JSON was generated with, so a flat curve on a
    // 1-core container is the honest expected result there.
    {
        use up2p_net::{serve_batch, ShardedIndexNode};
        let hardware = std::thread::available_parallelism().map_or(1, |p| p.get());
        report.push("hardware_threads", hardware as f64);
        const GRID_COMMUNITIES: usize = 16;
        let community_of = |i: usize| format!("tracks{:02}", i % GRID_COMMUNITIES);
        let started = Instant::now();
        let sharded = ShardedIndexNode::new();
        for (i, (record, provider)) in records.iter().enumerate() {
            let rec = ResourceRecord {
                key: record.key.clone(),
                community: community_of(i),
                fields: record.fields.clone(),
            };
            sharded.insert(*provider, &rec);
        }
        let secs = started.elapsed().as_secs_f64();
        report.push("sharded_publish_per_sec", n as f64 / secs);
        t.row([
            "publish into ShardedIndexNode".to_string(),
            n.to_string(),
            fnum(secs * 1e6 / n as f64),
            fnum(n as f64 / secs),
            format!("{GRID_COMMUNITIES} community shards, single writer"),
        ]);

        let grid: Vec<(String, Query)> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| (community_of(i), q.clone()))
            .collect();
        let mut base_per_sec = f64::NAN;
        for workers in [1usize, 2, 4, 8] {
            let started = Instant::now();
            let hits = serve_batch(workers, grid.len(), |i| {
                let (community, q) = &grid[i];
                let mut hits = 0u64;
                sharded.search(community, q, |p| alive[p.index() % peers], |_, _, _| {
                    hits += 1;
                });
                hits
            });
            let secs = started.elapsed().as_secs_f64();
            let per_sec = grid.len() as f64 / secs;
            if workers == 1 {
                base_per_sec = per_sec;
            }
            report.push(&format!("scale_w{workers}_searches_per_sec"), per_sec);
            t.row([
                format!("sharded read-heavy, {workers} workers"),
                grid.len().to_string(),
                fnum(secs * 1e6 / grid.len() as f64),
                fnum(per_sec),
                format!(
                    "read guards only, {} hits, {hardware} hw threads",
                    hits.iter().sum::<u64>()
                ),
            ]);
        }
        let speedup =
            report.get("scale_w8_searches_per_sec").unwrap_or(0.0) / base_per_sec.max(1e-9);
        report.push("read_speedup_8w", speedup);
        t.row([
            "8-worker speedup".to_string(),
            String::new(),
            String::new(),
            String::new(),
            format!("{speedup:.2}x aggregate searches/sec vs 1 worker ({hardware} hw threads)"),
        ]);

        // mixed plane: publishes land in single shards while searches of
        // the other communities keep streaming through read guards
        const WRITE_RATIO: usize = 10; // one publish per 10 operations
        report.push("mixed_write_ratio", 1.0 / WRITE_RATIO as f64);
        for workers in [1usize, 8] {
            let started = Instant::now();
            serve_batch(workers, grid.len(), |i| {
                if i % WRITE_RATIO == 0 {
                    let (source, provider) = &records[i % records.len()];
                    let rec = ResourceRecord {
                        key: format!("mixed-{workers}-{i}"),
                        community: community_of(i),
                        fields: source.fields.clone(),
                    };
                    sharded.insert(*provider, &rec);
                    0u64
                } else {
                    let (community, q) = &grid[i];
                    let mut hits = 0u64;
                    sharded.search(community, q, |p| alive[p.index() % peers], |_, _, _| {
                        hits += 1;
                    });
                    hits
                }
            });
            let secs = started.elapsed().as_secs_f64();
            let per_sec = grid.len() as f64 / secs;
            report.push(&format!("mixed_w{workers}_ops_per_sec"), per_sec);
            t.row([
                format!("mixed 10% publish, {workers} workers"),
                grid.len().to_string(),
                fnum(secs * 1e6 / grid.len() as f64),
                fnum(per_sec),
                "writers take one shard; readers stay wait-free elsewhere".to_string(),
            ]);
        }
    }

    // -- pooled batch serving end-to-end (Napster server) -------------
    {
        use up2p_net::SearchRequest;
        let mut net = build_network(ProtocolKind::Napster, peers, seed);
        for (record, provider) in &records {
            net.publish(*provider, record.clone());
        }
        net.reset_stats();
        let requests: Vec<SearchRequest> = queries
            .iter()
            .take(net_queries)
            .enumerate()
            .map(|(i, q)| {
                SearchRequest::new(PeerId(((i * 11 + 5) % peers) as u32), "tracks", q.clone())
            })
            .collect();
        let batch_workers = 4usize;
        let started = Instant::now();
        let outcomes = net.search_batch(&requests, batch_workers);
        let secs = started.elapsed().as_secs_f64();
        let with_hits = outcomes.iter().filter(|o| !o.hits.is_empty()).count();
        report.push("napster_batch_workers", batch_workers as f64);
        report.push("napster_batch_searches_per_sec", requests.len() as f64 / secs);
        t.row([
            "Napster search_batch".to_string(),
            requests.len().to_string(),
            fnum(secs * 1e6 / requests.len() as f64),
            fnum(requests.len() as f64 / secs),
            format!(
                "{batch_workers} pool workers, {with_hits}/{} with hits",
                requests.len()
            ),
        ]);
    }
    (t, report)
}

// ---------------------------------------------------------------------
// E10 — guided search: routing digests vs blind flooding
// ---------------------------------------------------------------------

/// E10: the routing-digest layer (DESIGN.md §3c). Same corpus and query
/// mix as E9, but the decentralized substrates run twice — once flooding
/// blindly, once guided by per-neighbor routing digests — and the
/// message bill per query is compared directly. Digest maintenance
/// traffic (pushes + requests) is reported separately so the cost of
/// guided routing stays visible.
pub fn e10_guided_search(scale: Scale, seed: u64) -> Table {
    e10_guided_search_report(scale, seed).0
}

/// E10 with the machine-readable metrics alongside the table (written to
/// `BENCH_e10_guided_search.json` by `run_experiments`).
pub fn e10_guided_search_report(scale: Scale, seed: u64) -> (Table, BenchReport) {
    use up2p_net::{build_network_with, DigestConfig, NetConfig, PeerId, ResourceRecord};
    let (peers, n, n_queries) = match scale {
        Scale::Full => (2_000, 100_000, 2_000),
        Scale::Smoke => (256, 10_000, 400),
    };
    let net_queries = scale.queries(200);

    let mut t = Table::new(
        format!("E10: guided search via routing digests ({n} records, {peers} peers)"),
        &["substrate", "msgs/query", "success", "digest msgs", "detail"],
    );
    let mut report = BenchReport::new("e10_guided_search");
    report.push("objects", n as f64);
    report.push("peers", peers as f64);
    report.push("queries", net_queries as f64);

    // the E9 corpus, placement and query mix, so msgs/query lines up
    // with the E9 end-to-end rows
    let records: Vec<(ResourceRecord, PeerId)> = corpus::synthetic_track_fields(n, seed)
        .into_iter()
        .enumerate()
        .map(|(i, fields)| {
            (
                ResourceRecord::new(format!("track{i:06}"), "tracks", fields),
                PeerId((i % peers) as u32),
            )
        })
        .collect();
    let queries = e9_query_mix(n_queries, seed);

    let cases = [
        ("gnutella_flood", ProtocolKind::Gnutella, false),
        ("gnutella_guided", ProtocolKind::Gnutella, true),
        ("fasttrack_flood", ProtocolKind::FastTrack, false),
        ("fasttrack_guided", ProtocolKind::FastTrack, true),
    ];
    // each flood row precedes its guided twin; remember the baseline
    let mut baseline_msgs = 0.0;
    for (key, kind, guided) in cases {
        let config = if guided {
            NetConfig::new().digests(DigestConfig::guided())
        } else {
            NetConfig::new()
        };
        let mut net = build_network_with(kind, peers, seed, &config);
        for (record, provider) in &records {
            net.publish(*provider, record.clone());
        }
        net.reset_stats();
        let started = Instant::now();
        let mut with_hits = 0usize;
        let mut msgs = Series::new();
        for (i, q) in queries.iter().take(net_queries).enumerate() {
            let origin = PeerId(((i * 11 + 5) % peers) as u32);
            let out = net.search(origin, "tracks", q);
            if !out.hits.is_empty() {
                with_hits += 1;
            }
            msgs.push(out.messages as f64);
        }
        let secs = started.elapsed().as_secs_f64();
        let digest_msgs = net.digest_messages();
        let success = with_hits as f64 / net_queries as f64;
        report.push(&format!("{key}_msgs_per_query"), msgs.mean());
        report.push(&format!("{key}_success_rate"), success);
        report.push(&format!("{key}_searches_per_sec"), net_queries as f64 / secs);
        report.push(&format!("{key}_digest_msgs"), digest_msgs as f64);
        let detail = if guided {
            let reduction = baseline_msgs / msgs.mean().max(f64::MIN_POSITIVE);
            report.push(&format!("{key}_reduction"), reduction);
            format!("{reduction:.1}x fewer msgs/query than blind flooding")
        } else {
            baseline_msgs = msgs.mean();
            "blind flooding baseline".to_string()
        };
        t.row([
            key.replace('_', " "),
            fnum(msgs.mean()),
            format!("{with_hits}/{net_queries}"),
            digest_msgs.to_string(),
            detail,
        ]);
    }
    (t, report)
}

// ---------------------------------------------------------------------
// E11 — discrete-event engine at 10k/100k peers
// ---------------------------------------------------------------------

/// One E11 case: build a [`up2p_net::DesNetwork`], publish the
/// catalogue, schedule the query timeline (plus an optional churn
/// storm), drain the queue, and record throughput/cost/footprint.
#[allow(clippy::too_many_arguments)]
fn e11_case(
    key: &str,
    kind: ProtocolKind,
    peers: usize,
    seed: u64,
    config: &up2p_net::NetConfig,
    churn_storm: bool,
    t: &mut Table,
    report: &mut BenchReport,
) {
    use up2p_net::{DesNetwork, PeerNetwork, ResourceRecord};
    let n_records = (peers / 10).max(50);
    let n_queries = if peers >= 50_000 { 200 } else { 100 };

    let mut net = DesNetwork::build(kind, peers, seed, config);
    for (i, fields) in corpus::synthetic_track_fields(n_records, seed).into_iter().enumerate() {
        net.publish(
            PeerId((i % peers) as u32),
            ResourceRecord::new(format!("track{i:06}"), "tracks", fields),
        );
    }
    if churn_storm {
        let horizon = n_queries as u64 * 10_000;
        net.schedule_churn(&churn::exponential_schedule(peers, horizon, 400_000, 200_000, seed));
    }
    for (i, q) in e9_query_mix(n_queries, seed).into_iter().enumerate() {
        let origin = PeerId(((i * 11 + 5) % peers) as u32);
        net.schedule_query(i as u64 * 10_000, origin, "tracks", q);
    }
    let started = Instant::now();
    let outcomes = net.run();
    let secs = started.elapsed().as_secs_f64().max(1e-9);

    let with_hits = outcomes.iter().filter(|o| !o.hits.is_empty()).count();
    let mut msgs = Series::new();
    for o in &outcomes {
        msgs.push(o.messages as f64);
    }
    let events_per_sec = net.events_processed() as f64 / secs;
    let success = with_hits as f64 / outcomes.len().max(1) as f64;
    let bytes_per_peer = net.approx_bytes() as f64 / peers as f64;
    report.push(&format!("{key}_events_per_sec"), events_per_sec);
    report.push(&format!("{key}_msgs_per_query"), msgs.mean());
    report.push(&format!("{key}_success_rate"), success);
    report.push(&format!("{key}_bytes_per_peer"), bytes_per_peer);
    t.row([
        key.replace('_', " "),
        peers.to_string(),
        fnum(events_per_sec),
        fnum(msgs.mean()),
        format!("{with_hits}/{}", outcomes.len()),
        fnum(bytes_per_peer),
        fnum(secs * 1e3),
    ]);
}

/// E11: the discrete-event engine at 10k/100k peers (table only).
pub fn e11_des_scale(scale: Scale, seed: u64) -> Table {
    e11_des_scale_report(scale, seed).0
}

/// E11 with the machine-readable metrics alongside the table (written
/// to `BENCH_e11_des_scale.json` by `run_experiments`). All three
/// protocols run the full peer grid on the virtual-time engine; the
/// smaller grid size additionally gets a guided-search row (compact
/// digests — full-size digests at 10k+ peers would dwarf the record
/// state) and a FastTrack churn-storm row where liveness flaps land
/// between message deliveries.
pub fn e11_des_scale_report(scale: Scale, seed: u64) -> (Table, BenchReport) {
    use up2p_net::{DigestConfig, NetConfig};
    let grid: [usize; 2] = match scale {
        Scale::Full => [10_000, 100_000],
        Scale::Smoke => [500, 2_000],
    };
    let mut t = Table::new(
        format!("E11: discrete-event engine at scale ({} / {} peers)", grid[0], grid[1]),
        &["substrate", "peers", "events/sec", "msgs/query", "success", "bytes/peer", "wall ms"],
    );
    let mut report = BenchReport::new("e11_des_scale");
    report.push("peers_small", grid[0] as f64);
    report.push("peers_large", grid[1] as f64);
    for peers in grid {
        for (name, kind) in [
            ("napster", ProtocolKind::Napster),
            ("gnutella", ProtocolKind::Gnutella),
            ("fasttrack", ProtocolKind::FastTrack),
        ] {
            e11_case(
                &format!("{name}_{peers}"),
                kind,
                peers,
                seed,
                &NetConfig::new(),
                false,
                &mut t,
                &mut report,
            );
        }
    }
    let small = grid[0];
    e11_case(
        &format!("gnutella_guided_{small}"),
        ProtocolKind::Gnutella,
        small,
        seed,
        &NetConfig::new().digests(DigestConfig { log2_bits: 10, ..DigestConfig::guided() }),
        false,
        &mut t,
        &mut report,
    );
    e11_case(
        &format!("fasttrack_churn_{small}"),
        ProtocolKind::FastTrack,
        small,
        seed,
        &NetConfig::new(),
        true,
        &mut t,
        &mut report,
    );
    (t, report)
}

// ---------------------------------------------------------------------
// E12 — durability: WAL publish, compaction, segment + WAL recovery
// ---------------------------------------------------------------------

/// Unique scratch directory for an E12 sub-measurement. Scenario tests
/// run concurrently inside one process, so a counter joins the pid.
fn e12_tmp(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("up2p-e12-{tag}-{}-{case}", std::process::id()))
}

/// Total size of the (flat) files directly under `dir`.
fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| rd.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}

/// E12: the append-only durability layer — write-ahead-logged publishes,
/// compaction into a pre-tokenized segment, and manifest recovery
/// (table only).
pub fn e12_durability(scale: Scale, seed: u64) -> Table {
    e12_durability_report(scale, seed).0
}

/// E12 with the machine-readable metrics alongside the table (written
/// to `BENCH_e12_durability.json` by `run_experiments`). One corpus of
/// synthetic tracks is published through the durable store (batched
/// fsync for the bulk, a per-record-fsync slice for the worst case),
/// compacted, and recovered from the segment + WAL tail.
pub fn e12_durability_report(scale: Scale, seed: u64) -> (Table, BenchReport) {
    use up2p_store::{DurableOptions, DurableRepository, SyncPolicy};
    let n = match scale {
        Scale::Full => 100_000,
        Scale::Smoke => 2_000,
    };
    let mut t = Table::new(
        format!("E12: durable store ({n} synthetic tracks)"),
        &["operation", "objects", "wall ms", "throughput /s", "detail"],
    );
    let mut report = BenchReport::new("e12_durability");
    report.push("objects", n as f64);

    let fields = corpus::synthetic_track_fields(n, seed);
    let paths: Vec<String> = ["track/title", "track/artist", "track/genre", "track/year"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    // a serial element keeps every document content-distinct (the store
    // is content-addressed; Zipf-sampled fields alone can collide)
    let xml_docs: Vec<String> = fields
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let cell = |leaf: &str| {
                f.iter().find(|(p, _)| p.ends_with(leaf)).map(|(_, v)| v.as_str()).unwrap_or("")
            };
            format!(
                "<track><serial>{i}</serial><title>{}</title><artist>{}</artist>\
                 <genre>{}</genre><year>{}</year></track>",
                cell("title"),
                cell("artist"),
                cell("genre"),
                cell("year")
            )
        })
        .collect();

    // durable publish, fsync batched: the steady-state ingest path
    let durable_dir = e12_tmp("durable");
    let _ = std::fs::remove_dir_all(&durable_dir);
    let opts = DurableOptions { sync: SyncPolicy::EveryN(1024), compact_every: None };
    let mut store = DurableRepository::open(&durable_dir, opts).expect("open durable dir");
    let started = Instant::now();
    for xml in &xml_docs {
        store.publish_xml("tracks", xml, &paths).expect("durable publish");
    }
    store.sync().expect("final fsync");
    let publish_secs = started.elapsed().as_secs_f64();
    assert_eq!(store.repository().len(), n, "serials keep all documents distinct");
    report.push("publish_durable_per_sec", n as f64 / publish_secs);
    t.row([
        "durable publish (batched fsync)".to_string(),
        n.to_string(),
        fnum(publish_secs * 1e3),
        fnum(n as f64 / publish_secs),
        "WAL append before index, fsync per 1024".to_string(),
    ]);

    // per-record fsync on a smaller slice: every Ok is crash-durable
    let fsync_n = (n / 20).max(100);
    let fsync_dir = e12_tmp("fsync");
    let _ = std::fs::remove_dir_all(&fsync_dir);
    let mut strict =
        DurableRepository::open(&fsync_dir, DurableOptions::default()).expect("open fsync dir");
    let started = Instant::now();
    for xml in xml_docs.iter().take(fsync_n) {
        strict.publish_xml("tracks", xml, &paths).expect("strict publish");
    }
    let fsync_secs = started.elapsed().as_secs_f64();
    drop(strict);
    let _ = std::fs::remove_dir_all(&fsync_dir);
    report.push("publish_fsync_each_per_sec", fsync_n as f64 / fsync_secs);
    t.row([
        "durable publish (fsync each)".to_string(),
        fsync_n.to_string(),
        fnum(fsync_secs * 1e3),
        fnum(fsync_n as f64 / fsync_secs),
        "SyncPolicy::EveryRecord".to_string(),
    ]);

    // compaction: WAL → sorted immutable segment + fresh manifest
    let started = Instant::now();
    store.compact().expect("compact");
    let compact_secs = started.elapsed().as_secs_f64();
    let durable_bytes = dir_bytes(&durable_dir);
    report.push("compact_ms", compact_secs * 1e3);
    report.push("durable_bytes", durable_bytes as f64);
    t.row([
        "compaction".to_string(),
        n.to_string(),
        fnum(compact_secs * 1e3),
        fnum(n as f64 / compact_secs),
        format!("segment + manifest, {durable_bytes} bytes on disk"),
    ]);

    // recovery: pre-tokenized segment frames replay straight into the
    // index, no tokenizer run
    drop(store);
    let started = Instant::now();
    let (recovered, rec) = DurableRepository::recover(&durable_dir).expect("recover");
    let recovery_secs = started.elapsed().as_secs_f64();
    assert_eq!(recovered.len(), n);
    assert_eq!(rec.segment_objects, n);
    report.push("recovery_ms", recovery_secs * 1e3);
    t.row([
        "recovery (segment + WAL tail)".to_string(),
        n.to_string(),
        fnum(recovery_secs * 1e3),
        fnum(n as f64 / recovery_secs),
        format!("generation {}, zero re-tokenization", rec.generation),
    ]);

    let _ = std::fs::remove_dir_all(&durable_dir);
    (t, report)
}

/// Runs every scenario at the given scale, returning all tables in
/// EXPERIMENTS.md order.
pub fn run_all(scale: Scale, seed: u64) -> Vec<Table> {
    vec![
        e1_pipeline(),
        e2_generation(&[4, 8, 16, 32, 64]),
        e3_discovery(scale, seed),
        e4_metadata(),
        e5_replication(scale, seed),
        e6_protocols(scale, seed),
        e6_ttl_sweep(scale, seed),
        e6_dedup_ablation(scale, seed),
        e6_topologies(scale, seed),
        e7_indexing(),
        e8_index_scale(scale, seed),
        e9_search_scale(scale, seed),
        e10_guided_search(scale, seed),
        e11_des_scale(scale, seed),
        e12_durability(scale, seed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_has_all_stages() {
        let t = e1_pipeline();
        assert_eq!(t.rows.len(), 6);
    }

    #[test]
    fn e2_succeeds_for_all_sizes() {
        let t = e2_generation(&[2, 8, 24]);
        assert_eq!(t.rows.len(), 3);
        // HTML grows with field count
        let b0: usize = t.rows[0][4].parse().unwrap();
        let b2: usize = t.rows[2][4].parse().unwrap();
        assert!(b2 > b0);
    }

    #[test]
    fn e3_centralized_always_succeeds() {
        let t = e3_discovery(Scale::Smoke, 7);
        // Napster rows come first; success column is index 4
        for row in t.rows.iter().filter(|r| r[0] == "Napster") {
            assert_eq!(row[4], "1.00", "centralized discovery is exact: {row:?}");
        }
    }

    #[test]
    fn e4_metadata_beats_filenames_on_patterns() {
        let t = e4_metadata();
        let f1 = |corpus: &str, method_prefix: &str| -> f64 {
            t.rows
                .iter()
                .find(|r| r[0] == corpus && r[1].starts_with(method_prefix))
                .map(|r| r[5].parse().unwrap())
                .unwrap()
        };
        let meta_patterns = f1("patterns", "metadata");
        let file_patterns = f1("patterns", "filename");
        assert!(
            meta_patterns > file_patterns + 0.2,
            "metadata {meta_patterns} vs filename {file_patterns}"
        );
        // the gap shrinks for MP3s (descriptive filenames)
        let meta_mp3 = f1("mp3", "metadata");
        let file_mp3 = f1("mp3", "filename");
        assert!(
            (meta_patterns - file_patterns) > (meta_mp3 - file_mp3) - 0.05,
            "pattern gap should exceed mp3 gap"
        );
    }

    #[test]
    fn e5_availability_rises_with_replicas() {
        let t = e5_replication(Scale::Smoke, 7);
        // within each availability block, found-rate is non-decreasing
        for chunk in t.rows.chunks(4) {
            let rates: Vec<f64> = chunk.iter().map(|r| r[3].parse().unwrap()).collect();
            assert!(
                rates.windows(2).all(|w| w[1] >= w[0] - 0.08),
                "rates should rise with replication: {rates:?}"
            );
        }
    }

    #[test]
    fn e6_message_ordering_holds() {
        let t = e6_protocols(Scale::Smoke, 7);
        let msgs: Vec<f64> = t.rows.iter().map(|r| r[3].parse().unwrap()).collect();
        assert!(msgs[0] <= msgs[1], "Napster <= FastTrack: {msgs:?}");
        assert!(msgs[1] <= msgs[2], "FastTrack <= Gnutella: {msgs:?}");
    }

    #[test]
    fn e6_ttl_recall_monotone() {
        let t = e6_ttl_sweep(Scale::Smoke, 7);
        let recalls: Vec<f64> = t.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        assert!(
            recalls.windows(2).all(|w| w[1] >= w[0] - 1e-9),
            "recall grows with ttl: {recalls:?}"
        );
    }

    #[test]
    fn e6_dedup_saves_messages() {
        let t = e6_dedup_ablation(Scale::Smoke, 7);
        let with: f64 = t.rows[0][2].parse().unwrap();
        let without: f64 = t.rows[1][2].parse().unwrap();
        assert!(without > with, "no-dedup must cost more: {without} vs {with}");
    }

    #[test]
    fn e6_topology_ablation_runs_and_ring_is_slowest() {
        let t = e6_topologies(Scale::Smoke, 7);
        assert_eq!(t.rows.len(), 3);
        // at fixed TTL the ring covers the fewest peers → lowest recall
        let ring_recall: f64 = t.rows[0][2].parse().unwrap();
        let sw_recall: f64 = t.rows[1][2].parse().unwrap();
        assert!(
            ring_recall <= sw_recall + 1e-9,
            "ring {ring_recall} should not beat small world {sw_recall}"
        );
    }

    #[test]
    fn e8_reports_all_operations_with_sane_metrics() {
        let (t, report) = e8_index_scale_report(Scale::Smoke, 7);
        // sequential, batch, repo-batch, 4 query classes, combined,
        // remove, size
        assert_eq!(t.rows.len(), 10);
        assert_eq!(report.get("objects"), Some(10_000.0));
        for key in [
            "insert_per_sec",
            "batch_insert_per_sec",
            "repo_batch_docs_per_sec",
            "exact_query_us",
            "keyword_query_us",
            "wildcard_query_us",
            "boolean_query_us",
            "insert_plus_query_per_sec",
            "remove_us_per_object",
            "token_postings",
            "approx_bytes",
        ] {
            let v = report.get(key).unwrap_or_else(|| panic!("missing metric {key}"));
            assert!(v > 0.0, "{key} should be positive, got {v}");
        }
        let json = report.to_json();
        assert!(json.contains("\"name\": \"e8_index_scale\""));
        assert!(json.contains("insert_per_sec"));
    }

    #[test]
    fn e9_indexed_evaluation_beats_the_linear_baseline() {
        let (t, report) = e9_search_scale_report(Scale::Smoke, 7);
        // publish, indexed, linear, speedup, 3 protocols, sharded
        // publish, 4-point worker grid, grid speedup, 2 mixed rows,
        // Napster batch
        assert_eq!(t.rows.len(), 16);
        assert_eq!(report.get("objects"), Some(10_000.0));
        for key in [
            "peers",
            "queries",
            "publish_per_sec",
            "indexed_eval_per_sec",
            "linear_eval_per_sec",
            "indexed_speedup",
            "napster_searches_per_sec",
            "napster_msgs_per_query",
            "napster_success_rate",
            "fasttrack_searches_per_sec",
            "gnutella_searches_per_sec",
            "hardware_threads",
            "sharded_publish_per_sec",
            "scale_w1_searches_per_sec",
            "scale_w2_searches_per_sec",
            "scale_w4_searches_per_sec",
            "scale_w8_searches_per_sec",
            "read_speedup_8w",
            "mixed_write_ratio",
            "mixed_w1_ops_per_sec",
            "mixed_w8_ops_per_sec",
            "napster_batch_workers",
            "napster_batch_searches_per_sec",
        ] {
            let v = report.get(key).unwrap_or_else(|| panic!("missing metric {key}"));
            assert!(v > 0.0, "{key} should be positive, got {v}");
        }
        let speedup = report.get("indexed_speedup").unwrap();
        assert!(
            speedup >= 2.0,
            "indexed evaluation should clearly beat the linear scan even \
             at smoke scale, got {speedup:.2}x"
        );
        // the popular head of the Zipf query mix resolves on every
        // substrate — the centralized index answers exactly
        assert!(report.get("napster_success_rate").unwrap() > 0.5);
        let json = report.to_json();
        assert!(json.contains("\"name\": \"e9_search_scale\""));
        assert!(json.contains("indexed_speedup"));
    }

    #[test]
    fn e9_is_deterministic() {
        let run = || {
            let t = e9_search_scale(Scale::Smoke, 11);
            // hit counts and success rates are embedded in the detail
            // column; timing-derived cells (including the speedup row)
            // are excluded from the comparison
            t.rows
                .iter()
                .map(|r| r[4].clone())
                .filter(|d| !d.contains("searches/sec"))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn e10_guided_search_slashes_the_message_bill() {
        let (t, report) = e10_guided_search_report(Scale::Smoke, 7);
        // flood + guided rows for each of the two decentralized substrates
        assert_eq!(t.rows.len(), 4);
        for key in ["gnutella", "fasttrack"] {
            let flood = report.get(&format!("{key}_flood_msgs_per_query")).unwrap();
            let guided = report.get(&format!("{key}_guided_msgs_per_query")).unwrap();
            let reduction = report.get(&format!("{key}_guided_reduction")).unwrap();
            assert!(
                reduction >= 10.0,
                "{key}: guided search should cut messages ≥10x even at \
                 smoke scale, got {flood:.1} → {guided:.1} ({reduction:.1}x)"
            );
            let success = report.get(&format!("{key}_guided_success_rate")).unwrap();
            assert!(
                success >= 0.9,
                "{key}: guided search success fell to {success} at smoke scale"
            );
            // the flood rows pay no digest traffic; the guided rows do,
            // and the maintenance bill is reported, not hidden
            assert_eq!(report.get(&format!("{key}_flood_digest_msgs")), Some(0.0));
            assert!(report.get(&format!("{key}_guided_digest_msgs")).unwrap() > 0.0);
        }
        let json = report.to_json();
        assert!(json.contains("\"name\": \"e10_guided_search\""));
        assert!(json.contains("gnutella_guided_reduction"));
    }

    #[test]
    fn e11_smoke_covers_every_substrate_and_round_trips() {
        let (t, report) = e11_des_scale_report(Scale::Smoke, 7);
        // 3 protocols × 2 grid sizes + guided + churn rows
        assert_eq!(t.rows.len(), 8);
        for key in ["napster_500", "gnutella_500", "fasttrack_500", "fasttrack_churn_500"] {
            let success = report.get(&format!("{key}_success_rate")).unwrap();
            assert!(success > 0.0, "{key}: no query found anything at smoke scale");
            assert!(report.get(&format!("{key}_events_per_sec")).unwrap() > 0.0);
        }
        // guided search pays digest state but cuts per-query messages
        let flood = report.get("gnutella_500_msgs_per_query").unwrap();
        let guided = report.get("gnutella_guided_500_msgs_per_query").unwrap();
        assert!(guided < flood, "guided {guided:.1} should undercut flood {flood:.1}");
        // the JSON artifact round-trips through the report parser
        let json = report.to_json();
        let parsed = BenchReport::from_json(&json).expect("bench JSON parses");
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn e11_is_deterministic_modulo_wall_clock() {
        let run = || {
            let (t, _) = e11_des_scale_report(Scale::Smoke, 11);
            // drop the wall-clock and events/sec columns; all remaining
            // cells are functions of the seed alone
            t.rows
                .iter()
                .map(|r| [&r[0], &r[1], &r[3], &r[4], &r[5]].map(String::from))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn e10_is_deterministic() {
        let run = || {
            let t = e10_guided_search(Scale::Smoke, 11);
            // every column except the timing-free detail text is seeded;
            // the table carries no wall-clock cells at all
            t.rows.clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn e12_recovery_beats_the_xml_rebuild_and_round_trips() {
        let (t, report) = e12_durability_report(Scale::Smoke, 7);
        // publish (batched), publish (fsync each), compaction, recovery
        assert_eq!(t.rows.len(), 4);
        assert_eq!(report.get("objects"), Some(2_000.0));
        for key in [
            "publish_durable_per_sec",
            "publish_fsync_each_per_sec",
            "compact_ms",
            "recovery_ms",
            "durable_bytes",
        ] {
            let v = report.get(key).unwrap_or_else(|| panic!("missing metric {key}"));
            assert!(v > 0.0, "{key} should be positive, got {v}");
        }
        // the JSON artifact round-trips through the report parser
        let json = report.to_json();
        assert!(json.contains("\"name\": \"e12_durability\""));
        let parsed = BenchReport::from_json(&json).expect("bench JSON parses");
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn e7_smaller_profiles_lose_recall_but_shrink() {
        let t = e7_indexing();
        let postings: Vec<usize> = t.rows.iter().map(|r| r[2].parse().unwrap()).collect();
        let recalls: Vec<f64> = t.rows.iter().map(|r| r[5].parse().unwrap()).collect();
        assert!(postings.windows(2).all(|w| w[1] <= w[0]), "{postings:?}");
        assert_eq!(recalls[0], 1.0, "full profile is the ground truth");
        assert!(recalls[3] < recalls[0], "name-only loses recall: {recalls:?}");
    }
}
