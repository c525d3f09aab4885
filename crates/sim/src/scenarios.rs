//! The experiment scenarios E1–E7 and E11 (see DESIGN.md §4 for the
//! mapping to the paper's figures and claims). Each function returns its
//! table(s) and writes no file; all randomness is seeded and no clock
//! reaches a table, so every cell is a function of `(scale, seed)` —
//! `tests/golden/smoke.md` is `run_all(Scale::Smoke, 42)`, committed.
//! Wall-clock measurement of the product lives in `up2p_bench/`.
//!
//! panic-ok: the scenario harness fails fast on its own fixed corpus; a failure here invalidates the run, not the servent

use crate::corpus::{
    self, mp3_community, pattern_community, pattern_filename, pattern_values, song_filename,
    PatternRecord, GOF_PATTERNS,
};
use crate::experiment::{pattern_world, pattern_world_over, World};
use crate::metrics::{retrieval_quality, Series, Tally};
use crate::report::{fnum, Table};
use crate::workload::{rng_for, Zipf};
use rand::rngs::StdRng;
use rand::Rng;
use up2p_core::{stylesheets, Community, FormKind, FormModel};
use up2p_net::{
    churn, ConstantLatency, FloodingConfig, FloodingNetwork, PeerId, ProtocolKind, Topology,
};
use up2p_schema::{FieldKind, SchemaBuilder};
use up2p_store::{tokenize, Query, Repository, ResourceId};

/// Scale knob: scenario sizes are divided by this for fast test runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Full sizes (the tables DESIGN.md §4 describes).
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
// Shared pieces: a corpus filled and indexed, the two pattern queries
// ---------------------------------------------------------------------

/// A corpus filled in through its community's generated create form and
/// indexed on a set of field paths — what E1, E4 and E7 read.
#[derive(Default)]
struct IndexedCorpus {
    /// Per object, the `(path, value)` pairs the index received.
    fields: Vec<Vec<(String, String)>>,
    ids: Vec<ResourceId>,
    repo: Repository,
}

impl IndexedCorpus {
    fn build<'a>(
        community: &Community,
        paths: &[String],
        objects: impl IntoIterator<Item = Vec<(&'a str, &'a str)>>,
    ) -> IndexedCorpus {
        let form = FormModel::derive(community, FormKind::Create);
        let mut out = IndexedCorpus::default();
        for values in objects {
            let doc = form.fill(community.object_root_name(), &values).expect("valid");
            out.fields.push(Repository::extract_fields(&doc, paths));
            out.ids.push(out.repo.insert_doc(&community.id, doc, paths));
        }
        out
    }

    /// The GoF corpus indexed on `paths`.
    fn patterns(community: &Community, paths: &[String]) -> IndexedCorpus {
        IndexedCorpus::build(community, paths, GOF_PATTERNS.iter().map(pattern_values))
    }

    /// Ids of the objects an indexed keyword query for `term` returns.
    fn search(&self, term: &str) -> Vec<ResourceId> {
        self.repo.search(None, &Query::any_keyword(term)).iter().map(|o| o.id.clone()).collect()
    }
}

/// The first token of a pattern's name as a keyword on `name` — the
/// flooding ablations' query.
fn name_query(p: &PatternRecord) -> Query {
    let first_token = tokenize(p.name).into_iter().next().expect("name token");
    Query::keyword("name", &first_token)
}

/// [`name_query`] narrowed by the pattern's category — the servent
/// workloads' query.
fn name_in_category_query(p: &PatternRecord) -> Query {
    Query::and([name_query(p), Query::eq("category", p.category)])
}

// ---------------------------------------------------------------------
// E1 — Fig. 1: the generative shared-object pipeline
// ---------------------------------------------------------------------

/// E1: runs the full Fig. 1 pipeline (schema → create form → instance →
/// validate → index → view) over the GoF corpus and reports what each
/// stage produced. What a stage costs is the benchmark's per-layer
/// anatomy (`author_publish`, `community_ui`).
pub fn e1_pipeline() -> Table {
    let mut t = Table::new(
        "E1 (Fig. 1): generative pipeline over the GoF corpus (23 objects)",
        &["stage", "output"],
    );
    let community = pattern_community();
    t.row(["schema parse + community build", "1 community"]);

    let form = FormModel::derive(&community, FormKind::Create);
    t.row(["create-form derivation".to_string(), format!("{} fields", form.fields.len())]);

    let corpus = IndexedCorpus::patterns(&community, &community.indexed_paths());
    for object in corpus.repo.iter() {
        community.validate(object.document()).expect("valid");
    }
    t.row(["fill + validate".to_string(), format!("{} objects", corpus.repo.len())]);

    let stats = corpus.repo.index_stats();
    t.row(["metadata indexing".to_string(), format!("{} token postings", stats.token_postings)]);

    let html_bytes: usize = corpus
        .repo
        .iter()
        .map(|object| stylesheets::render_view(object.document(), None).expect("renders").len())
        .sum();
    t.row(["XSLT view rendering".to_string(), format!("{html_bytes} HTML bytes")]);

    let queries = ["observer", "factory", "interface", "algorithm", "state"];
    let hits: usize = queries.iter().map(|q| corpus.search(q).len()).sum();
    t.row([
        "indexed keyword queries".to_string(),
        format!("{hits} hits / {} queries", queries.len()),
    ]);
    t
}

// ---------------------------------------------------------------------
// E2 — Fig. 2: default stylesheets work on any community schema
// ---------------------------------------------------------------------

/// E2: generates schemas of increasing width, derives the create form
/// and renders it for each, reporting output size vs schema size. All
/// sizes must succeed — that is the Fig. 2 "operates on any community
/// schema" claim.
pub fn e2_generation(sizes: &[usize]) -> Table {
    let mut t = Table::new(
        "E2 (Fig. 2): interface generation vs schema size",
        &["fields", "xsd bytes", "create-form HTML bytes"],
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
        let community = Community::new("gen", "generated", "k", "c", "", &xsd).expect("valid");
        let form = FormModel::derive(&community, FormKind::Create);
        assert_eq!(form.fields.len(), n, "every field surfaces on the form");
        let html = stylesheets::render_form(&form.to_document(), None).expect("default renders");
        t.row([n.to_string(), xsd.len().to_string(), html.len().to_string()]);
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
            let keyword_of = |c: usize| format!("domain{c:03}");
            for c in 0..n_comms {
                let keyword = keyword_of(c);
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
            }

            let zipf = Zipf::new(n_comms, 1.0);
            world.net.reset_stats();
            let tally: Tally = (0..n_queries)
                .map(|q| {
                    let query = Query::any_keyword(&keyword_of(zipf.sample(&mut rng)));
                    world.servents[(q * 7 + 3) % peers]
                        .discover_communities(&mut *world.net, &query)
                        .expect("root member")
                })
                .collect();
            t.row([
                kind.to_string(),
                peers.to_string(),
                n_comms.to_string(),
                n_queries.to_string(),
                fnum(tally.recall()),
                fnum(tally.msgs.mean()),
                fnum(tally.latency_ms.mean()),
                fnum(tally.latency_ms.percentile(95.0)),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------------
// E4 — §II: metadata search vs filename matching
// ---------------------------------------------------------------------

/// Derives query terms from a corpus: frequent metadata tokens of at
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
    let community = pattern_community();
    let corpus = IndexedCorpus::patterns(&community, &community.indexed_paths());
    let filenames: Vec<String> = GOF_PATTERNS.iter().map(pattern_filename).collect();
    push_quality_rows(&mut t, "patterns", &corpus, &filenames);

    // corpus 2: MP3s (filenames carry artist + title — richer baseline)
    let community = mp3_community();
    let songs = corpus::songs(100);
    let years: Vec<String> = songs.iter().map(|s| s.year.to_string()).collect();
    let values = songs.iter().zip(&years).map(|(s, year)| {
        vec![
            ("title", s.title.as_str()),
            ("artist", s.artist.as_str()),
            ("album", s.album.as_str()),
            ("genre", s.genre.as_str()),
            ("year", year.as_str()),
            ("audio", "up2p:attachment:x"),
        ]
    });
    let corpus = IndexedCorpus::build(&community, &community.indexed_paths(), values);
    let filenames: Vec<String> = songs.iter().map(song_filename).collect();
    push_quality_rows(&mut t, "mp3", &corpus, &filenames);
    t
}

/// One E4 row per method: mean precision/recall/F1 over the corpus's 20
/// query terms.
fn push_quality_rows(
    t: &mut Table,
    corpus_name: &str,
    corpus: &IndexedCorpus,
    filenames: &[String],
) {
    let terms = query_terms(&corpus.fields, 20);
    let ids_where = |keep: &dyn Fn(usize) -> bool| -> Vec<ResourceId> {
        (0..corpus.ids.len()).filter(|&i| keep(i)).map(|i| corpus.ids[i].clone()).collect()
    };
    let mut push_row = |method: &str, search: &dyn Fn(&str) -> Vec<ResourceId>| {
        let (mut precision, mut recall, mut f1) = (Series::new(), Series::new(), Series::new());
        for term in &terms {
            // ground truth: metadata contains the term as substring
            let relevant = ids_where(&|i| {
                corpus.fields[i].iter().any(|(_, v)| v.to_lowercase().contains(term.as_str()))
            });
            let q = retrieval_quality(&search(term), &relevant);
            precision.push(q.precision);
            recall.push(q.recall);
            f1.push(q.f1);
        }
        t.row([
            corpus_name.to_string(),
            method.to_string(),
            terms.len().to_string(),
            fnum(precision.mean()),
            fnum(recall.mean()),
            fnum(f1.mean()),
        ]);
    };
    // metadata search: indexed keyword query
    push_row("metadata (U-P2P)", &|term| corpus.search(term));
    // filename search: substring over the filename
    push_row("filename (baseline)", &|term| ids_where(&|i| filenames[i].contains(term)));
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
            let mut fetched = 0usize;
            let tally: Tally = (0..trials)
                .map(|trial| {
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
                    let query = name_in_category_query(target);
                    let out = world.search_from(origin, &community, &query);
                    if let Some(hit) = out.hits.first() {
                        let servent = &mut world.servents[origin];
                        if servent.download(&mut *world.net, &mut world.plane, hit).is_ok() {
                            fetched += 1;
                        }
                    }
                    out
                })
                .collect();
            churn::revive_all(&mut *world.net);
            t.row([
                fnum(availability),
                replicas.to_string(),
                trials.to_string(),
                fnum(tally.recall()),
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
        let tally: Tally = (0..n_queries)
            .map(|q| {
                let target = &GOF_PATTERNS[zipf.sample(&mut rng)];
                world.search_from((q * 11 + 5) % peers, &community, &name_in_category_query(target))
            })
            .collect();
        t.row([
            kind.to_string(),
            peers.to_string(),
            fnum(tally.recall()),
            fnum(tally.msgs.mean()),
            fnum(tally.latency_ms.mean()),
            fnum(tally.latency_ms.percentile(95.0)),
        ]);
    }
    t
}

/// The flooding world of E6b–d: the GoF corpus at `replicas` providers
/// per pattern, drawn from `rng`, on a 20 ms-per-link Gnutella over
/// `topo`.
fn flood_world(
    topo: Topology,
    ttl: u8,
    dedup: bool,
    replicas: usize,
    rng: StdRng,
) -> (World, Community) {
    let peers = topo.len();
    let config = FloodingConfig { ttl, dedup, ..FloodingConfig::default() };
    let net = FloodingNetwork::new(topo, Box::new(ConstantLatency(20_000)), config);
    pattern_world_over(Box::new(net), peers, replicas, rng)
}

/// The measured stream of E6b–d: the corpus's name queries in rotation,
/// query `q` issued from peer `origin(q)`.
fn rotate_name_queries(
    world: &mut World,
    community: &Community,
    n_queries: usize,
    origin: impl Fn(usize) -> usize,
) -> Tally {
    (0..n_queries)
        .map(|q| {
            let target = &GOF_PATTERNS[q % GOF_PATTERNS.len()];
            world.search_from(origin(q), community, &name_query(target))
        })
        .collect()
}

/// E6b: TTL sweep on the flooding substrate — recall vs message cost
/// (the knee motivates Gnutella's default TTL 7).
pub fn e6_ttl_sweep(scale: Scale, seed: u64) -> Table {
    let mut t = Table::new(
        "E6b: flooding TTL sweep (small-world overlay)",
        &["ttl", "recall", "msgs/query", "mean ms"],
    );
    let peers = scale.peers(256);
    let n_queries = scale.queries(100);
    for ttl in 1..=7u8 {
        let topo = Topology::small_world(peers, 2, 0.2, seed);
        let (mut world, community) = flood_world(topo, ttl, true, 2, rng_for(seed, "e6b"));
        let tally =
            rotate_name_queries(&mut world, &community, n_queries, |q| (q * 17 + 3) % peers);
        t.row([
            ttl.to_string(),
            fnum(tally.recall()),
            fnum(tally.msgs.mean()),
            fnum(tally.latency_ms.mean()),
        ]);
    }
    t
}

/// E6c: duplicate-suppression ablation on a cyclic overlay.
pub fn e6_dedup_ablation(scale: Scale, seed: u64) -> Table {
    let mut t = Table::new(
        "E6c: duplicate suppression ablation (flooding)",
        &["dedup", "ttl", "msgs/query", "recall"],
    );
    let peers = scale.peers(64);
    let n_queries = scale.queries(50);
    for dedup in [true, false] {
        let ttl = 5u8;
        let topo = Topology::small_world(peers, 3, 0.3, seed);
        let (mut world, community) = flood_world(topo, ttl, dedup, 1, rng_for(seed, "e6c"));
        let tally =
            rotate_name_queries(&mut world, &community, n_queries, |q| (q * 17 + 3) % peers);
        t.row([dedup.to_string(), ttl.to_string(), fnum(tally.msgs.mean()), fnum(tally.recall())]);
    }
    t
}

/// E6d: overlay-topology ablation for flooding — ring lattice vs
/// small world vs scale-free (measured Gnutella overlays were
/// heavy-tailed; topology changes the cost/recall point at fixed TTL).
pub fn e6_topologies(scale: Scale, seed: u64) -> Table {
    let mut t = Table::new(
        "E6d: flooding overlay-topology ablation (TTL 5)",
        &["topology", "edges", "recall", "msgs/query", "mean ms"],
    );
    let peers = scale.peers(256);
    let n_queries = scale.queries(100);
    for (name, topo) in [
        ("ring lattice (k=2)", Topology::ring_lattice(peers, 2)),
        ("small world (k=2, beta=0.2)", Topology::small_world(peers, 2, 0.2, seed)),
        ("scale-free (m=2)", Topology::scale_free(peers, 2, seed)),
    ] {
        let edges = topo.edge_count();
        let (mut world, community) = flood_world(topo, 5, true, 2, rng_for(seed, "e6d"));
        let tally =
            rotate_name_queries(&mut world, &community, n_queries, |q| (q * 19 + 7) % peers);
        t.row([
            name.to_string(),
            edges.to_string(),
            fnum(tally.recall()),
            fnum(tally.msgs.mean()),
            fnum(tally.latency_ms.mean()),
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
        &["profile", "fields", "token postings", "approx bytes", "recall"],
    );
    let community = pattern_community();
    let all_paths: Vec<String> = up2p_schema::leaf_fields(&community.schema)
        .into_iter()
        .filter(|f| f.base.is_textual() || !f.enumeration.is_empty())
        .map(|f| f.path)
        .collect();
    let profiles: Vec<(&str, Vec<String>)> = vec![
        ("full metadata", all_paths),
        ("searchable (default)", community.indexed_paths()),
        (
            "name + intent",
            vec!["pattern/name".to_string(), "pattern/intent".to_string()],
        ),
        ("name only (filename-equivalent)", vec!["pattern/name".to_string()]),
    ];
    let corpora: Vec<IndexedCorpus> =
        profiles.iter().map(|(_, paths)| IndexedCorpus::patterns(&community, paths)).collect();

    // terms and ground truth come from the full profile
    let terms = query_terms(&corpora[0].fields, 20);
    let results_of =
        |corpus: &IndexedCorpus| terms.iter().map(|term| corpus.search(term)).collect::<Vec<_>>();
    let full_results = results_of(&corpora[0]);

    for ((name, paths), corpus) in profiles.iter().zip(&corpora) {
        let stats = corpus.repo.index_stats();
        let mut recall = Series::new();
        for (got, want) in results_of(corpus).iter().zip(&full_results) {
            recall.push(retrieval_quality(got, want).recall);
        }
        t.row([
            name.to_string(),
            paths.len().to_string(),
            stats.token_postings.to_string(),
            stats.approx_bytes.to_string(),
            fnum(recall.mean()),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E11 — discrete-event engine at 10k/100k peers
// ---------------------------------------------------------------------

/// The E11 load at one grid size: the catalogue every case publishes,
/// the query timeline, and how many of those queries any published
/// record can answer.
struct DesLoad {
    peers: usize,
    records: Vec<Vec<(String, String)>>,
    queries: Vec<Query>,
    answerable: usize,
}

impl DesLoad {
    fn new(peers: usize, seed: u64) -> DesLoad {
        let records = corpus::synthetic_track_fields((peers / 10).max(50), seed);
        let queries =
            corpus::synthetic_track_queries(if peers >= 50_000 { 200 } else { 100 }, seed);
        // the benchmark oracle's definition: some published record
        // satisfies the query, liveness ignored — so a query nothing
        // can answer is not counted as a failure of the substrate
        let answerable =
            queries.iter().filter(|q| records.iter().any(|f| q.matches_fields(f))).count();
        DesLoad { peers, records, queries, answerable }
    }
}

/// One E11 row: build a [`up2p_net::DesNetwork`], publish the
/// catalogue, schedule the query timeline (plus an optional churn
/// storm), drain the queue, and report cost/answers/footprint. How long
/// the drain took goes to stderr — the only 100k-peer timing there is
/// until the benchmark has a `des_scale` workload — and into no table.
fn e11_case(
    name: &str,
    kind: ProtocolKind,
    load: &DesLoad,
    seed: u64,
    config: &up2p_net::NetConfig,
    churn_storm: bool,
    t: &mut Table,
) {
    use up2p_net::{DesNetwork, PeerNetwork, ResourceRecord};
    let peers = load.peers;
    let mut net = DesNetwork::build(kind, peers, seed, config);
    for (i, fields) in load.records.iter().enumerate() {
        net.publish(
            PeerId((i % peers) as u32),
            ResourceRecord::new(format!("track{i:06}"), "tracks", fields.clone()),
        );
    }
    if churn_storm {
        let horizon = load.queries.len() as u64 * 10_000;
        net.schedule_churn(&churn::exponential_schedule(peers, horizon, 400_000, 200_000, seed));
    }
    for (i, q) in load.queries.iter().enumerate() {
        let origin = PeerId(((i * 11 + 5) % peers) as u32);
        net.schedule_query(i as u64 * 10_000, origin, "tracks", q.clone());
    }
    let started = std::time::Instant::now();
    let outcomes = net.run();
    let secs = started.elapsed().as_secs_f64().max(1e-9);
    eprintln!(
        "e11 {name} {peers}: {} events in {} ms wall ({} events/s)",
        net.events_processed(),
        fnum(secs * 1e3),
        fnum(net.events_processed() as f64 / secs),
    );

    let tally: Tally = outcomes.into_iter().collect();
    t.row([
        format!("{name} {peers}"),
        peers.to_string(),
        fnum(tally.msgs.mean()),
        format!("{}/{}", tally.answered, load.answerable),
        fnum(tally.hits.mean()),
        fnum(net.approx_bytes() as f64 / peers as f64),
    ]);
}

/// E11: the discrete-event engine at 10k/100k peers. All three
/// protocols run the full peer grid on the virtual-time engine; the
/// smaller grid size additionally gets a guided-search row (compact
/// digests — full-size digests at 10k+ peers would dwarf the record
/// state) and a FastTrack churn-storm row where liveness flaps land
/// between message deliveries.
pub fn e11_des_scale(scale: Scale, seed: u64) -> Table {
    use up2p_net::{DigestConfig, NetConfig};
    let grid: [usize; 2] = match scale {
        Scale::Full => [10_000, 100_000],
        Scale::Smoke => [500, 2_000],
    };
    let mut t = Table::new(
        format!("E11: discrete-event engine at scale ({} / {} peers)", grid[0], grid[1]),
        &["substrate", "peers", "msgs/query", "answered/answerable", "hits/query", "bytes/peer"],
    );
    let loads = grid.map(|peers| DesLoad::new(peers, seed));
    let plain = NetConfig::new();
    for load in &loads {
        for (name, kind) in [
            ("napster", ProtocolKind::Napster),
            ("gnutella", ProtocolKind::Gnutella),
            ("fasttrack", ProtocolKind::FastTrack),
        ] {
            e11_case(name, kind, load, seed, &plain, false, &mut t);
        }
    }
    let small = &loads[0];
    e11_case(
        "gnutella guided",
        ProtocolKind::Gnutella,
        small,
        seed,
        &NetConfig::new().digests(DigestConfig { log2_bits: 10, ..DigestConfig::guided() }),
        false,
        &mut t,
    );
    e11_case("fasttrack churn", ProtocolKind::FastTrack, small, seed, &plain, true, &mut t);
    t
}

/// Runs the scenario `run_experiments --scenario` calls `name` (`e6` is
/// four tables); `None` for any other name.
pub fn run_scenario(name: &str, scale: Scale, seed: u64) -> Option<Vec<Table>> {
    Some(match name {
        "e1" => vec![e1_pipeline()],
        "e2" => vec![e2_generation(&[4, 8, 16, 32, 64])],
        "e3" => vec![e3_discovery(scale, seed)],
        "e4" => vec![e4_metadata()],
        "e5" => vec![e5_replication(scale, seed)],
        "e6" => vec![
            e6_protocols(scale, seed),
            e6_ttl_sweep(scale, seed),
            e6_dedup_ablation(scale, seed),
            e6_topologies(scale, seed),
        ],
        "e7" => vec![e7_indexing()],
        "e11" => vec![e11_des_scale(scale, seed)],
        _ => return None,
    })
}

/// Runs every scenario at the given scale, returning all tables in
/// DESIGN.md §4 order.
pub fn run_all(scale: Scale, seed: u64) -> Vec<Table> {
    ["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e11"]
        .into_iter()
        .filter_map(|name| run_scenario(name, scale, seed))
        .flatten()
        .collect()
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
        let b0: usize = t.rows[0][2].parse().unwrap();
        let b2: usize = t.rows[2][2].parse().unwrap();
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
    fn e11_smoke_answers_what_is_answerable_on_every_substrate() {
        let t = e11_des_scale(Scale::Smoke, 7);
        // 3 protocols × 2 grid sizes + guided + churn rows
        assert_eq!(t.rows.len(), 8);
        for row in &t.rows {
            let (answered, answerable) = row[3].split_once('/').expect("answered/answerable");
            let answered: usize = answered.parse().unwrap();
            let answerable: usize = answerable.parse().unwrap();
            if row[0].starts_with("napster") {
                // a complete central index answers every answerable query
                assert_eq!(answered, answerable, "{row:?}");
            } else {
                assert!(0 < answered && answered <= answerable, "{row:?}");
            }
            assert!(row[2].parse::<f64>().unwrap() > 0.0, "no events ran: {row:?}");
            assert!(row[4].parse::<f64>().unwrap() > 0.0, "no hits: {row:?}");
        }
        // guided search pays digest state but cuts per-query messages
        let msgs = |name: &str| -> f64 {
            t.rows.iter().find(|r| r[0] == name).expect(name)[2].parse().unwrap()
        };
        let (flood, guided) = (msgs("gnutella 500"), msgs("gnutella guided 500"));
        assert!(guided < flood, "guided {guided:.1} should undercut flood {flood:.1}");
    }

    #[test]
    fn e11_is_deterministic_modulo_wall_clock() {
        // the drain's wall-clock goes to stderr: every cell is a function
        // of the seed alone
        assert_eq!(e11_des_scale(Scale::Smoke, 11), e11_des_scale(Scale::Smoke, 11));
    }

    #[test]
    fn e7_smaller_profiles_lose_recall_but_shrink() {
        let t = e7_indexing();
        let postings: Vec<usize> = t.rows.iter().map(|r| r[2].parse().unwrap()).collect();
        let recalls: Vec<f64> = t.rows.iter().map(|r| r[4].parse().unwrap()).collect();
        assert!(postings.windows(2).all(|w| w[1] <= w[0]), "{postings:?}");
        assert_eq!(recalls[0], 1.0, "full profile is the ground truth");
        assert!(recalls[3] < recalls[0], "name-only loses recall: {recalls:?}");
    }
}
