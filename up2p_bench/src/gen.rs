//! Seeded input generators: PRNG, Zipf sampler, the object and UI
//! communities, the track corpus, query mixes and op schedules.
//!
//! Everything the program under test sees is produced here from
//! `--seed`; the program never receives the seed itself. Community
//! *shapes* (field counts, stylesheet structure) are fixed so that op
//! cost does not drift between seeds; *content* (words, keys, order of
//! ops, liveness, topology seed) is drawn from the seed.

use up2p_core::Community;
use up2p_net::churn::ChurnEvent;
use up2p_net::PeerId;
use up2p_schema::{FieldKind, SchemaBuilder};
use up2p_store::Query;

// ---------------------------------------------------------------------
// PRNG and Zipf
// ---------------------------------------------------------------------

/// splitmix64 — the harness's own generator, so a change to the repo's
/// `rand` shim or `up2p_sim::workload` can never change benchmark inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for one named phase of one seed (FNV-1a of the label
    /// folded into the seed), so phases never share draws.
    pub fn for_label(seed: u64, label: &str) -> Rng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Rng(seed ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for
    /// every `n` used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "zipf over empty domain");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for v in &mut cdf {
            *v /= acc;
        }
        Zipf { cdf }
    }

    /// The rank at quantile `u` of the distribution.
    pub fn at(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        self.at(rng.unit())
    }
}

/// `n` uniforms, exactly one from each stratum `[k/n, (k+1)/n)`, in
/// random order. Op mixes are drawn through these, so a block of `n` ops
/// holds each kind of op — and each popularity rank of a Zipf draw — in
/// its expected share. With independent draws the few very expensive
/// ops (a search for the most common word returns a third of the corpus)
/// would make a block's cost a matter of luck.
fn stratified(rng: &mut Rng, n: usize) -> Vec<f64> {
    let mut v: Vec<f64> = (0..n).map(|k| (k as f64 + rng.unit()) / n as f64).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.below(i + 1));
    }
    v
}

const VOCAB: usize = 5000;
const ARTISTS: usize = 1000;
const FIRST_YEAR: u16 = 1950;
const YEARS: usize = 70;
pub const GENRES: [&str; 8] = [
    "rock",
    "jazz",
    "classical",
    "electronic",
    "folk",
    "blues",
    "soul",
    "ambient",
];

fn word(rank: usize) -> String {
    format!("word{rank:04}")
}

fn words(rng: &mut Rng, zipf: &Zipf, n: usize) -> String {
    (0..n)
        .map(|_| word(zipf.sample(rng)))
        .collect::<Vec<_>>()
        .join(" ")
}

// ---------------------------------------------------------------------
// author_publish: four object communities and the publish op list
// ---------------------------------------------------------------------

fn index_xsl(root: &str, fields: &[&str]) -> String {
    let body: String = fields
        .iter()
        .map(|f| format!(r#"<field path="{root}/{f}"><xsl:value-of select="{f}"/></field>"#))
        .collect();
    format!(
        r#"<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
  <xsl:template match="/{root}"><indexed>{body}</indexed></xsl:template>
</xsl:stylesheet>"#
    )
}

fn track_schema(root: &str) -> SchemaBuilder {
    let mut b = SchemaBuilder::new(root);
    b.field(FieldKind::text("title").searchable())
        .field(FieldKind::text("artist").searchable())
        .field(FieldKind::enumeration("genre", GENRES).searchable())
        .field(FieldKind::integer("year").optional());
    b
}

/// The track community every search workload queries (native
/// extraction; also the first of the four object communities).
pub fn track_community() -> Community {
    Community::from_builder(
        "tracks",
        "Music tracks with title, artist and genre metadata",
        "music tracks audio",
        "music",
        "Napster",
        &track_schema("track"),
    )
    .expect("static schema is valid")
}

/// tracks, GoF-style patterns (native extraction); molecules, tracks-x
/// (custom `index_style` XSLT) — so every second publish crosses `xslt`.
pub fn object_communities() -> Vec<Community> {
    let mut patterns = SchemaBuilder::new("pattern");
    patterns
        .field(FieldKind::text("name").searchable())
        .field(
            FieldKind::enumeration("category", ["creational", "structural", "behavioral"])
                .searchable(),
        )
        .field(FieldKind::text("intent").searchable())
        .field(FieldKind::text("applicability").searchable())
        .field(FieldKind::text("participants"));
    let mut molecules = SchemaBuilder::new("molecule");
    molecules
        .field(FieldKind::text("name").searchable())
        .field(FieldKind::text("formula").searchable())
        .field(FieldKind::decimal("weight"))
        .field(FieldKind::enumeration("phase", ["solid", "liquid", "gas"]).searchable());
    let community = |name: &str, desc: &str, b: &SchemaBuilder| {
        Community::from_builder(name, desc, "bench objects", "bench", "Napster", b)
            .expect("static schema is valid")
    };
    vec![
        track_community(),
        community(
            "patterns",
            "Design patterns in the GoF catalogue format",
            &patterns,
        ),
        community(
            "molecules",
            "CML-flavoured molecule descriptions",
            &molecules,
        )
        .with_index_style(index_xsl("molecule", &["name", "formula", "phase"])),
        community(
            "tracks-x",
            "Tracks indexed through a custom filter",
            &track_schema("trackx"),
        )
        .with_index_style(index_xsl("trackx", &["title", "artist", "genre"])),
    ]
}

/// One `author_publish` op: form values for one community, plus the
/// token that makes the document unique (and findable afterwards).
#[derive(Debug, Clone, PartialEq)]
pub struct PublishOp {
    /// Index into [`object_communities`].
    pub community: usize,
    pub values: Vec<(&'static str, String)>,
    /// Unique word in the first searchable field.
    pub probe: String,
}

/// `n` publish ops for `block`, round-robin over the four communities.
pub fn publish_ops(seed: u64, block: u32, n: usize) -> Vec<PublishOp> {
    let mut rng = Rng::for_label(seed, &format!("publish-{block}"));
    let vocab = Zipf::new(VOCAB, 1.05);
    let artists = Zipf::new(ARTISTS, 1.05);
    (0..n)
        .map(|i| {
            let probe = format!("u{block}x{i:06}");
            let community = i % 4;
            let track = |rng: &mut Rng| {
                vec![
                    ("title", format!("{} {probe}", words(rng, &vocab, 3))),
                    ("artist", format!("artist{:03}", artists.sample(rng))),
                    ("genre", GENRES[rng.below(GENRES.len())].to_string()),
                    ("year", (FIRST_YEAR as usize + rng.below(YEARS)).to_string()),
                ]
            };
            let values = match community {
                0 | 3 => track(&mut rng),
                1 => vec![
                    ("name", format!("{} {probe}", words(&mut rng, &vocab, 2))),
                    (
                        "category",
                        ["creational", "structural", "behavioral"][rng.below(3)].to_string(),
                    ),
                    ("intent", words(&mut rng, &vocab, 8)),
                    ("applicability", words(&mut rng, &vocab, 10)),
                    ("participants", words(&mut rng, &vocab, 5)),
                ],
                _ => vec![
                    ("name", format!("{} {probe}", words(&mut rng, &vocab, 2))),
                    (
                        "formula",
                        format!(
                            "C{}H{}O{}",
                            1 + rng.below(20),
                            1 + rng.below(40),
                            rng.below(8)
                        ),
                    ),
                    (
                        "weight",
                        format!("{}.{:03}", 10 + rng.below(400), rng.below(1000)),
                    ),
                    (
                        "phase",
                        ["solid", "liquid", "gas"][rng.below(3)].to_string(),
                    ),
                ],
            };
            PublishOp {
                community,
                values,
                probe,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// community_ui: 64 communities with their own schema and stylesheets
// ---------------------------------------------------------------------

pub const UI_COMMUNITIES: usize = 64;
const UI_CATEGORIES: usize = 8;

fn ui_form_xsl(tag: &str, kind: &str) -> String {
    format!(
        r#"<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
  <xsl:template match="/form">
    <form class="{tag}-{kind}" action="up2p:{{@kind}}">
      <h2><xsl:value-of select="@communityname"/></h2>
      <table><xsl:apply-templates select="field"/></table>
      <input type="submit" value="{{@kind}}"/>
    </form>
  </xsl:template>
  <xsl:template match="field">
    <tr class="{tag}-row">
      <td><label for="{{@name}}"><xsl:value-of select="@name"/>
        <xsl:if test="@required = 'true'"><b>*</b></xsl:if></label></td>
      <td><xsl:choose>
        <xsl:when test="@input = 'select'">
          <select name="{{@path}}"><xsl:for-each select="option">
            <option value="{{.}}"><xsl:value-of select="."/></option>
          </xsl:for-each></select>
        </xsl:when>
        <xsl:when test="@input = 'checkbox'"><input type="checkbox" name="{{@path}}"/></xsl:when>
        <xsl:otherwise><input type="text" name="{{@path}}"/></xsl:otherwise>
      </xsl:choose></td>
    </tr>
  </xsl:template>
</xsl:stylesheet>"#
    )
}

fn ui_view_xsl(tag: &str, root: &str) -> String {
    format!(
        r#"<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
  <xsl:template match="/{root}">
    <div class="{tag}-view">
      <h1><xsl:value-of select="*[1]"/></h1>
      <table><xsl:for-each select="*">
        <tr><th><xsl:value-of select="name()"/></th><td><xsl:value-of select="."/></td></tr>
      </xsl:for-each></table>
      <p class="count"><xsl:value-of select="count(*)"/> fields</p>
    </div>
  </xsl:template>
</xsl:stylesheet>"#
    )
}

/// Extra fields of UI community `i` beyond the fixed `title`/`kind`
/// pair: `2 + i % 6` of them, cycling through the input kinds.
fn ui_extra_fields(i: usize) -> Vec<FieldKind> {
    (0..2 + i % 6)
        .map(|j| {
            let name = format!("f{j}");
            match (i + j) % 5 {
                0 => FieldKind::text(name).searchable(),
                1 => FieldKind::integer(name),
                2 => FieldKind::enumeration(name, ["low", "mid", "high"]).searchable(),
                3 => FieldKind::boolean(name),
                _ => FieldKind::text(name),
            }
        })
        .collect()
}

/// The 64 discoverable communities. Community `i` answers to the unique
/// keyword `topicNN` and to its category keyword `catN` (8 per category).
pub fn ui_communities() -> Vec<Community> {
    (0..UI_COMMUNITIES)
        .map(|i| {
            let tag = format!("c{i:02}");
            let root = format!("{tag}item");
            let mut b = SchemaBuilder::new(root.as_str());
            b.field(FieldKind::text("title").searchable())
                .field(FieldKind::enumeration("kind", ["a", "b", "c", "d"]).searchable());
            for f in ui_extra_fields(i) {
                b.field(f);
            }
            Community::from_builder(
                &format!("community {tag}"),
                &format!("Synthetic sharing community number {i}"),
                &format!("topic{i:02} cat{} sharing", i % UI_CATEGORIES),
                &format!("cat{}", i % UI_CATEGORIES),
                "Napster",
                &b,
            )
            .expect("generated schema is valid")
            .with_display_style(ui_view_xsl(&tag, &root))
            .with_create_style(ui_form_xsl(&tag, "create"))
            .with_search_style(ui_form_xsl(&tag, "search"))
        })
        .collect()
}

/// Form values of the `k`-th local object of UI community `i`.
pub fn ui_object_values(seed: u64, i: usize, k: usize) -> Vec<(String, String)> {
    let mut rng = Rng::for_label(seed, &format!("ui-object-{i}-{k}"));
    let vocab = Zipf::new(VOCAB, 1.05);
    let mut v = vec![
        (
            "title".to_string(),
            format!("{} o{i}x{k}", words(&mut rng, &vocab, 3)),
        ),
        (
            "kind".to_string(),
            ["a", "b", "c", "d"][rng.below(4)].to_string(),
        ),
    ];
    for j in 0..2 + i % 6 {
        let value = match (i + j) % 5 {
            1 => rng.below(10_000).to_string(),
            2 => ["low", "mid", "high"][rng.below(3)].to_string(),
            3 => ["true", "false"][rng.below(2)].to_string(),
            _ => words(&mut rng, &vocab, 4),
        };
        v.push((format!("f{j}"), value));
    }
    v
}

/// One discovery session: the keyword typed into the root community's
/// search box and which of the returned hits the user picks.
#[derive(Debug, Clone, PartialEq)]
pub struct UiOp {
    pub keyword: String,
    pub pick: usize,
}

/// `n` sessions: 80 % a Zipf-popular community's own `topicNN`, 20 % a
/// category browse (`catN`, eight candidates), in exactly those shares.
pub fn ui_ops(seed: u64, block: u32, n: usize) -> Vec<UiOp> {
    let mut rng = Rng::for_label(seed, &format!("ui-{block}"));
    let popularity = Zipf::new(UI_COMMUNITIES, 0.8);
    let (kinds, ranks) = (stratified(&mut rng, n), stratified(&mut rng, n));
    kinds
        .into_iter()
        .zip(ranks)
        .map(|(kind, rank)| {
            let keyword = if kind < 0.2 {
                format!("cat{}", (rank * UI_CATEGORIES as f64) as usize)
            } else {
                format!("topic{:02}", popularity.at(rank))
            };
            UiOp {
                keyword,
                pick: rng.below(1 << 16),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// search_*: track corpus, liveness, query mix, op schedule
// ---------------------------------------------------------------------

/// One synthetic track record, kept as ranks so the oracle knows by
/// construction which records carry which word.
#[derive(Debug, Clone, PartialEq)]
pub struct Track {
    pub words: [u16; 3],
    pub artist: u16,
    pub genre: u8,
    pub year: u16,
}

impl Track {
    fn draw(rng: &mut Rng, vocab: &Zipf, artists: &Zipf) -> Track {
        Track {
            words: [
                vocab.sample(rng) as u16,
                vocab.sample(rng) as u16,
                vocab.sample(rng) as u16,
            ],
            artist: artists.sample(rng) as u16,
            genre: rng.below(GENRES.len()) as u8,
            year: FIRST_YEAR + rng.below(YEARS) as u16,
        }
    }

    /// The `(path, value)` metadata a publish uploads.
    pub fn fields(&self) -> Vec<(String, String)> {
        let [a, b, c] = self.words;
        vec![
            (
                "track/title".to_string(),
                format!("{} {} {}", word(a.into()), word(b.into()), word(c.into())),
            ),
            (
                "track/artist".to_string(),
                format!("artist{:03}", self.artist),
            ),
            (
                "track/genre".to_string(),
                GENRES[self.genre as usize].to_string(),
            ),
            ("track/year".to_string(), self.year.to_string()),
        ]
    }
}

pub fn track_key(record: u32) -> String {
    format!("track{record:06}")
}

/// `n` Zipf-skewed tracks; record `i` is shared by peer `i % peers`.
pub fn track_corpus(seed: u64, n: usize) -> Vec<Track> {
    let mut rng = Rng::for_label(seed, "corpus");
    let vocab = Zipf::new(VOCAB, 1.05);
    let artists = Zipf::new(ARTISTS, 1.05);
    (0..n)
        .map(|_| Track::draw(&mut rng, &vocab, &artists))
        .collect()
}

/// Liveness pattern with a tenth of the peers offline: one peer in
/// every ten consecutive peer numbers, so the FastTrack supers (the
/// lowest-numbered peers) lose their tenth too.
pub fn liveness(peers: usize) -> Vec<bool> {
    let mut rng = Rng::for_label(OVERLAY_SEED, "liveness");
    let mut alive = vec![true; peers];
    for decade in alive.chunks_exact_mut(10) {
        decade[rng.below(10)] = false;
    }
    alive
}

/// Seed of the overlay: topology, super-peer assignment, link
/// coordinates, and which peers are offline. The overlay is part of a
/// workload's definition, like the community shapes: how far a flood
/// reaches in one random graph or another (or in the same graph with
/// another tenth of its peers removed) differs by a tenth, which would
/// drown the message counts the benchmark is there to hold still.
/// `--seed` draws what runs over it.
pub const OVERLAY_SEED: u64 = 0x5eed_0f7e_0e71_a5ed;

/// The most common title words (and artists) are not searched for: query
/// rank `r` asks for vocabulary rank `r + SKIPPED_WORDS`. The 128 top
/// words are two thirds of all title words; a search for one of the
/// first few returns tens of thousands of hits, and a workload that
/// spends its time copying those reads the host's memory contention, not
/// the index. Past them no keyword matches more than ~250 records.
const SKIPPED_WORDS: usize = 128;

/// A search in the mix, kept structured so the oracle can find its
/// candidate records without evaluating it. Every kind is selective: no
/// query returns more than a few hundred records.
#[derive(Debug, Clone, PartialEq)]
pub enum QuerySpec {
    /// 65 %: keyword in the title.
    Title(u16),
    /// 15 %: `AND(genre = g, title keyword)`.
    GenreTitle(u8, u16),
    /// 10 %: exact match on one artist off the popular head. (A wildcard
    /// here would fall back to scanning every stored value — 7 ms, three
    /// quarters of the workload's time, all of it memory traffic; the
    /// traced run probes that scan as `store.index_wildcard` instead.)
    Artist(u16),
    /// 5 %: the genre-and-keyword conjunction typed as a CMIP filter.
    Cmip(u8, u16),
    /// 5 %: browse one year of a genre, `AND(genre = g, year = y)`.
    GenreYear(u8, u16),
}

impl QuerySpec {
    /// The search at quantiles `kind` of the mix, `word` of the title
    /// vocabulary and `aux` of the genre, year or artist-decade range.
    fn at(kind: f64, word: f64, aux: f64, vocab: &Zipf) -> QuerySpec {
        let w = (vocab.at(word) + SKIPPED_WORDS).min(VOCAB - 1) as u16;
        let g = (aux * GENRES.len() as f64) as u8;
        match kind {
            k if k < 0.65 => QuerySpec::Title(w),
            k if k < 0.80 => QuerySpec::GenreTitle(g, w),
            k if k < 0.90 => {
                let rank = SKIPPED_WORDS + (aux * (ARTISTS - SKIPPED_WORDS) as f64) as usize;
                QuerySpec::Artist(rank as u16)
            }
            k if k < 0.95 => QuerySpec::Cmip(g, w),
            _ => QuerySpec::GenreYear(g, FIRST_YEAR + (word * YEARS as f64) as u16),
        }
    }

    /// The query as the reference semantics see it.
    pub fn query(&self) -> Query {
        match *self {
            QuerySpec::Title(w) => Query::keyword("title", &word(w.into())),
            QuerySpec::GenreTitle(g, w) | QuerySpec::Cmip(g, w) => Query::and([
                Query::eq("track/genre", GENRES[g as usize]),
                Query::keyword("title", &word(w.into())),
            ]),
            QuerySpec::Artist(a) => Query::eq("track/artist", &format!("artist{a:03}")),
            QuerySpec::GenreYear(g, y) => Query::and([
                Query::eq("track/genre", GENRES[g as usize]),
                Query::eq("track/year", &y.to_string()),
            ]),
        }
    }

    /// The filter string a [`QuerySpec::Cmip`] op submits.
    pub fn cmip_filter(&self) -> Option<String> {
        match *self {
            QuerySpec::Cmip(g, w) => Some(format!(
                "(&(track/genre={})(title~={}))",
                GENRES[g as usize],
                word(w.into())
            )),
            _ => None,
        }
    }
}

/// One op of a search workload. Record ids are global: the pre-loaded
/// corpus is `0..n`, later publishes continue from `n`.
#[derive(Debug, Clone, PartialEq)]
pub enum SearchOp {
    /// A search from the servent at peer `origin`.
    Search {
        origin: u32,
        spec: QuerySpec,
    },
    Publish {
        record: u32,
        provider: u32,
        track: Track,
    },
    Unpublish {
        record: u32,
        provider: u32,
    },
}

/// Stateful op generator: it tracks which records are published so that
/// every unpublish names a live record and every publish a fresh one.
#[derive(Debug)]
pub struct SearchOpGen {
    rng: Rng,
    vocab: Zipf,
    artists: Zipf,
    /// Published records as `(record, provider)`.
    live: Vec<(u32, u32)>,
    next_record: u32,
    /// Online peers: the ones that may publish, and — in a seeded order
    /// walked round robin — the origins of the searches, so message
    /// counts average over the whole overlay instead of hanging on where
    /// one client happens to sit.
    writers: Vec<u32>,
    next_origin: usize,
    /// Writes per thousand ops, split evenly publish/unpublish.
    write_permille: usize,
}

impl SearchOpGen {
    pub fn new(seed: u64, records: usize, alive: &[bool], write_permille: usize) -> SearchOpGen {
        let peers = alive.len();
        SearchOpGen {
            rng: Rng::for_label(seed, "search-ops"),
            vocab: Zipf::new(VOCAB, 1.05),
            artists: Zipf::new(ARTISTS, 1.05),
            live: (0..records as u32).map(|r| (r, r % peers as u32)).collect(),
            next_record: records as u32,
            writers: {
                let mut online: Vec<u32> =
                    (0..peers as u32).filter(|&p| alive[p as usize]).collect();
                let mut rng = Rng::for_label(seed, "origins");
                for i in (1..online.len()).rev() {
                    online.swap(i, rng.below(i + 1));
                }
                online
            },
            next_origin: 0,
            write_permille,
        }
    }

    pub fn block(&mut self, n: usize) -> Vec<SearchOp> {
        let writes = self.write_permille as f64 / 1000.0;
        let kinds = stratified(&mut self.rng, n);
        let words = stratified(&mut self.rng, n);
        let auxes = stratified(&mut self.rng, n);
        kinds
            .into_iter()
            .zip(words.into_iter().zip(auxes))
            .map(|(kind, (word, aux))| {
                if kind < writes / 2.0 {
                    let record = self.next_record;
                    self.next_record += 1;
                    let provider = self.writers[self.rng.below(self.writers.len())];
                    self.live.push((record, provider));
                    let track = Track::draw(&mut self.rng, &self.vocab, &self.artists);
                    SearchOp::Publish {
                        record,
                        provider,
                        track,
                    }
                } else if kind < writes && !self.live.is_empty() {
                    let at = self.rng.below(self.live.len());
                    let (record, provider) = self.live.swap_remove(at);
                    SearchOp::Unpublish { record, provider }
                } else {
                    let kind = ((kind - writes) / (1.0 - writes)).clamp(0.0, 1.0 - f64::EPSILON);
                    let origin = self.writers[self.next_origin % self.writers.len()];
                    self.next_origin += 1;
                    SearchOp::Search {
                        origin,
                        spec: QuerySpec::at(kind, word, aux, &self.vocab),
                    }
                }
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// des_guided: timeline
// ---------------------------------------------------------------------

/// Virtual microseconds between two scheduled queries.
pub const DES_QUERY_GAP_US: u64 = 1_000;

/// One scheduled DES query.
#[derive(Debug, Clone, PartialEq)]
pub struct DesQuery {
    pub at: u64,
    pub origin: u32,
    pub spec: QuerySpec,
}

/// `n` queries every [`DES_QUERY_GAP_US`] from `start`, uniform origins.
pub fn des_queries(seed: u64, block: u32, start: u64, n: usize, peers: usize) -> Vec<DesQuery> {
    let mut rng = Rng::for_label(seed, &format!("des-queries-{block}"));
    let vocab = Zipf::new(VOCAB, 1.05);
    let (kinds, words) = (stratified(&mut rng, n), stratified(&mut rng, n));
    let auxes = stratified(&mut rng, n);
    (0..n)
        .map(|i| DesQuery {
            at: start + i as u64 * DES_QUERY_GAP_US,
            origin: rng.below(peers) as u32,
            spec: QuerySpec::at(kinds[i], words[i], auxes[i], &vocab),
        })
        .collect()
}

/// Exponential on/off churn over `[start, start + horizon)`, every peer
/// online at `start`, sorted by time.
pub fn churn_schedule(
    seed: u64,
    block: u32,
    start: u64,
    horizon: u64,
    peers: usize,
    mean_session: u64,
    mean_downtime: u64,
) -> Vec<ChurnEvent> {
    let mut rng = Rng::for_label(seed, &format!("churn-{block}"));
    let mut events = Vec::new();
    for p in 0..peers as u32 {
        let (mut t, mut online) = (0u64, true);
        loop {
            let mean = if online { mean_session } else { mean_downtime };
            t += (-(1.0 - rng.unit()).ln() * mean as f64) as u64;
            if t >= horizon {
                break;
            }
            online = !online;
            events.push(ChurnEvent {
                at: start + t,
                peer: PeerId(p),
                online,
            });
        }
    }
    events.sort_by_key(|e| (e.at, e.peer));
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every generator rendered to bytes, for the determinism checks.
    fn everything(seed: u64) -> String {
        let mut ops = SearchOpGen::new(seed, 500, &liveness(50), 50);
        format!(
            "{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}",
            publish_ops(seed, 1, 40),
            ui_ops(seed, 1, 40),
            ui_object_values(seed, 5, 2),
            track_corpus(seed, 40),
            ops.block(200),
            des_queries(seed, 0, 0, 40, 50),
            churn_schedule(seed, 0, 0, 1_000_000, 50, 300_000, 100_000),
        )
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        assert_eq!(everything(42), everything(42));
    }

    #[test]
    fn another_seed_gives_other_inputs() {
        let (a, b) = (everything(42), everything(43));
        for (la, lb) in a.lines().zip(b.lines()) {
            assert_ne!(la, lb);
        }
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(100, 1.05);
        let mut rng = Rng::for_label(7, "zipf");
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[9] && counts[9] > counts[99]);
        assert!(counts[0] > 2_000);
    }

    #[test]
    fn publish_ops_are_unique_valid_objects() {
        let communities = object_communities();
        let mut servent = up2p_core::Servent::new(PeerId(0));
        for c in &communities {
            servent.join(c.clone());
        }
        let mut keys = std::collections::HashSet::new();
        for op in publish_ops(1, 0, 200) {
            let values: Vec<(&str, &str)> =
                op.values.iter().map(|(k, v)| (*k, v.as_str())).collect();
            let obj = servent
                .create_object(&communities[op.community].id, &values)
                .unwrap();
            assert!(keys.insert(obj.key), "content-hash keys must not collide");
        }
    }

    #[test]
    fn ui_communities_are_distinct_and_their_objects_validate() {
        let communities = ui_communities();
        let ids: std::collections::HashSet<&str> =
            communities.iter().map(|c| c.id.as_str()).collect();
        assert_eq!(ids.len(), UI_COMMUNITIES);
        let mut servent = up2p_core::Servent::new(PeerId(0));
        for (i, c) in communities.iter().enumerate() {
            servent.join(c.clone());
            let values = ui_object_values(3, i, 0);
            let values: Vec<(&str, &str)> = values
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            servent.create_object(&c.id, &values).unwrap();
        }
    }

    #[test]
    fn cmip_filter_parses_to_the_structured_query() {
        let spec = QuerySpec::Cmip(2, 17);
        let parsed = up2p_store::parse_cmip(&spec.cmip_filter().unwrap()).unwrap();
        assert_eq!(parsed, spec.query());
    }

    #[test]
    fn search_ops_only_unpublish_live_records() {
        let alive = vec![true; 10];
        let mut gen = SearchOpGen::new(9, 100, &alive, 200);
        let mut live: std::collections::HashSet<u32> = (0..100).collect();
        for op in gen.block(2_000) {
            match op {
                SearchOp::Publish { record, .. } => assert!(live.insert(record)),
                SearchOp::Unpublish { record, .. } => assert!(live.remove(&record)),
                SearchOp::Search { .. } => {}
            }
        }
    }
}
