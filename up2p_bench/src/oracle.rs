//! Reference answers and output checks.
//!
//! The search oracle keeps every record the generator ever published
//! and decides each op with [`Query::matches_fields`] — the linear
//! reference semantics — over the *candidate* records of the op's
//! [`QuerySpec`]. Candidates come from the generator's own knowledge of
//! which record carries which word, artist and genre, so the reference
//! never walks the full corpus per query yet never consults the index
//! under test either.

use crate::gen::{QuerySpec, Track, GENRES};
use up2p_core::Community;
use up2p_net::{SearchHit, SharedFields};
use up2p_xml::Document;

const VOCAB: usize = 5000;

#[derive(Debug)]
struct Rec {
    provider: u32,
    fields: SharedFields,
    published: bool,
}

/// What the oracle says about one search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    /// A non-empty correct answer exists.
    pub answerable: bool,
    /// The outcome held at least one correct hit.
    pub answered: bool,
    /// Hits the reference rejects.
    pub false_positives: u32,
}

/// Hits checked per op; longer hit lists are checked at a stride.
const MAX_CHECKED_HITS: usize = 256;

#[derive(Debug)]
pub struct Oracle {
    recs: Vec<Rec>,
    alive: Vec<bool>,
    by_word: Vec<Vec<u32>>,
    by_artist: Vec<Vec<u32>>,
    by_genre: Vec<Vec<u32>>,
}

impl Oracle {
    /// An oracle over `peers` peers, all online, nothing published.
    pub fn new(peers: usize) -> Oracle {
        Oracle {
            recs: Vec::new(),
            alive: vec![true; peers],
            by_word: vec![Vec::new(); VOCAB],
            by_artist: vec![Vec::new(); 1000],
            by_genre: vec![Vec::new(); GENRES.len()],
        }
    }

    /// Registers the next record id as published by `provider`; returns
    /// the shared metadata to hand to the network.
    pub fn publish(&mut self, record: u32, provider: u32, track: &Track) -> SharedFields {
        assert_eq!(record as usize, self.recs.len(), "record ids are dense");
        let fields: SharedFields = track.fields().into();
        let mut ws = track.words;
        ws.sort_unstable();
        for (i, w) in ws.iter().enumerate() {
            if i == 0 || ws[i - 1] != *w {
                self.by_word[*w as usize].push(record);
            }
        }
        self.by_artist[track.artist as usize].push(record);
        self.by_genre[track.genre as usize].push(record);
        self.recs.push(Rec {
            provider,
            fields: SharedFields::clone(&fields),
            published: true,
        });
        fields
    }

    pub fn unpublish(&mut self, record: u32) {
        self.recs[record as usize].published = false;
    }

    pub fn set_alive(&mut self, peer: u32, alive: bool) {
        self.alive[peer as usize] = alive;
    }

    pub fn is_alive(&self, peer: u32) -> bool {
        self.alive[peer as usize]
    }

    fn candidates(&self, spec: &QuerySpec) -> &[u32] {
        match *spec {
            QuerySpec::Title(w) | QuerySpec::GenreTitle(_, w) | QuerySpec::Cmip(_, w) => {
                &self.by_word[w as usize]
            }
            QuerySpec::Artist(a) => &self.by_artist[a as usize],
            QuerySpec::GenreYear(g, _) => &self.by_genre[g as usize],
        }
    }

    fn is_live(&self, rec: &Rec) -> bool {
        rec.published && self.alive[rec.provider as usize]
    }

    /// Judges one search outcome. `check_provider` is off where peers
    /// flap while the query is in flight (the DES churn timeline): a hit
    /// from a provider that has since gone offline is then still correct.
    pub fn judge(&self, spec: &QuerySpec, hits: &[SearchHit], check_provider: bool) -> Verdict {
        let query = spec.query();
        let mut v = Verdict::default();
        let stride = hits.len().div_ceil(MAX_CHECKED_HITS).max(1);
        for hit in hits.iter().step_by(stride) {
            let rec = hit
                .key
                .strip_prefix("track")
                .and_then(|n| n.parse::<usize>().ok())
                .and_then(|n| self.recs.get(n));
            let correct = rec.is_some_and(|rec| {
                rec.published
                    && rec.provider == hit.provider.0
                    && (!check_provider || self.alive[rec.provider as usize])
                    && *rec.fields == *hit.fields
                    && query.matches_fields(&rec.fields)
            });
            if correct {
                v.answered = true;
            } else {
                v.false_positives += 1;
            }
        }
        v.answerable = v.answered
            || self.candidates(spec).iter().any(|&r| {
                let rec = &self.recs[r as usize];
                self.is_live(rec) && query.matches_fields(&rec.fields)
            });
        v
    }
}

/// Running totals of the checks, shared by every workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub answerable: u64,
    pub answered: u64,
    pub unanswerable: u64,
    pub false_positive_hits: u64,
}

impl Tally {
    /// Counts one search op.
    pub fn search(&mut self, v: Verdict) {
        self.attempted += 1;
        self.false_positive_hits += u64::from(v.false_positives);
        if v.answerable {
            self.answerable += 1;
            self.answered += u64::from(v.answered);
        } else {
            self.unanswerable += 1;
        }
        if v.false_positives > 0 {
            self.failed += 1;
        }
    }

    /// Counts one op whose answer always exists (publish, UI session).
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.answerable += 1;
        self.answered += u64::from(ok);
        self.failed += u64::from(!ok);
    }

    pub fn recall(&self) -> f64 {
        if self.answerable == 0 {
            1.0
        } else {
            self.answered as f64 / self.answerable as f64
        }
    }

    pub fn ok_ratio(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Rendered HTML must be non-empty and parse as XML (every benchmark
/// stylesheet uses the XML output method).
pub fn well_formed_html(html: &str) -> bool {
    !html.is_empty() && Document::parse(html).is_ok_and(|d| d.document_element().is_some())
}

/// A community joined over the network must carry the publisher's
/// identity, schema text and stylesheets.
pub fn community_round_trips(joined: &Community, published: &Community) -> bool {
    joined.id == published.id
        && joined.schema_xsd == published.schema_xsd
        && joined.object_root_name() == published.object_root_name()
        && joined.indexed_paths() == published.indexed_paths()
        && joined.display_style == published.display_style
        && joined.create_style == published.create_style
        && joined.search_style == published.search_style
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::track_key;
    use up2p_net::PeerId;

    fn oracle() -> Oracle {
        let mut o = Oracle::new(4);
        let t = |w: u16, artist: u16, genre: u8| Track {
            words: [w, w + 1, w],
            artist,
            genre,
            year: 1999,
        };
        o.publish(0, 0, &t(10, 5, 0));
        o.publish(1, 1, &t(10, 15, 1));
        o.publish(2, 2, &t(20, 25, 0));
        o
    }

    fn hit(o: &Oracle, record: u32) -> SearchHit {
        let rec = &o.recs[record as usize];
        SearchHit {
            key: track_key(record),
            provider: PeerId(rec.provider),
            fields: SharedFields::clone(&rec.fields),
            hops: 1,
        }
    }

    #[test]
    fn answerable_follows_publish_and_liveness() {
        let mut o = oracle();
        let spec = QuerySpec::Title(20);
        assert!(o.judge(&spec, &[], true).answerable);
        o.set_alive(2, false);
        assert!(!o.judge(&spec, &[], true).answerable);
        o.set_alive(2, true);
        o.unpublish(2);
        assert!(!o.judge(&spec, &[], true).answerable);
        assert!(!o.judge(&QuerySpec::Title(999), &[], true).answerable);
    }

    #[test]
    fn conjunction_needs_both_sides() {
        let o = oracle();
        assert!(o.judge(&QuerySpec::GenreTitle(0, 10), &[], true).answerable);
        assert!(!o.judge(&QuerySpec::GenreTitle(1, 20), &[], true).answerable);
        assert!(o.judge(&QuerySpec::Artist(15), &[], true).answerable);
        assert!(!o.judge(&QuerySpec::Artist(7), &[], true).answerable);
        assert!(
            o.judge(&QuerySpec::GenreYear(1, 1999), &[], true)
                .answerable
        );
        assert!(
            !o.judge(&QuerySpec::GenreYear(1, 1998), &[], true)
                .answerable
        );
    }

    #[test]
    fn wrong_hits_are_false_positives() {
        let mut o = oracle();
        let spec = QuerySpec::Title(10);
        let good = o.judge(&spec, &[hit(&o, 0), hit(&o, 1)], true);
        assert_eq!(
            good,
            Verdict {
                answerable: true,
                answered: true,
                false_positives: 0
            }
        );
        // a hit that does not match the query
        let bad = o.judge(&spec, &[hit(&o, 2)], true);
        assert_eq!(
            bad,
            Verdict {
                answerable: true,
                answered: false,
                false_positives: 1
            }
        );
        // a hit from an offline provider
        let stale = hit(&o, 0);
        o.set_alive(0, false);
        assert_eq!(
            o.judge(&spec, std::slice::from_ref(&stale), true)
                .false_positives,
            1
        );
        assert_eq!(o.judge(&spec, &[stale], false).false_positives, 0);
        // an unknown key
        let mut ghost = hit(&o, 1);
        ghost.key = "track999999".to_string();
        assert_eq!(o.judge(&spec, &[ghost], true).false_positives, 1);
    }

    #[test]
    fn tally_separates_unanswerable_from_missed() {
        let mut t = Tally::default();
        t.search(Verdict {
            answerable: true,
            answered: true,
            false_positives: 0,
        });
        t.search(Verdict {
            answerable: true,
            answered: false,
            false_positives: 0,
        });
        t.search(Verdict {
            answerable: false,
            answered: false,
            false_positives: 0,
        });
        t.search(Verdict {
            answerable: true,
            answered: true,
            false_positives: 2,
        });
        assert_eq!((t.attempted, t.failed, t.unanswerable), (4, 1, 1));
        assert_eq!(t.recall(), 2.0 / 3.0);
        assert_eq!(t.false_positive_hits, 2);
    }

    #[test]
    fn html_check() {
        assert!(well_formed_html("<div><p>x</p></div>"));
        assert!(!well_formed_html(""));
        assert!(!well_formed_html("<div><input></div>"));
    }
}
