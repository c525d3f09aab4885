//! Object corpora for the experiments.
//!
//! * **Design patterns** — the GoF-23 catalogue with full metadata: the
//!   stand-in for the Carleton Pattern Repository of §V (offline since the
//!   2000s), same field structure as the repository's DTD.
//! * **MP3s** — synthetic song metadata in the shape ID3 extraction
//!   produces (the paper's motivating Napster workload).
//! * **Molecules** — a small CML-flavored chemistry set (the paper's §I
//!   example of sharing "XML descriptions of chemical molecules").

use crate::workload::{rng_for, Zipf};
use rand::Rng;
use up2p_core::{Community, CoreError};
use up2p_schema::{FieldKind, SchemaBuilder};
use up2p_store::{Query, ValuePattern};

/// One design pattern record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternRecord {
    /// Canonical name.
    pub name: &'static str,
    /// Also-known-as names (may be empty).
    pub aka: &'static str,
    /// GoF category: creational, structural, behavioral.
    pub category: &'static str,
    /// Intent sentence.
    pub intent: &'static str,
    /// Applicability sketch.
    pub applicability: &'static str,
    /// Key participants.
    pub participants: &'static str,
}

/// The GoF-23 catalogue.
pub const GOF_PATTERNS: [PatternRecord; 23] = [
    PatternRecord {
        name: "Abstract Factory",
        aka: "Kit",
        category: "creational",
        intent: "Provide an interface for creating families of related or dependent objects without specifying their concrete classes",
        applicability: "a system should be independent of how its products are created composed and represented",
        participants: "AbstractFactory ConcreteFactory AbstractProduct ConcreteProduct Client",
    },
    PatternRecord {
        name: "Builder",
        aka: "",
        category: "creational",
        intent: "Separate the construction of a complex object from its representation so that the same construction process can create different representations",
        applicability: "the algorithm for creating a complex object should be independent of the parts that make up the object",
        participants: "Builder ConcreteBuilder Director Product",
    },
    PatternRecord {
        name: "Factory Method",
        aka: "Virtual Constructor",
        category: "creational",
        intent: "Define an interface for creating an object but let subclasses decide which class to instantiate",
        applicability: "a class cannot anticipate the class of objects it must create",
        participants: "Product ConcreteProduct Creator ConcreteCreator",
    },
    PatternRecord {
        name: "Prototype",
        aka: "",
        category: "creational",
        intent: "Specify the kinds of objects to create using a prototypical instance and create new objects by copying this prototype",
        applicability: "a system should be independent of how its products are created when classes to instantiate are specified at run time",
        participants: "Prototype ConcretePrototype Client",
    },
    PatternRecord {
        name: "Singleton",
        aka: "",
        category: "creational",
        intent: "Ensure a class only has one instance and provide a global point of access to it",
        applicability: "there must be exactly one instance of a class accessible to clients from a well known access point",
        participants: "Singleton",
    },
    PatternRecord {
        name: "Adapter",
        aka: "Wrapper",
        category: "structural",
        intent: "Convert the interface of a class into another interface clients expect",
        applicability: "you want to use an existing class and its interface does not match the one you need",
        participants: "Target Client Adaptee Adapter",
    },
    PatternRecord {
        name: "Bridge",
        aka: "Handle Body",
        category: "structural",
        intent: "Decouple an abstraction from its implementation so that the two can vary independently",
        applicability: "you want to avoid a permanent binding between an abstraction and its implementation",
        participants: "Abstraction RefinedAbstraction Implementor ConcreteImplementor",
    },
    PatternRecord {
        name: "Composite",
        aka: "",
        category: "structural",
        intent: "Compose objects into tree structures to represent part whole hierarchies letting clients treat individual objects and compositions uniformly",
        applicability: "you want to represent part whole hierarchies of objects",
        participants: "Component Leaf Composite Client",
    },
    PatternRecord {
        name: "Decorator",
        aka: "Wrapper",
        category: "structural",
        intent: "Attach additional responsibilities to an object dynamically providing a flexible alternative to subclassing for extending functionality",
        applicability: "you need to add responsibilities to individual objects dynamically and transparently",
        participants: "Component ConcreteComponent Decorator ConcreteDecorator",
    },
    PatternRecord {
        name: "Facade",
        aka: "",
        category: "structural",
        intent: "Provide a unified interface to a set of interfaces in a subsystem defining a higher level interface that makes the subsystem easier to use",
        applicability: "you want to provide a simple interface to a complex subsystem",
        participants: "Facade SubsystemClasses",
    },
    PatternRecord {
        name: "Flyweight",
        aka: "",
        category: "structural",
        intent: "Use sharing to support large numbers of fine grained objects efficiently",
        applicability: "an application uses a large number of objects and storage costs are high",
        participants: "Flyweight ConcreteFlyweight FlyweightFactory Client",
    },
    PatternRecord {
        name: "Proxy",
        aka: "Surrogate",
        category: "structural",
        intent: "Provide a surrogate or placeholder for another object to control access to it",
        applicability: "you need a more versatile or sophisticated reference to an object than a simple pointer",
        participants: "Proxy Subject RealSubject",
    },
    PatternRecord {
        name: "Chain of Responsibility",
        aka: "",
        category: "behavioral",
        intent: "Avoid coupling the sender of a request to its receiver by giving more than one object a chance to handle the request",
        applicability: "more than one object may handle a request and the handler is not known a priori",
        participants: "Handler ConcreteHandler Client",
    },
    PatternRecord {
        name: "Command",
        aka: "Action Transaction",
        category: "behavioral",
        intent: "Encapsulate a request as an object letting you parameterize clients with different requests queue or log requests and support undoable operations",
        applicability: "you want to parameterize objects by an action to perform",
        participants: "Command ConcreteCommand Client Invoker Receiver",
    },
    PatternRecord {
        name: "Interpreter",
        aka: "",
        category: "behavioral",
        intent: "Given a language define a representation for its grammar along with an interpreter that uses the representation to interpret sentences in the language",
        applicability: "the grammar is simple and efficiency is not a critical concern",
        participants: "AbstractExpression TerminalExpression NonterminalExpression Context Client",
    },
    PatternRecord {
        name: "Iterator",
        aka: "Cursor",
        category: "behavioral",
        intent: "Provide a way to access the elements of an aggregate object sequentially without exposing its underlying representation",
        applicability: "to access an aggregate object's contents without exposing its internal representation",
        participants: "Iterator ConcreteIterator Aggregate ConcreteAggregate",
    },
    PatternRecord {
        name: "Mediator",
        aka: "",
        category: "behavioral",
        intent: "Define an object that encapsulates how a set of objects interact promoting loose coupling by keeping objects from referring to each other explicitly",
        applicability: "a set of objects communicate in well defined but complex ways",
        participants: "Mediator ConcreteMediator Colleague",
    },
    PatternRecord {
        name: "Memento",
        aka: "Token",
        category: "behavioral",
        intent: "Without violating encapsulation capture and externalize an object's internal state so that the object can be restored to this state later",
        applicability: "a snapshot of an object's state must be saved so it can be restored later",
        participants: "Memento Originator Caretaker",
    },
    PatternRecord {
        name: "Observer",
        aka: "Dependents Publish Subscribe",
        category: "behavioral",
        intent: "Define a one to many dependency between objects so that when one object changes state all its dependents are notified and updated automatically",
        applicability: "a change to one object requires changing others and you do not know how many objects need to be changed",
        participants: "Subject ConcreteSubject Observer ConcreteObserver",
    },
    PatternRecord {
        name: "State",
        aka: "Objects for States",
        category: "behavioral",
        intent: "Allow an object to alter its behavior when its internal state changes so the object will appear to change its class",
        applicability: "an object's behavior depends on its state and it must change its behavior at run time",
        participants: "Context State ConcreteState",
    },
    PatternRecord {
        name: "Strategy",
        aka: "Policy",
        category: "behavioral",
        intent: "Define a family of algorithms encapsulate each one and make them interchangeable letting the algorithm vary independently from clients that use it",
        applicability: "many related classes differ only in their behavior",
        participants: "Strategy ConcreteStrategy Context",
    },
    PatternRecord {
        name: "Template Method",
        aka: "",
        category: "behavioral",
        intent: "Define the skeleton of an algorithm in an operation deferring some steps to subclasses without changing the algorithm's structure",
        applicability: "to implement the invariant parts of an algorithm once and leave the variant parts to subclasses",
        participants: "AbstractClass ConcreteClass",
    },
    PatternRecord {
        name: "Visitor",
        aka: "",
        category: "behavioral",
        intent: "Represent an operation to be performed on the elements of an object structure letting you define a new operation without changing the classes of the elements",
        applicability: "an object structure contains many classes of objects with differing interfaces and you want to perform operations that depend on their concrete classes",
        participants: "Visitor ConcreteVisitor Element ConcreteElement ObjectStructure",
    },
];

/// A community this file builds from literals: a schema that fails to
/// build is a defect here, which the tests below catch.
fn literal(built: Result<Community, CoreError>) -> Community {
    // panic-ok: compile-time literal XSD; validated by the crate's own tests, a parse failure is a build defect
    built.expect("static schema is valid")
}

/// Builds the design-pattern community (§V case study): searchable
/// name/aka/category/intent/applicability, unindexed bulky fields, and a
/// sample-code attachment.
pub fn pattern_community() -> Community {
    let mut b = SchemaBuilder::new("pattern");
    b.field(FieldKind::text("name").searchable())
        .field(FieldKind::text("aka").optional().searchable())
        .field(
            FieldKind::enumeration("category", ["creational", "structural", "behavioral"])
                .searchable(),
        )
        .field(FieldKind::text("intent").searchable())
        .field(FieldKind::text("applicability").searchable())
        .field(FieldKind::text("participants"))
        .field(FieldKind::text("collaborations").optional())
        .field(FieldKind::text("consequences").optional())
        .field(FieldKind::uri("samplecode").optional().attachment());
    literal(Community::from_builder(
        "design-patterns",
        "Software design patterns in the Carleton Pattern Repository format",
        "patterns gof software design reuse",
        "software",
        "Gnutella",
        &b,
    ))
}

/// Form values for one GoF pattern, ready for `Servent::create_object`.
pub fn pattern_values(p: &PatternRecord) -> Vec<(&'static str, &'static str)> {
    let mut v = vec![
        ("name", p.name),
        ("category", p.category),
        ("intent", p.intent),
        ("applicability", p.applicability),
        ("participants", p.participants),
    ];
    if !p.aka.is_empty() {
        v.insert(1, ("aka", p.aka));
    }
    v
}

/// Filename a 2002 file-sharing client would expose for a pattern —
/// the *only* searchable surface of the Napster/Gnutella baseline in E4.
pub fn pattern_filename(p: &PatternRecord) -> String {
    format!("{}.pattern.xml", p.name.to_lowercase().replace(' ', "_"))
}

/// A synthetic MP3 record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SongRecord {
    /// Track title.
    pub title: String,
    /// Artist name.
    pub artist: String,
    /// Album title.
    pub album: String,
    /// Genre label.
    pub genre: String,
    /// Release year.
    pub year: u32,
}

const ARTISTS: [(&str, &str); 10] = [
    ("Miles Davis", "jazz"),
    ("John Coltrane", "jazz"),
    ("Bill Evans", "jazz"),
    ("Led Zeppelin", "rock"),
    ("Pink Floyd", "rock"),
    ("The Beatles", "rock"),
    ("Aretha Franklin", "soul"),
    ("Stevie Wonder", "soul"),
    ("Johnny Cash", "country"),
    ("Bob Dylan", "folk"),
];

const TITLE_WORDS: [&str; 16] = [
    "Blue", "Midnight", "Train", "River", "Echo", "Golden", "Silent", "Electric", "Velvet",
    "Broken", "Rising", "Lonesome", "Crystal", "Wandering", "Burning", "Hollow",
];

/// Deterministically generates `n` songs (index-seeded, no RNG needed).
pub fn songs(n: usize) -> Vec<SongRecord> {
    (0..n)
        .map(|i| {
            let (artist, genre) = ARTISTS[i % ARTISTS.len()];
            let w1 = TITLE_WORDS[i % TITLE_WORDS.len()];
            let w2 = TITLE_WORDS[(i * 7 + 3) % TITLE_WORDS.len()];
            SongRecord {
                title: format!("{w1} {w2} No. {}", i / TITLE_WORDS.len() + 1),
                artist: artist.to_string(),
                album: format!("{artist} Vol. {}", i / ARTISTS.len() + 1),
                genre: genre.to_string(),
                year: 1959 + (i as u32 % 43),
            }
        })
        .collect()
}

/// Builds the MP3 community (the paper's motivating Napster-style
/// workload) with ID3-shaped searchable fields.
pub fn mp3_community() -> Community {
    let mut b = SchemaBuilder::new("song");
    b.field(FieldKind::text("title").searchable())
        .field(FieldKind::text("artist").searchable())
        .field(FieldKind::text("album").searchable())
        .field(FieldKind::text("genre").searchable())
        .field(FieldKind::integer("year").optional())
        .field(FieldKind::uri("audio").attachment());
    literal(Community::from_builder(
        "mp3",
        "MP3 trading with ID3 metadata search",
        "music mp3 audio songs",
        "music",
        "Napster",
        &b,
    ))
}

/// Filename a song would carry on disk — artist and title (descriptive,
/// unlike pattern filenames; E4's contrast case).
pub fn song_filename(s: &SongRecord) -> String {
    format!(
        "{}-{}.mp3",
        s.artist.to_lowercase().replace(' ', "_"),
        s.title.to_lowercase().replace(' ', "_")
    )
}

/// Genre enumeration of the synthetic track corpus.
const TRACK_GENRES: [&str; 8] =
    ["rock", "jazz", "classical", "electronic", "folk", "blues", "soul", "ambient"];

/// Deterministically generates `n` synthetic track field sets, the
/// catalogue E11 publishes: a Zipf-skewed vocabulary of title words, a
/// long tail of artists, a small genre enumeration and a year — the
/// shape of a large music-sharing community's metadata.
pub fn synthetic_track_fields(n: usize, seed: u64) -> Vec<Vec<(String, String)>> {
    // the stream label predates E11; renaming it would reseed every
    // table built on this corpus
    let mut rng = rng_for(seed, "e8-corpus");
    let vocab = Zipf::new(5000, 1.05);
    let artists = Zipf::new(1000, 1.05);
    (0..n)
        .map(|i| {
            let title = format!(
                "word{:04} word{:04} word{:04}",
                vocab.sample(&mut rng),
                vocab.sample(&mut rng),
                vocab.sample(&mut rng)
            );
            vec![
                ("track/title".to_string(), title),
                ("track/artist".to_string(), format!("artist{:03}", artists.sample(&mut rng))),
                (
                    "track/genre".to_string(),
                    TRACK_GENRES[rng.gen_range(0..TRACK_GENRES.len())].to_string(),
                ),
                ("track/year".to_string(), format!("{}", 1950 + i % 70)),
            ]
        })
        .collect()
}

/// The Zipf-skewed query mix over the synthetic track corpus: half
/// keyword lookups, a quarter exact genre matches, and the rest boolean
/// and wildcard queries — the shape of a large community's search box.
pub(crate) fn synthetic_track_queries(n_queries: usize, seed: u64) -> Vec<Query> {
    // stream label kept for the same reason as the corpus's
    let mut rng = rng_for(seed, "e9-queries");
    let vocab = Zipf::new(5000, 1.05);
    (0..n_queries)
        .map(|i| {
            let word = format!("word{:04}", vocab.sample(&mut rng));
            match i % 20 {
                0..=9 => Query::keyword("title", &word),
                10..=14 => {
                    Query::eq("track/genre", TRACK_GENRES[rng.gen_range(0..TRACK_GENRES.len())])
                }
                15..=17 => Query::and([
                    Query::eq("track/genre", TRACK_GENRES[rng.gen_range(0..TRACK_GENRES.len())]),
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

/// A molecule record (CML-flavored, §I example).
#[derive(Debug, Clone, PartialEq)]
pub struct MoleculeRecord {
    /// Trivial name.
    pub name: &'static str,
    /// Chemical formula.
    pub formula: &'static str,
    /// Molar mass in g/mol.
    pub weight: f64,
    /// Phase at room temperature.
    pub phase: &'static str,
}

/// A small chemistry corpus.
pub const MOLECULES: [MoleculeRecord; 12] = [
    MoleculeRecord { name: "water", formula: "H2O", weight: 18.015, phase: "liquid" },
    MoleculeRecord { name: "carbon dioxide", formula: "CO2", weight: 44.009, phase: "gas" },
    MoleculeRecord { name: "methane", formula: "CH4", weight: 16.043, phase: "gas" },
    MoleculeRecord { name: "ethanol", formula: "C2H5OH", weight: 46.069, phase: "liquid" },
    MoleculeRecord { name: "glucose", formula: "C6H12O6", weight: 180.156, phase: "solid" },
    MoleculeRecord { name: "ammonia", formula: "NH3", weight: 17.031, phase: "gas" },
    MoleculeRecord { name: "benzene", formula: "C6H6", weight: 78.114, phase: "liquid" },
    MoleculeRecord { name: "caffeine", formula: "C8H10N4O2", weight: 194.19, phase: "solid" },
    MoleculeRecord { name: "aspirin", formula: "C9H8O4", weight: 180.158, phase: "solid" },
    MoleculeRecord { name: "sodium chloride", formula: "NaCl", weight: 58.443, phase: "solid" },
    MoleculeRecord { name: "sulfuric acid", formula: "H2SO4", weight: 98.079, phase: "liquid" },
    MoleculeRecord { name: "ozone", formula: "O3", weight: 47.998, phase: "gas" },
];

/// Builds the molecule community.
pub fn molecule_community() -> Community {
    let mut b = SchemaBuilder::new("molecule");
    b.field(FieldKind::text("name").searchable())
        .field(FieldKind::text("formula").searchable())
        .field(FieldKind::decimal("weight"))
        .field(FieldKind::enumeration("phase", ["solid", "liquid", "gas"]).searchable());
    literal(Community::from_builder(
        "molecules",
        "Chemical Markup Language molecule descriptions",
        "chemistry cml molecules science",
        "science",
        "FastTrack",
        &b,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use up2p_core::{FormKind, FormModel};

    #[test]
    fn gof_catalogue_is_complete_and_unique() {
        assert_eq!(GOF_PATTERNS.len(), 23);
        let mut names: Vec<&str> = GOF_PATTERNS.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 23);
        let by_cat = |c: &str| GOF_PATTERNS.iter().filter(|p| p.category == c).count();
        assert_eq!(by_cat("creational"), 5);
        assert_eq!(by_cat("structural"), 7);
        assert_eq!(by_cat("behavioral"), 11);
    }

    #[test]
    fn every_pattern_builds_a_valid_object() {
        let community = pattern_community();
        let form = FormModel::derive(&community, FormKind::Create);
        for p in &GOF_PATTERNS {
            let values = pattern_values(p);
            let doc = form.fill("pattern", &values).unwrap();
            community.validate(&doc).unwrap_or_else(|e| panic!("{}: {e}", p.name));
        }
    }

    #[test]
    fn songs_are_deterministic_and_valid() {
        let a = songs(50);
        let b = songs(50);
        assert_eq!(a, b);
        let community = mp3_community();
        let form = FormModel::derive(&community, FormKind::Create);
        for s in &a[..10] {
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
                .unwrap();
            community.validate(&doc).unwrap();
        }
    }

    #[test]
    fn filenames_reflect_their_surface() {
        let p = &GOF_PATTERNS[18];
        assert_eq!(pattern_filename(p), "observer.pattern.xml");
        let s = &songs(1)[0];
        assert!(song_filename(s).contains("miles_davis"));
    }

    #[test]
    fn molecule_objects_validate() {
        let community = molecule_community();
        let form = FormModel::derive(&community, FormKind::Create);
        for m in &MOLECULES {
            let w = m.weight.to_string();
            let doc = form
                .fill(
                    "molecule",
                    &[
                        ("name", m.name),
                        ("formula", m.formula),
                        ("weight", w.as_str()),
                        ("phase", m.phase),
                    ],
                )
                .unwrap();
            community.validate(&doc).unwrap();
        }
    }

    #[test]
    fn communities_have_distinct_ids() {
        let ids =
            [pattern_community().id, mp3_community().id, molecule_community().id];
        assert_ne!(ids[0], ids[1]);
        assert_ne!(ids[1], ids[2]);
        assert_ne!(ids[0], ids[2]);
    }
}
