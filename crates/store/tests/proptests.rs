//! Property tests: the inverted index must agree exactly with the
//! reference (linear scan) query semantics, the CMIP filter syntax
//! must round-trip through `Display`, the incremental SHA-1 must give
//! the digests of the plain FIPS 180-1 transcription it replaced,
//! and slicing-by-8 CRC-32 the checksums of the one-byte loop.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use up2p_store::{
    crc32, normalize, parse_cmip, prepare_fields, sha1, token_passes, DurableOptions,
    DurableRepository, IndexStats, MetadataIndex, PreparedField, Query, Repository, ResourceId,
    Sha1, SharedFields, SyncPolicy, ValuePattern,
};
use up2p_xml::Document;

/// The oracle: SHA-1 transcribed from FIPS 180-1 as the store first
/// implemented it — the padded message copied whole, an 80-word
/// schedule, one `match` per round.
fn sha1_oracle(data: &[u8]) -> [u8; 20] {
    let mut h: [u32; 5] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];
    let ml = (data.len() as u64).wrapping_mul(8);
    let mut msg = data.to_vec();
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&ml.to_be_bytes());
    let mut w = [0u32; 80];
    for chunk in msg.chunks_exact(64) {
        for (i, word) in chunk.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }
        let (mut a, mut b, mut c, mut d, mut e) = (h[0], h[1], h[2], h[3], h[4]);
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | ((!b) & d), 0x5A827999u32),
                20..=39 => (b ^ c ^ d, 0x6ED9EBA1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1BBCDC),
                _ => (b ^ c ^ d, 0xCA62C1D6),
            };
            let temp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = temp;
        }
        h[0] = h[0].wrapping_add(a);
        h[1] = h[1].wrapping_add(b);
        h[2] = h[2].wrapping_add(c);
        h[3] = h[3].wrapping_add(d);
        h[4] = h[4].wrapping_add(e);
    }
    let mut out = [0u8; 20];
    for (i, word) in h.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// `data` fed to a [`Sha1`] in pieces, cut at `cuts` (any order, clamped
/// to the length; repeated cuts feed empty pieces).
fn sha1_in_pieces(data: &[u8], cuts: &[usize]) -> [u8; 20] {
    let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(data.len())).collect();
    cuts.sort_unstable();
    let mut hasher = Sha1::new();
    let mut from = 0;
    for cut in cuts {
        hasher.update(&data[from..cut]);
        from = cut;
    }
    hasher.update(&data[from..]);
    hasher.finish()
}

/// Deterministic bytes of any length.
fn message(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i as u8).wrapping_mul(167).wrapping_add(13)).collect()
}

/// Every length to 300 — the padding edges 55/56/63/64/119/120 among
/// them, where the length field does or does not fit the last block —
/// one-shot and fed in three pieces, against the oracle.
#[test]
fn sha1_matches_the_oracle_at_every_length_to_300() {
    for len in 0..300 {
        let data = message(len);
        let expected = sha1_oracle(&data);
        assert_eq!(sha1(&data), expected, "one-shot, {len} bytes");
        for cuts in [[0, 0], [len / 3, 2 * len / 3], [1, len.saturating_sub(1)], [64, 128]] {
            assert_eq!(sha1_in_pieces(&data, &cuts), expected, "{len} bytes cut at {cuts:?}");
        }
    }
    for len in [55, 56, 63, 64, 119, 120] {
        let data = message(len);
        for cut in 0..=len {
            assert_eq!(sha1_in_pieces(&data, &[cut]), sha1_oracle(&data), "{len} cut at {cut}");
        }
    }
}

/// The one-byte table [`crc32_oracle`] steps with.
const CRC_ORACLE_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// The oracle for [`crc32`]: the one-byte-a-step loop every WAL and
/// segment frame was first checksummed with. Recovery stops at the first
/// frame whose checksum disagrees, so a changed value would read a whole
/// log as torn.
fn crc32_oracle(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ CRC_ORACLE_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

fn hex(digest: [u8; 20]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

fn word() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("observer".to_string()),
        Just("factory".to_string()),
        Just("jazz".to_string()),
        Just("modal".to_string()),
        Just("pattern".to_string()),
        Just("gof".to_string()),
        "[a-z]{2,6}",
    ]
}

fn field_path() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("obj/name".to_string()),
        Just("obj/category".to_string()),
        Just("obj/keywords".to_string()),
    ]
}

fn object_fields() -> impl Strategy<Value = Vec<(String, String)>> {
    prop::collection::vec(
        (field_path(), prop::collection::vec(word(), 1..4).prop_map(|ws| ws.join(" "))),
        1..5,
    )
}

fn pattern_strategy() -> impl Strategy<Value = ValuePattern> {
    (word(), 0u8..5).prop_map(|(w, kind)| match kind {
        0 => ValuePattern::Exact(w),
        1 => ValuePattern::Prefix(w),
        2 => ValuePattern::Suffix(w),
        3 => ValuePattern::Contains(w),
        _ => ValuePattern::Present,
    })
}

fn leaf_query() -> impl Strategy<Value = Query> {
    prop_oneof![
        (field_path(), pattern_strategy())
            .prop_map(|(field, pattern)| Query::Match { field, pattern }),
        (field_path(), word()).prop_map(|(f, w)| Query::keyword(f, &w)),
        word().prop_map(|w| Query::any_keyword(&w)),
        Just(Query::All),
    ]
}

fn query_strategy() -> impl Strategy<Value = Query> {
    leaf_query().prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..4).prop_map(Query::And),
            prop::collection::vec(inner.clone(), 1..4).prop_map(Query::Or),
            inner.prop_map(|q| Query::Not(Box::new(q))),
        ]
    })
}

/// One insert of the insert-cell tape: the object's slot (its id), its
/// fields, and whether its prepared form is cut one entry short.
type TapeItem = (usize, Vec<(String, String)>, bool);

fn slot_id(slot: usize) -> ResourceId {
    ResourceId::for_bytes(&[slot as u8])
}

/// The prepared form an item's writer hands over: what `prepare_fields`
/// derives, or — for foreign input — a form of the wrong length, which
/// the index must not trust.
fn item_prep(fields: &[(String, String)], short: bool) -> Vec<PreparedField> {
    let mut prep = prepare_fields(fields);
    if short {
        prep.pop();
    }
    prep
}

/// Per field, the exact value and a prefix, suffix and contains
/// pattern cut from its normalized form.
fn value_patterns(fields: &[(String, String)]) -> Vec<Query> {
    let mut out = Vec::new();
    for (path, value) in fields {
        let norm = normalize(value);
        let chars: Vec<char> = norm.chars().collect();
        let n = chars.len();
        let cut = |a: usize, b: usize| chars[a.min(n)..b.min(n)].iter().collect::<String>();
        for pattern in [
            ValuePattern::Exact(norm.clone()),
            ValuePattern::Prefix(cut(0, 3)),
            ValuePattern::Suffix(cut(n.saturating_sub(3), n)),
            ValuePattern::Contains(cut(1, n.saturating_sub(1))),
        ] {
            out.push(Query::Match { field: path.clone(), pattern });
        }
    }
    out
}

/// A fresh scratch directory per proptest case.
fn case_dir(name: &str) -> std::path::PathBuf {
    static CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "up2p-store-prop-{name}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every query's matches in `for_each_match` (doc-id) order.
fn match_order(ix: &MetadataIndex, query: &Query) -> Vec<ResourceId> {
    let mut out = Vec::new();
    ix.for_each_match(query, |id, _| out.push(id.clone()));
    out
}

/// `stats()` without `approx_bytes`: the interner keeps the strings of
/// objects that were replaced or removed.
fn counts(s: IndexStats) -> (usize, usize, usize, usize) {
    (s.objects, s.fields, s.token_postings, s.exact_postings)
}

proptest! {
    /// [`Sha1`] fed a message split at up to three random points, and
    /// one-shot [`sha1`], both give the oracle's digest.
    #[test]
    fn sha1_equivalence(
        data in prop::collection::vec(any::<u8>(), 0..300),
        cuts in prop::collection::vec(0usize..300, 0..4),
    ) {
        let expected = sha1_oracle(&data);
        prop_assert_eq!(sha1(&data), expected);
        prop_assert_eq!(sha1_in_pieces(&data, &cuts), expected, "cut at {:?}", cuts);
    }

    /// Slicing-by-8 [`crc32`] gives the oracle's checksum at every length
    /// 0–300 — whole 8-byte blocks, each tail of one to seven bytes — and
    /// at every start offset modulo 8.
    #[test]
    fn crc32_matches_the_bytewise_loop(data in prop::collection::vec(any::<u8>(), 308..309)) {
        for offset in 0..8 {
            for len in 0..=300 {
                let slice = &data[offset..offset + len];
                prop_assert_eq!(crc32(slice), crc32_oracle(slice), "{} bytes at {}", len, offset);
            }
        }
    }

    /// An object id streams `community ‖ 0 ‖ xml` into the hasher: the
    /// digest of the concatenation, in hex.
    #[test]
    fn for_object_hashes_community_nul_xml(community in "\\PC{0,40}", xml in "\\PC{0,200}") {
        let mut joined = community.clone().into_bytes();
        joined.push(0);
        joined.extend_from_slice(xml.as_bytes());
        let id = ResourceId::for_object(&community, &xml);
        prop_assert_eq!(id.as_hex(), hex(sha1_oracle(&joined)));
    }

    /// The inverted index and the reference linear scan agree on every
    /// query for every corpus.
    #[test]
    fn index_equals_reference_scan(
        objects in prop::collection::vec(object_fields(), 1..12),
        query in query_strategy(),
    ) {
        let mut ix = MetadataIndex::new();
        let mut reference: Vec<(ResourceId, Vec<(String, String)>)> = Vec::new();
        for (i, fields) in objects.iter().enumerate() {
            let id = ResourceId::for_bytes(&[i as u8]);
            ix.insert_shared(id.clone(), fields.clone().into());
            reference.push((id, fields.clone()));
        }
        let via_index = ix.execute(&query);
        let via_scan: BTreeSet<ResourceId> = reference
            .iter()
            .filter(|(_, fields)| query.matches_fields(fields))
            .map(|(id, _)| id.clone())
            .collect();
        prop_assert_eq!(via_index, via_scan, "query: {}", query);
    }

    /// Any query tree prints as a CMIP filter that reparses to the same
    /// tree (modulo keyword-token normalization, which Display preserves).
    #[test]
    fn cmip_display_round_trips(query in query_strategy()) {
        let text = query.to_string();
        let reparsed = parse_cmip(&text).unwrap();
        prop_assert_eq!(query, reparsed, "text: {}", text);
    }

    /// Repository insert/remove keeps len, membership and search
    /// consistent.
    #[test]
    fn repository_insert_remove_consistent(
        names in prop::collection::btree_set("[a-z]{3,8}", 1..8),
    ) {
        let mut repo = Repository::new();
        let paths = vec!["o/name".to_string()];
        let mut ids = Vec::new();
        for n in &names {
            let doc = Document::parse(&format!("<o><name>{n}</name></o>")).unwrap();
            ids.push(repo.insert_doc("c", doc, &paths));
        }
        prop_assert_eq!(repo.len(), names.len());
        for (n, id) in names.iter().zip(&ids) {
            let hits = repo.search(Some("c"), &Query::eq("name", n));
            prop_assert!(hits.iter().any(|o| &o.id == id));
        }
        // remove everything; store must end empty with no stale postings
        for id in &ids {
            repo.remove(id);
        }
        prop_assert!(repo.is_empty());
        for n in &names {
            prop_assert!(repo.search(None, &Query::eq("name", n)).is_empty());
        }
    }

    /// The CMIP parser never panics on arbitrary input.
    #[test]
    fn cmip_parser_never_panics(s in "\\PC{0,60}") {
        let _ = parse_cmip(&s);
    }

    /// Interleaved insert / remove / re-insert (the targeted-removal
    /// rewrite's safety net): after every operation the index agrees with
    /// a linear `matches_fields` scan, and removing everything returns
    /// the posting counts to the empty baseline.
    #[test]
    fn remove_interleaving_keeps_index_consistent(
        objects in prop::collection::vec(object_fields(), 1..10),
        ops in prop::collection::vec((0u8..3, 0usize..10), 1..25),
        query in query_strategy(),
    ) {
        let mut ix = MetadataIndex::new();
        type Slot = (ResourceId, Option<Vec<(String, String)>>);
        let mut reference: Vec<Slot> = objects
            .iter()
            .enumerate()
            .map(|(i, f)| (ResourceId::for_bytes(&[i as u8]), Some(f.clone())))
            .collect();
        for (i, fields) in objects.iter().enumerate() {
            ix.insert_shared(reference[i].0.clone(), fields.clone().into());
        }
        let baseline = {
            let s = ix.stats();
            (s.token_postings, s.exact_postings)
        };
        for (op, slot) in ops {
            let slot = slot % reference.len();
            let (id, fields) = (reference[slot].0.clone(), objects[slot].clone());
            match op {
                0 => {
                    ix.remove(&id);
                    reference[slot].1 = None;
                }
                1 => {
                    ix.insert_shared(id.clone(), fields.clone().into());
                    reference[slot].1 = Some(fields);
                }
                _ => {
                    // re-insert with mutated fields, then restore
                    let mut mutated = fields.clone();
                    mutated.push(("obj/extra".to_string(), "mutant".to_string()));
                    ix.insert_shared(id.clone(), mutated.into());
                    ix.insert_shared(id.clone(), fields.clone().into());
                    reference[slot].1 = Some(fields);
                }
            }
            let via_index = ix.execute(&query);
            let via_scan: BTreeSet<ResourceId> = reference
                .iter()
                .filter(|(_, f)| f.as_ref().is_some_and(|f| query.matches_fields(f)))
                .map(|(id, _)| id.clone())
                .collect();
            prop_assert_eq!(via_index, via_scan, "after op {} on slot {}: {}", op, slot, &query);
        }
        // restore the original corpus: postings must return to baseline
        for (i, fields) in objects.iter().enumerate() {
            ix.insert_shared(reference[i].0.clone(), fields.clone().into());
        }
        let s = ix.stats();
        prop_assert_eq!((s.token_postings, s.exact_postings), baseline);
        prop_assert_eq!(s.objects, objects.len());
        // and removing everything empties every posting list
        for (id, _) in &reference {
            ix.remove(id);
        }
        let s = ix.stats();
        prop_assert_eq!((s.objects, s.token_postings, s.exact_postings), (0, 0, 0));
    }

    /// The two insert cells — tokenizing `insert_shared` and prepared
    /// `insert_tokenized` — are one write path: driven through one random
    /// insert / remove / re-insert tape (repeated ids inside a group,
    /// prepared forms of the wrong length, removal of a record whose
    /// normalized values a live twin shares) they hold the same postings,
    /// answer every query — and the exact, prefix, suffix and contains
    /// patterns of the twin's values — like the linear scan and visit
    /// matches in the same order. Prepared inserts of new ids run zero
    /// tokenizer passes.
    #[test]
    fn insert_cells_agree(
        objects in prop::collection::vec(object_fields(), 1..10),
        tape in prop::collection::vec(
            (0u8..5, prop::collection::vec((0usize..12, object_fields(), any::<bool>()), 1..4)),
            1..12,
        ),
        query in query_strategy(),
    ) {
        let (mut tokenizing, mut prepared) = (MetadataIndex::new(), MetadataIndex::new());
        let mut model: BTreeMap<ResourceId, Vec<(String, String)>> = BTreeMap::new();
        // returns the tokenizer passes of (the prepared cell, the tokenizing cell)
        let insert_group = |tokenizing: &mut MetadataIndex, prepared: &mut MetadataIndex, group: &[TapeItem]| {
            let shared: Vec<(ResourceId, SharedFields, Vec<PreparedField>)> = group
                .iter()
                .map(|(slot, f, short)| (slot_id(*slot), f.clone().into(), item_prep(f, *short)))
                .collect();
            let before = token_passes();
            for (id, f, prep) in &shared {
                prepared.insert_tokenized(id.clone(), f.clone(), prep);
            }
            let prepared_passes = token_passes() - before;
            for (id, f, _) in &shared {
                tokenizing.insert_shared(id.clone(), f.clone());
            }
            (prepared_passes, token_passes() - before - prepared_passes)
        };

        // initial load: new ids, well-formed prepared forms
        let load: Vec<TapeItem> =
            objects.iter().cloned().enumerate().map(|(i, f)| (i, f, false)).collect();
        let (prepared_passes, tokenizing_passes) = insert_group(&mut tokenizing, &mut prepared, &load);
        prop_assert_eq!(prepared_passes, 0, "the prepared cell ran the tokenizer");
        let n_fields = objects.iter().map(Vec::len).sum::<usize>() as u64;
        prop_assert_eq!(tokenizing_passes, n_fields, "tokenizing cell: one pass per field");
        model.extend(load.into_iter().map(|(slot, f, _)| (slot_id(slot), f)));

        for (op, mut group) in tape {
            let mut patterns = Vec::new();
            match op {
                0 => {
                    let id = slot_id(group[0].0);
                    tokenizing.remove(&id);
                    prepared.remove(&id);
                    model.remove(&id);
                }
                4 => {
                    // a twin of a live record under another id, its values
                    // recased and respaced to the same normalized form; then
                    // the original goes and the twin's postings must stay
                    let (slot, short) = (group[0].0, group[0].2);
                    let Some((original, fields)) = model
                        .iter()
                        .nth(slot % model.len().max(1))
                        .map(|(id, f)| (id.clone(), f.clone()))
                    else {
                        continue;
                    };
                    let recase = |v: &str| format!(" {} ", v.to_uppercase().replace(' ', "  "));
                    let twin: Vec<(String, String)> =
                        fields.iter().map(|(path, v)| (path.clone(), recase(v))).collect();
                    patterns = value_patterns(&twin);
                    insert_group(&mut tokenizing, &mut prepared, &[(slot, twin.clone(), short)]);
                    model.insert(slot_id(slot), twin);
                    if original != slot_id(slot) {
                        tokenizing.remove(&original);
                        prepared.remove(&original);
                        model.remove(&original);
                    }
                }
                _ => {
                    if op == 3 {
                        // repeat the first id inside the group: last wins
                        let (slot, last) = (group[0].0, group[group.len() - 1].1.clone());
                        group.push((slot, last, false));
                    }
                    insert_group(&mut tokenizing, &mut prepared, &group);
                    model.extend(group.into_iter().map(|(slot, f, _)| (slot_id(slot), f)));
                }
            }
            prop_assert_eq!(counts(prepared.stats()), counts(tokenizing.stats()));
            for q in patterns.iter().chain([&query]) {
                let via_scan: BTreeSet<ResourceId> = model
                    .iter()
                    .filter(|(_, f)| q.matches_fields(f))
                    .map(|(id, _)| id.clone())
                    .collect();
                for ix in [&tokenizing, &prepared] {
                    prop_assert_eq!(ix.execute(q), via_scan.clone(), "{}", q);
                }
            }
            for q in [&query, &Query::All] {
                prop_assert_eq!(match_order(&prepared, q), match_order(&tokenizing, q));
            }
        }
    }

    /// The `Repository` twin of `insert_cells_agree`: sequential
    /// `insert_doc` (tokenizing), durable publish (prepared) and recovery
    /// of that store's directory (prepared, from the log) all end in the
    /// same objects, postings and search results, with one tokenizer pass
    /// per field on a durable publish and none in recovery.
    #[test]
    fn repository_write_paths_agree(
        groups in prop::collection::vec(
            (prop::collection::vec((word(), word()), 1..4), any::<bool>(), 0usize..8),
            1..6,
        ),
        query in query_strategy(),
    ) {
        let dir = case_dir("paths");
        let paths = vec!["obj/name".to_string(), "obj/keywords".to_string()];
        let opts = DurableOptions { sync: SyncPolicy::Manual, compact_every: None };
        let mut sequential = Repository::new();
        let mut durable = DurableRepository::open(&dir, opts).unwrap();
        let mut ids: Vec<ResourceId> = Vec::new();
        for (objects, repeat, victim) in groups {
            let mut docs: Vec<Document> = objects
                .iter()
                .map(|(name, kw)| {
                    let xml = format!("<obj><name>{name}</name><keywords>{kw} {name}</keywords></obj>");
                    Document::parse(&xml).unwrap()
                })
                .collect();
            if repeat {
                docs.push(docs[0].clone()); // the same id twice in one group
            }
            for doc in docs {
                let id = sequential.insert_doc("c", doc.clone(), &paths);
                let fresh = !durable.repository().contains(&id);
                let before = token_passes();
                prop_assert_eq!(&durable.publish_doc("c", doc, &paths).unwrap(), &id);
                if fresh {
                    prop_assert_eq!(token_passes() - before, paths.len() as u64);
                }
                ids.push(id);
            }
            // every other round, remove an earlier object everywhere
            if victim % 2 == 0 {
                let id = ids[victim % ids.len()].clone();
                sequential.remove(&id);
                durable.remove(&id).unwrap();
            }
        }
        durable.sync().unwrap();
        let before = token_passes();
        let (recovered, _) = DurableRepository::recover(&dir).unwrap();
        prop_assert_eq!(token_passes() - before, 0, "recovery ran the tokenizer");
        let dump = |r: &Repository| -> Vec<(ResourceId, String, SharedFields)> {
            r.iter().map(|o| (o.id.clone(), o.xml.clone(), o.fields.clone())).collect()
        };
        let hits = |r: &Repository| -> Vec<ResourceId> {
            r.search(Some("c"), &query).iter().map(|o| o.id.clone()).collect()
        };
        for (name, repo) in [("durable", durable.repository()), ("recovered", &recovered)] {
            prop_assert_eq!(dump(repo), dump(&sequential), "{}", name);
            prop_assert_eq!(counts(repo.index_stats()), counts(sequential.index_stats()), "{}", name);
            prop_assert_eq!(hits(repo), hits(&sequential), "{}: {}", name, &query);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
