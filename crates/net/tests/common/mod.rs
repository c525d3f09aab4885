//! What the net crate's property tests share: the oracle workload's
//! generators and [`LinearTable`], the flat reference table an index
//! server or a super-peer's index must answer like. Each test binary
//! uses a part of it.
#![allow(dead_code)]

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use up2p_net::{IndexNode, PeerId, ResourceRecord};
use up2p_store::{Query, ValuePattern};

/// One publish operation in the oracle workload.
#[derive(Debug, Clone)]
pub struct PublishOp {
    pub key: String,
    pub community: &'static str,
    pub provider: PeerId,
    pub fields: Vec<(String, String)>,
}

pub const COMMUNITIES: [&str; 2] = ["alpha", "beta"];
pub const ORACLE_PEERS: usize = 8;

pub fn field_path() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("o/name"), Just("o/tag"), Just("meta/name")]
}

/// Field values: one word or two, mixed case, and one whose raw and
/// normalized forms split into different tokens (`İ` lowercases to `i`
/// and a combining dot, which is no letter).
pub fn value_word() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("apple"),
        Just("banana split"),
        Just("Observer Pattern"),
        Just("factory"),
        Just("errant banana"),
        Just("İstanbul Köln"),
    ]
}

/// Whole multi-word values of [`value_word`], for exact matches a digest
/// can only ask by their tokens.
pub fn whole_value() -> impl Strategy<Value = &'static str> + Clone {
    prop_oneof![Just("banana split"), Just("observer pattern"), Just("İstanbul Köln")]
}

pub fn publish_ops() -> impl Strategy<Value = Vec<PublishOp>> {
    pvec(
        (
            0usize..16,
            0usize..COMMUNITIES.len(),
            0u32..ORACLE_PEERS as u32,
            pvec((field_path(), value_word()), 1..3),
        ),
        0..40,
    )
    .prop_map(|ops| {
        ops.into_iter()
            .map(|(key, community, provider, fields)| PublishOp {
                key: format!("k{key}"),
                community: COMMUNITIES[community],
                provider: PeerId(provider),
                fields: fields
                    .into_iter()
                    .map(|(p, v)| (p.to_string(), v.to_string()))
                    .collect(),
            })
            .collect()
    })
}

/// Random queries covering every class the substrates evaluate: exact
/// (over single words and whole multi-word values), keyword (fielded and
/// any-field), wildcard patterns, and boolean composition over them.
pub fn oracle_query() -> impl Strategy<Value = Query> {
    let reference = prop_oneof![
        Just("name"),
        Just("o/name"),
        Just("tag"),
        Just("meta/name"),
        Just("absent/field"),
    ];
    let frag = prop_oneof![
        Just("apple"),
        Just("banana"),
        Just("observer"),
        Just("pattern"),
        Just("err"),
        Just("missing"),
    ];
    let leaf = prop_oneof![
        Just(Query::All),
        (reference.clone(), frag.clone()).prop_map(|(f, w)| Query::eq(f, w)),
        (reference.clone(), whole_value()).prop_map(|(f, v)| Query::eq(f, v)),
        (reference.clone(), frag.clone()).prop_map(|(f, w)| Query::contains(f, w)),
        (reference.clone(), frag.clone()).prop_map(|(f, w)| Query::keyword(f, w)),
        frag.clone().prop_map(Query::any_keyword),
        (reference.clone(), frag.clone()).prop_map(|(f, w)| Query::Match {
            field: f.to_string(),
            pattern: ValuePattern::from_wildcard(&format!("{w}*")),
        }),
        (reference.clone(), frag).prop_map(|(f, w)| Query::Match {
            field: f.to_string(),
            pattern: ValuePattern::from_wildcard(&format!("*{w}")),
        }),
        reference.prop_map(|f| Query::Match {
            field: f.to_string(),
            pattern: ValuePattern::Present,
        }),
    ];
    leaf.prop_recursive(2, 12, 3, |inner| {
        prop_oneof![
            pvec(inner.clone(), 0..3).prop_map(Query::and),
            pvec(inner.clone(), 0..3).prop_map(Query::or),
            inner.prop_map(|q| Query::Not(Box::new(q))),
        ]
    })
}

/// The pre-refactor reference: a flat record table evaluated with a
/// linear `Query::matches_fields` scan and per-record provider sets
/// (first publish of a key wins, last provider removes the record).
///
/// Emission order is modelled too: within a community a record is
/// emitted from the place it was admitted to — a new one at the end, or
/// the place freed last when a record of that community has been removed
/// since (how the index hands out doc-ids) — providers ascending.
#[derive(Default)]
pub struct LinearTable {
    records: BTreeMap<String, (ResourceRecord, BTreeSet<PeerId>)>,
    /// Community → (key per place, freed places in the order freed).
    places: BTreeMap<String, (Vec<Option<String>>, Vec<usize>)>,
}

impl LinearTable {
    /// `true` when the record entered the table, `false` when only its
    /// provider set grew.
    pub fn publish(&mut self, provider: PeerId, record: &ResourceRecord) -> bool {
        if let Some((_, providers)) = self.records.get_mut(&record.key) {
            providers.insert(provider);
            return false;
        }
        self.records.insert(record.key.clone(), (record.clone(), BTreeSet::from([provider])));
        let (keys, free) = self.places.entry(record.community.clone()).or_default();
        match free.pop() {
            Some(place) => keys[place] = Some(record.key.clone()),
            None => keys.push(Some(record.key.clone())),
        }
        true
    }

    /// The record, when it left the table with its last provider; its
    /// place is freed.
    pub fn unpublish(&mut self, provider: PeerId, key: &str) -> Option<ResourceRecord> {
        let (_, providers) = self.records.get_mut(key)?;
        providers.remove(&provider);
        if !providers.is_empty() {
            return None;
        }
        let (record, _) = self.records.remove(key)?;
        let (keys, free) = self.places.get_mut(&record.community).expect("placed at publish");
        let place = keys.iter().position(|k| k.as_deref() == Some(key)).expect("placed");
        keys[place] = None;
        free.push(place);
        Some(record)
    }

    pub fn providers(&self, key: &str) -> Option<&BTreeSet<PeerId>> {
        self.records.get(key).map(|(_, providers)| providers)
    }

    pub fn search(&self, community: &str, query: &Query, alive: &[bool]) -> Vec<(String, PeerId)> {
        let mut hits = Vec::new();
        let Some((keys, _)) = self.places.get(community) else { return hits };
        for key in keys.iter().flatten() {
            let (record, providers) = &self.records[key];
            if !query.matches_fields(&record.fields) {
                continue;
            }
            for &p in providers {
                if alive.get(p.index()).copied().unwrap_or(false) {
                    hits.push((record.key.clone(), p));
                }
            }
        }
        hits
    }
}

/// A peer's own share table as a one-provider [`IndexNode`]: last publish
/// wins, so a republish is a `remove`, then an `insert`. Returns the
/// `(community, fields)` of the record it replaced.
pub fn republish(
    node: &mut IndexNode,
    provider: PeerId,
    record: &ResourceRecord,
) -> Option<(String, Vec<(String, String)>)> {
    let replaced = node.remove(provider, &record.key).map(|(c, f)| (c.to_string(), f.to_vec()));
    assert!(node.insert(provider, record), "{provider:?} is the node's one provider");
    replaced
}
