//! E8 (ROADMAP): index-at-scale kernels — interned-doc-id insert (sequential
//! and batch), the four query classes, and targeted removal over a
//! synthetic 10k-track corpus. The full 100k table is regenerated by
//! `run_experiments --scenario e8`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use up2p_sim::corpus::{synthetic_track_fields, TRACK_GENRES};
use up2p_store::{MetadataIndex, Query, ResourceId, ValuePattern};

const N: usize = 10_000;

fn corpus() -> Vec<(ResourceId, Vec<(String, String)>)> {
    synthetic_track_fields(N, 42)
        .into_iter()
        .enumerate()
        .map(|(i, f)| (ResourceId::for_bytes(&(i as u64).to_le_bytes()), f))
        .collect()
}

fn loaded(items: &[(ResourceId, Vec<(String, String)>)]) -> MetadataIndex {
    let mut ix = MetadataIndex::new();
    ix.insert_batch(items.iter().cloned().map(|(id, f)| (id, f, None)));
    ix
}

fn bench_index_scale(c: &mut Criterion) {
    let mut g = c.benchmark_group("e8_index_scale");
    let items = corpus();

    g.bench_function("insert_sequential_10k", |b| {
        b.iter(|| {
            let mut ix = MetadataIndex::new();
            for (id, f) in &items {
                ix.insert(id.clone(), f.clone());
            }
            ix.len()
        })
    });

    g.bench_function("insert_batch_10k", |b| {
        b.iter(|| {
            let mut ix = MetadataIndex::new();
            ix.insert_batch(items.iter().cloned().map(|(id, f)| (id, f, None)));
            ix.len()
        })
    });

    let ix = loaded(&items);
    let queries = [
        ("query_exact", Query::eq("track/genre", TRACK_GENRES[1])),
        ("query_keyword", Query::keyword("title", "word0042")),
        (
            "query_wildcard",
            Query::Match {
                field: "track/artist".to_string(),
                pattern: ValuePattern::from_wildcard("artist00*"),
            },
        ),
        (
            "query_boolean",
            Query::and([
                Query::eq("track/genre", TRACK_GENRES[0]),
                Query::keyword("title", "word0007"),
            ]),
        ),
    ];
    for (name, q) in &queries {
        g.bench_function(*name, |b| b.iter(|| ix.execute(black_box(q)).len()));
    }

    g.bench_function("remove_reinsert", |b| {
        let mut ix = loaded(&items);
        let mut i = 0usize;
        b.iter(|| {
            let (id, fields) = &items[i % items.len()];
            ix.remove(id);
            ix.insert(id.clone(), fields.clone());
            i += 1;
        })
    });

    g.finish();
}

criterion_group!(benches, bench_index_scale);
criterion_main!(benches);
