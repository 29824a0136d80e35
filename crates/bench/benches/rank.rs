//! Criterion: the cache host's rescore/evict cost in isolation — the
//! slot-table-plus-lazy-deletion heap on the op mix the priority host
//! actually issues (mostly rescores of resident objects, with an evict-min
//! and a fresh insert into the freed slot every few accesses).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use policysmith_cachesim::rank::{EvictionRank, HeapRank};

const RESIDENTS: u64 = 2_048;
const OPS: usize = 50_000;

/// Deterministic (id, score) op stream: multiplicative-hash ids over a
/// bounded universe (so rescores hit resident objects), varied scores.
fn op_stream() -> Vec<(u64, i64)> {
    (0..OPS)
        .map(|i| {
            let id = (i as u64).wrapping_mul(2654435761) % (RESIDENTS * 2);
            let score = ((i as i64).wrapping_mul(6364136223846793005) >> 13) % 100_000;
            (id, score)
        })
        .collect()
}

/// The engine's half of the contract, cut down to arrays (ids are dense
/// here): one slot per resident id, freed slots reused last-in first-out.
struct Slots {
    of: Vec<u32>,
    free: Vec<u32>,
    issued: u32,
}

impl Slots {
    const NONE: u32 = u32::MAX;

    fn get_or_assign(&mut self, id: u64) -> u32 {
        if self.of[id as usize] == Self::NONE {
            self.of[id as usize] = self.free.pop().unwrap_or_else(|| {
                self.issued += 1;
                self.issued - 1
            });
        }
        self.of[id as usize]
    }

    fn release(&mut self, id: u64) -> u32 {
        let slot = std::mem::replace(&mut self.of[id as usize], Self::NONE);
        self.free.push(slot);
        slot
    }
}

/// Replay the host's op mix: rescore; every 8th op also evict the minimum
/// and insert a fresh id — the miss path.
fn drive<R: EvictionRank>(mut rank: R, ops: &[(u64, i64)]) -> usize {
    let ids = RESIDENTS as usize * 2 + ops.len() / 8 + 1;
    let mut slots = Slots { of: vec![Slots::NONE; ids], free: Vec::new(), issued: 0 };
    for id in 0..RESIDENTS {
        rank.set(slots.get_or_assign(id), id, id as i64);
    }
    let mut next_id = RESIDENTS * 2;
    for (i, &(id, score)) in ops.iter().enumerate() {
        rank.set(slots.get_or_assign(id), id, score);
        if i % 8 == 7 {
            let (_, victim) = rank.peek_min().expect("non-empty");
            rank.remove(slots.release(victim));
            rank.set(slots.get_or_assign(next_id), next_id, score ^ 0x5555);
            next_id += 1;
        }
    }
    rank.len()
}

fn bench_rank(c: &mut Criterion) {
    let ops = op_stream();
    let mut g = c.benchmark_group("rank");
    g.throughput(Throughput::Elements(OPS as u64));
    g.bench_with_input(BenchmarkId::new("host-ops", "heap"), &ops, |b, ops| {
        b.iter(|| drive(HeapRank::new(), ops));
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_rank
}
criterion_main!(benches);
