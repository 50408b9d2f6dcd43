//! E13 / ablation — the two independence checkers.
//!
//! Compares the definitional `O(N²)` check (`naive`), the packed `O(N)`
//! check (`basis`, the id of the retired basis-vector checker it replaced)
//! and the affine-form extraction on the stages of the Omega network and on
//! random proper independent connections.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use min_bench::{configure, BENCH_SEED, SMALL_STAGE_SWEEP, STAGE_SWEEP};
use min_core::affine_form::{affine_form, random_proper_independent_connection};
use min_core::independence::{is_independent, is_independent_naive};
use min_core::pipid::connection_from_pipid;
use min_labels::IndexPermutation;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn bench_independence(c: &mut Criterion) {
    let mut group = c.benchmark_group("independence_check");
    for &n in STAGE_SWEEP {
        let theta = IndexPermutation::perfect_shuffle(n);
        let conn = connection_from_pipid(&theta).connection;
        group.bench_with_input(BenchmarkId::new("basis", n), &conn, |b, conn| {
            b.iter(|| is_independent(std::hint::black_box(conn)))
        });
        group.bench_with_input(BenchmarkId::new("affine_form", n), &conn, |b, conn| {
            b.iter(|| affine_form(std::hint::black_box(conn)).is_some())
        });
    }
    for &n in SMALL_STAGE_SWEEP {
        let theta = IndexPermutation::perfect_shuffle(n);
        let conn = connection_from_pipid(&theta).connection;
        group.bench_with_input(BenchmarkId::new("naive", n), &conn, |b, conn| {
            b.iter(|| is_independent_naive(std::hint::black_box(conn)))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("independence_random_proper");
    let mut rng = ChaCha8Rng::seed_from_u64(BENCH_SEED);
    for &n in STAGE_SWEEP {
        let conn = random_proper_independent_connection(n - 1, true, &mut rng);
        group.bench_with_input(BenchmarkId::new("basis", n), &conn, |b, conn| {
            b.iter(|| is_independent(std::hint::black_box(conn)))
        });
    }
    group.finish();
}

criterion_group! {
    name = group;
    config = configure(Criterion::default());
    targets = bench_independence
}
criterion_main!(group);
