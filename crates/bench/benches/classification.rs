//! Classification campaigns and the packed GF(2) kernels under them.
//!
//! Two groups:
//!
//! * `classification_campaign` — the end-to-end equivalence-classification
//!   campaign over the classical catalog (the workload of the CI
//!   `classify-smoke` job, at bench-friendly sizes);
//! * `classification_kernels` — the GF(2) kernel suite the classification
//!   decision procedure leans on (rank, kernel, solve, inverse, compose),
//!   run packed (`min_labels::bitmat`) versus the retained scalar baseline
//!   (`min-labels`' `tests/support/scalar.rs`, the reference oracle of its
//!   property tests) on identical random matrix batches. The CI
//!   delta table tracks `packed/<n>` against `scalar/<n>`; the packed path
//!   is expected to stay ≥2× ahead at n = 12.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use min_bench::{configure, BENCH_SEED};
use min_core::classify::classify_subjects;
use min_labels::{mask, BitMatrix, Label};
use min_networks::ClassificationGrid;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

// The suite below uses every kernel but `table`.
#[allow(dead_code)]
#[path = "../../labels/tests/support/scalar.rs"]
mod scalar;

/// Batch size for the kernel suite: enough work per iteration to dwarf the
/// measurement overhead, small enough to stay cache-resident.
const KERNEL_BATCH: usize = 24;

fn random_batch(width: usize, rng: &mut ChaCha8Rng) -> Vec<Vec<Label>> {
    (0..KERNEL_BATCH)
        .map(|_| (0..width).map(|_| rng.gen::<u64>() & mask(width)).collect())
        .collect()
}

/// The packed kernel suite over one batch: rank + kernel + solve + inverse
/// per matrix, plus a composition with the batch neighbour.
///
/// The accumulator folds in only outputs that are *unique* (rank, kernel
/// dimension, solvability, the inverse, the product); kernel generators and
/// particular solutions are algorithm-dependent representatives, so they
/// pass through `black_box` instead.
fn packed_suite(width: usize, batch: &[Vec<Label>], targets: &[Label]) -> u64 {
    let mut acc = 0u64;
    let mats: Vec<BitMatrix> = batch
        .iter()
        .map(|cols| BitMatrix::from_rows(width, cols.clone()))
        .collect();
    for (i, m) in mats.iter().enumerate() {
        acc = acc.wrapping_add(m.rank() as u64);
        acc = acc.wrapping_add(black_box(m.row_relations()).len() as u64);
        acc = acc.wrapping_add(u64::from(
            black_box(m.solve_combination(targets[i])).is_some(),
        ));
        if let Some(inv) = m.combination_inverse() {
            acc ^= inv[0];
        }
        let product = mats[(i + 1) % mats.len()].mul(m);
        acc ^= product.row(0);
    }
    acc
}

/// The identical logical suite through the retained scalar reference path.
fn scalar_suite(width: usize, batch: &[Vec<Label>], targets: &[Label]) -> u64 {
    let mut acc = 0u64;
    for (i, cols) in batch.iter().enumerate() {
        acc = acc.wrapping_add(scalar::rank(width, cols) as u64);
        acc = acc.wrapping_add(black_box(scalar::kernel(width, cols)).len() as u64);
        acc = acc.wrapping_add(u64::from(
            black_box(scalar::solve(width, cols, targets[i])).is_some(),
        ));
        if let Some(inv) = scalar::inverse(width, cols) {
            acc ^= inv[0];
        }
        let next = &batch[(i + 1) % batch.len()];
        let product = scalar::compose(cols, next);
        acc ^= product[0];
    }
    acc
}

fn bench_classification(c: &mut Criterion) {
    let mut group = c.benchmark_group("classification_campaign");
    for &max_stages in &[4usize, 6, 8] {
        let grid = ClassificationGrid::over_catalog(2..=max_stages).with_seed(BENCH_SEED);
        let subjects = grid.subjects();
        group.bench_with_input(
            BenchmarkId::new("catalog", max_stages),
            &subjects,
            |b, subjects| b.iter(|| classify_subjects(black_box(subjects), 1).unwrap()),
        );
    }
    group.finish();

    let mut group = c.benchmark_group("classification_kernels");
    for &width in &[8usize, 12, 16] {
        let mut rng = ChaCha8Rng::seed_from_u64(BENCH_SEED ^ width as u64);
        let batch = random_batch(width, &mut rng);
        let targets: Vec<Label> = (0..KERNEL_BATCH)
            .map(|_| rng.gen::<u64>() & mask(width))
            .collect();
        // The two suites must agree before we time them.
        assert_eq!(
            packed_suite(width, &batch, &targets),
            scalar_suite(width, &batch, &targets),
            "packed and scalar kernel suites diverged at width {width}"
        );
        group.bench_with_input(BenchmarkId::new("packed", width), &batch, |b, batch| {
            b.iter(|| packed_suite(black_box(width), black_box(batch), black_box(&targets)))
        });
        group.bench_with_input(BenchmarkId::new("scalar", width), &batch, |b, batch| {
            b.iter(|| scalar_suite(black_box(width), black_box(batch), black_box(&targets)))
        });
    }
    group.finish();
}

criterion_group! {
    name = group;
    config = configure(Criterion::default());
    targets = bench_classification
}
criterion_main!(group);
