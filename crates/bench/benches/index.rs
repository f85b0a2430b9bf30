//! Per-position value-index microbench: homomorphism search and Datalog
//! fixpoints on the Figure 1 (phone-directory) schema, indexed vs scan, with
//! the hidden-instance tuple count scaled 1×/4×/16×.
//!
//! The `*_indexed` arms run the default configuration (posting lists built
//! lazily and maintained incrementally); the `*_scan` arms force the
//! scanning fallback — via `ScanView` for the search, via
//! `set_indexing_enabled` for the fixpoint, whose internal instances cannot
//! be wrapped.  Both modes produce byte-identical results by contract, so
//! the ratio is pure evaluation-strategy cost.  Interleaved A/B medians vs
//! the scan-only baseline are recorded in `CHANGES.md`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use accltl_core::prelude::*;
use accltl_core::relational::set_indexing_enabled;

/// A phone-directory-shaped instance scaled by `scale`: `scale` streets, four
/// houses per street, one mobile entry per even house.
fn scaled_instance(scale: usize) -> Instance {
    let mut inst = Instance::new();
    for s in 0..scale {
        let street = format!("Street{s}");
        let postcode = format!("OX{s}QD");
        for h in 0..4usize {
            let name = format!("Resident{s}_{h}");
            inst.add_fact(
                "Address",
                tuple![street.as_str(), postcode.as_str(), name.as_str(), h as i64],
            );
            if h % 2 == 0 {
                inst.add_fact(
                    "Mobile#",
                    tuple![
                        name.as_str(),
                        postcode.as_str(),
                        street.as_str(),
                        5_551_000 + (s * 4 + h) as i64
                    ],
                );
            }
        }
    }
    inst
}

/// A 3-atom join: names with a mobile entry and two address rows on the
/// same street.
fn join_query() -> ConjunctiveQuery {
    cq!([n] <-
        atom!("Mobile#"; n, p, s, ph),
        atom!("Address"; s, p2, n, h),
        atom!("Address"; s, p3, m, h2))
}

/// Recursive same-street reachability: `SameStreet` is a self-join of
/// `Address` (quadratic per street), `Linked` its transitive closure — the
/// Δ-seeded semi-naive rounds join through the incrementally maintained
/// index of the accumulating total.
fn closure_program() -> DatalogProgram {
    DatalogProgram::new(
        vec![
            DatalogRule::new(
                atom!("SameStreet"; n, m),
                vec![atom!("Address"; s, p, n, h), atom!("Address"; s, p2, m, h2)],
            ),
            DatalogRule::new(atom!("Linked"; n, m), vec![atom!("SameStreet"; n, m)]),
            DatalogRule::new(
                atom!("Linked"; n, m),
                vec![atom!("Linked"; n, k), atom!("SameStreet"; k, m)],
            ),
            DatalogRule::new(
                atom!("LinkedGoal"),
                vec![atom!("Linked"; @"Resident0_0", @"Resident0_3")],
            ),
        ],
        "LinkedGoal",
    )
    .expect("rules are safe")
}

fn bench_index(c: &mut Criterion) {
    let mut group = c.benchmark_group("index");
    group.sample_size(20);
    for scale in [1usize, 4, 16] {
        let instance = scaled_instance(scale);
        let join = join_query();
        let program = closure_program();

        group.bench_with_input(BenchmarkId::new("hom_indexed", scale), &scale, |b, _| {
            b.iter(|| join.evaluate(&instance));
        });
        group.bench_with_input(BenchmarkId::new("hom_scan", scale), &scale, |b, _| {
            b.iter(|| join.evaluate(&ScanView(&instance)));
        });

        group.bench_with_input(
            BenchmarkId::new("fixpoint_indexed", scale),
            &scale,
            |b, _| {
                b.iter(|| program.fixpoint(&instance));
            },
        );
        group.bench_with_input(BenchmarkId::new("fixpoint_scan", scale), &scale, |b, _| {
            set_indexing_enabled(false);
            b.iter(|| program.fixpoint(&instance));
            set_indexing_enabled(true);
        });
    }
    group.finish();
}

criterion_group!(benches, bench_index);
criterion_main!(benches);
