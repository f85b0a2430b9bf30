//! Ablation of the AccLTL+ decision pipeline (Section 4.1): cost of each
//! stage — formula → A-automaton translation (Lemma 4.5), chain decomposition
//! (Lemma 4.9), emptiness search (Theorem 4.6) — compared with the direct
//! bounded witness search on the same formulas.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use accltl_bench::table1_formula;
use accltl_core::automata::{
    accltl_plus_to_automaton, bounded_emptiness_report, chain_decomposition, EmptinessConfig,
};
use accltl_core::logic::BoundedSearcher;
use accltl_core::prelude::*;

/// The direct bounded witness search under full bindings, on the formula the
/// pipeline translates.
fn direct_search(formula: &AccLtl, schema: &AccessSchema) -> SatOutcome {
    BoundedSearcher::new(
        schema,
        &Instance::new(),
        false,
        BoundedSearchConfig::default(),
    )
    .run(formula)
    .verdict
}

fn print_stage_breakdown() {
    println!("\n=== AccLTL+ pipeline ablation (Section 4.1) ===");
    println!(
        "{:>5} {:>12} {:>12} {:>12} {:>12} {:>14}",
        "size", "translate µs", "decompose µs", "emptiness µs", "direct µs", "automaton size"
    );
    let schema = phone_directory_access_schema();
    for size in 1..=3usize {
        let formula = table1_formula(Fragment::BindingPositive, size);

        let t0 = Instant::now();
        let automaton = accltl_plus_to_automaton(&formula);
        let translate_us = t0.elapsed().as_micros();

        let t1 = Instant::now();
        let chains = chain_decomposition(&automaton);
        let decompose_us = t1.elapsed().as_micros();

        let t2 = Instant::now();
        let outcome = bounded_emptiness_report(
            &automaton,
            &schema,
            &Instance::new(),
            &EmptinessConfig::default(),
        )
        .verdict;
        let emptiness_us = t2.elapsed().as_micros();
        assert!(outcome.is_nonempty());

        let t3 = Instant::now();
        let direct = direct_search(&formula, &schema);
        let direct_us = t3.elapsed().as_micros();
        assert!(direct.is_satisfiable());

        println!(
            "{:>5} {:>12} {:>12} {:>12} {:>12} {:>10} st/{:>2} ch",
            size,
            translate_us,
            decompose_us,
            emptiness_us,
            direct_us,
            automaton.state_count,
            chains.len()
        );
    }
    println!("(translation dominates as formulas grow — the exponential of Lemma 4.5 —\n while the decomposition stays negligible)");
}

fn bench_pipeline(c: &mut Criterion) {
    print_stage_breakdown();
    let schema = phone_directory_access_schema();
    let mut group = c.benchmark_group("pipeline_ablation");
    group.sample_size(10);
    for size in [1usize, 2, 3] {
        let formula = table1_formula(Fragment::BindingPositive, size);
        let automaton = accltl_plus_to_automaton(&formula);
        group.bench_with_input(BenchmarkId::new("translate", size), &size, |b, _| {
            b.iter(|| accltl_plus_to_automaton(&formula).state_count);
        });
        group.bench_with_input(BenchmarkId::new("decompose", size), &size, |b, _| {
            b.iter(|| chain_decomposition(&automaton).len());
        });
        group.bench_with_input(BenchmarkId::new("emptiness", size), &size, |b, _| {
            b.iter(|| {
                bounded_emptiness_report(
                    &automaton,
                    &schema,
                    &Instance::new(),
                    &EmptinessConfig::default(),
                )
                .verdict
                .is_nonempty()
            });
        });
        group.bench_with_input(BenchmarkId::new("direct_search", size), &size, |b, _| {
            b.iter(|| direct_search(&formula, &schema).is_satisfiable());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
