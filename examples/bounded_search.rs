//! Bounded witness search demo: runs the bounded satisfiability search on a
//! few formulas over the phone-directory schema — under the 0-ary `IsBind`
//! interpretation for the PSPACE row of Table 1, under full bindings for an
//! `AccLTL+` formula — and prints the verdicts and witness paths.
//!
//! The frontier engine behind the search expands one breadth-first layer at
//! a time.  Guard evaluation goes through the
//! per-position value indexes of `relational::index`; setting
//! `ACCLTL_DISABLE_INDEXES=1` falls back to relation scans with byte-identical
//! output (CI diffs that too).  Obligation checks are additionally memoized
//! through the guard-verdict cache of `relational::guard_cache`; setting
//! `ACCLTL_DISABLE_GUARD_CACHE=1` selects the uncached path, again with
//! byte-identical output (CI diffs that as well).  Both variables are read
//! by `EngineConfig::from_env`.
//!
//! Run with `cargo run --example bounded_search`.

use accltl_core::logic::BoundedSearcher;
use accltl_core::prelude::*;

fn report(label: &str, outcome: &SatOutcome) {
    match outcome {
        SatOutcome::Satisfiable { witness } => {
            println!("{label}: satisfiable\n  witness: {witness}");
        }
        SatOutcome::Unsatisfiable => println!("{label}: unsatisfiable"),
        SatOutcome::Unknown { .. } => println!("{label}: unknown (budget exhausted)"),
    }
}

fn main() {
    let schema = phone_directory_access_schema();
    let initial = Instance::new();
    let config = BoundedSearchConfig::default();
    let zero_ary = BoundedSearcher::new(&schema, &initial, true, config);
    let full_bindings = BoundedSearcher::new(&schema, &initial, false, config);

    let jones_post = PosFormula::exists(
        vec!["s", "p", "h"],
        post_atom(
            "Address",
            vec![
                Term::var("s"),
                Term::var("p"),
                Term::constant("Jones"),
                Term::var("h"),
            ],
        ),
    );

    // 1. A satisfiable eventuality (0-ary fragment, PSPACE row of Table 1).
    let eventually_jones = AccLtl::finally(AccLtl::atom(jones_post.clone()));
    report(
        "F [Jones revealed]",
        &zero_ary.run(&eventually_jones).verdict,
    );

    // 2. A contradiction: globally-not conjoined with eventually.
    let contradiction = AccLtl::and(vec![
        AccLtl::globally(AccLtl::not(AccLtl::atom(jones_post.clone()))),
        AccLtl::finally(AccLtl::atom(jones_post)),
    ]);
    report(
        "G ¬[Jones] ∧ F [Jones]",
        &zero_ary.run(&contradiction).verdict,
    );

    // 3. The running dataflow example (AccLTL+): an AcM1 access whose bound
    //    name was previously revealed in Address^pre.
    let dataflow = AccLtl::finally(AccLtl::atom(PosFormula::exists(
        vec!["n"],
        PosFormula::and(vec![
            isbind_atom("AcM1", vec![Term::var("n")]),
            PosFormula::exists(
                vec!["s", "p", "h"],
                pre_atom(
                    "Address",
                    vec![
                        Term::var("s"),
                        Term::var("p"),
                        Term::var("n"),
                        Term::var("h"),
                    ],
                ),
            ),
        ]),
    )));
    report(
        "F [AcM1 bound to a revealed name]",
        &full_bindings.run(&dataflow).verdict,
    );

    // One-shot counter/timing summary, printed only under ACCLTL_STATS=1.
    accltl_core::obs::summary::print_if_enabled();
}
