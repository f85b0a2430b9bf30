//! A-automaton emptiness demo: translates `AccLTL+` formulas to A-automata
//! (Lemma 4.5), runs the bounded product emptiness search (Theorem 4.6) and
//! prints the outcomes and witness paths.
//!
//! The emptiness search runs on the same shared frontier engine as the
//! bounded satisfiability search; `ACCLTL_SEARCH_THREADS` (default 1) selects
//! the worker count without affecting any output — CI runs this example with
//! 1 and 4 threads and diffs the output.  Per-transition guards evaluate
//! through the per-position value indexes of `relational::index`;
//! `ACCLTL_DISABLE_INDEXES=1` selects the scan fallback, again without
//! affecting any output (CI diffs that too).  Guard verdicts are memoized
//! through the cache of `relational::guard_cache`;
//! `ACCLTL_DISABLE_GUARD_CACHE=1` selects the uncached path, once more with
//! byte-identical output (CI diffs that as well).
//!
//! Run with `cargo run --example emptiness`.

use accltl_core::automata::{accltl_plus_to_automaton, bounded_emptiness_report, EmptinessConfig};
use accltl_core::prelude::*;

fn report(label: &str, outcome: &accltl_core::automata::EmptinessOutcome) {
    use accltl_core::automata::EmptinessOutcome;
    match outcome {
        EmptinessOutcome::NonEmpty { witness } => {
            println!("{label}: non-empty\n  witness: {witness}");
        }
        EmptinessOutcome::Empty => println!("{label}: empty"),
        EmptinessOutcome::Unknown => println!("{label}: unknown (budget exhausted)"),
    }
}

fn main() {
    let schema = phone_directory_access_schema();
    let config = EmptinessConfig::default();

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

    // 1. Eventually Jones's address is revealed — non-empty.
    let f = AccLtl::finally(AccLtl::atom(jones_post.clone()));
    let automaton = accltl_plus_to_automaton(&f);
    println!(
        "automaton for F [Jones revealed]: {} states, {} transitions",
        automaton.state_count,
        automaton.transitions.len()
    );
    report(
        "L(A) of F [Jones revealed]",
        &bounded_emptiness_report(&automaton, &schema, &Instance::new(), &config).verdict,
    );

    // 2. The contradiction G ¬[Jones] ∧ F [Jones] — empty.
    let contradiction = AccLtl::and(vec![
        AccLtl::globally(AccLtl::not(AccLtl::atom(jones_post.clone()))),
        AccLtl::finally(AccLtl::atom(jones_post)),
    ]);
    let automaton = accltl_plus_to_automaton(&contradiction);
    report(
        "L(A) of G ¬[Jones] ∧ F [Jones]",
        &bounded_emptiness_report(&automaton, &schema, &Instance::new(), &config).verdict,
    );

    // 3. A hand-built two-stage dataflow automaton: accept once an AcM1
    //    access uses a name already present in Address^pre.
    let mut automaton = AAutomaton::new(2, 0);
    automaton.add_transition(0, Guard::always(), 0);
    automaton.add_transition(
        0,
        Guard::positive(PosFormula::exists(
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
        )),
        1,
    );
    automaton.mark_accepting(1);
    report(
        "L(A) of the dataflow automaton",
        &bounded_emptiness_report(&automaton, &schema, &Instance::new(), &config).verdict,
    );

    // One-shot counter/timing summary, printed only under ACCLTL_STATS=1.
    accltl_core::obs::summary::print_if_enabled();
}
