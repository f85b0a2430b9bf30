//! Table 1: the expressiveness matrix (DjC / FD / DF / AccOr per language)
//! and the decidability column, verified with concrete formulas.

use accltl_core::analyzer::Engine;
use accltl_core::automata::accltl_plus_to_automaton;
use accltl_core::prelude::*;

/// Every "Yes" cell of Table 1's application columns is witnessed by a
/// concrete formula built by `properties` that (a) expresses the intended
/// restriction and (b) is accepted by the fragment checker for that row.
#[test]
fn yes_cells_have_witnessing_formulas() {
    let schema = phone_directory_access_schema();
    let disjointness = properties::disjointness_formula_for(
        &schema,
        &DisjointnessConstraint::new("Mobile#", 0, "Address", 0),
    );
    let fd = properties::functional_dependency_formula(
        &schema,
        &FunctionalDependency::new("Mobile#", vec![0], 3),
    );
    let dataflow = properties::dataflow_formula(&schema, "AcM1", 0, "Address", 2);
    let access_order = properties::access_order_formula("AcM2", "AcM1");

    // Row AccLTL+: DjC yes, DF yes, AccOr yes, FD no.
    assert!(belongs(&disjointness, Fragment::BindingPositive));
    assert!(belongs(&dataflow, Fragment::BindingPositive));
    assert!(belongs(&access_order, Fragment::BindingPositive));
    assert!(!belongs(&fd, Fragment::BindingPositive));
    let row = Fragment::BindingPositive.expressiveness();
    assert!(row.disjointness && row.dataflow && row.access_order && !row.functional_dependencies);

    // Row AccLTL(FO∃+0−Acc): DjC yes, AccOr yes, DF no (the dataflow formula
    // needs n-ary IsBind), FD no (needs inequalities).
    assert!(belongs(&disjointness, Fragment::ZeroAry));
    assert!(belongs(&access_order, Fragment::ZeroAry));
    assert!(!belongs(&dataflow, Fragment::ZeroAry));
    assert!(!belongs(&fd, Fragment::ZeroAry));
    let row = Fragment::ZeroAry.expressiveness();
    assert!(row.disjointness && row.access_order && !row.dataflow && !row.functional_dependencies);

    // Row AccLTL(FO∃+,≠0−Acc): additionally FD yes.
    assert!(belongs(&fd, Fragment::ZeroAryWithInequalities));
    assert!(
        Fragment::ZeroAryWithInequalities
            .expressiveness()
            .functional_dependencies
    );

    // Row AccLTL(X): no access-order restrictions (they need U), but DjC/FD
    // still expressible as one-step properties.
    assert!(!access_order.is_x_only());
    assert!(!Fragment::XZeroAry.expressiveness().access_order);

    // Row AccLTL(FO∃+,≠Acc): everything.
    let row = Fragment::FullWithInequalities.expressiveness();
    assert!(row.disjointness && row.functional_dependencies && row.dataflow && row.access_order);
}

fn belongs(formula: &AccLtl, fragment: Fragment) -> bool {
    accltl_core::logic::fragment::belongs_to(formula, fragment)
}

/// The decidability column: the paper's complexity labels per row, and the
/// behaviour of the analyzer on each row (decidable rows return definite
/// verdicts on small inputs; undecidable rows only ever return witnesses or
/// Unknown).
#[test]
fn decidability_column_matches_solver_behaviour() {
    let schema = phone_directory_access_schema();
    let analyzer = AccessAnalyzer::new(schema.clone());

    assert!(!Fragment::Full.is_decidable());
    assert!(!Fragment::FullWithInequalities.is_decidable());
    assert!(Fragment::ZeroAry.is_decidable());
    assert!(Fragment::XZeroAry.is_decidable());
    assert!(Fragment::BindingPositive.is_decidable());
    assert_eq!(Fragment::ZeroAry.complexity(), "PSPACE-complete");
    assert_eq!(Fragment::XZeroAry.complexity(), "ΣP2-complete");
    assert!(Fragment::BindingPositive.complexity().contains("3EXPTIME"));
    assert_eq!(Fragment::Full.complexity(), "undecidable");

    // Decidable rows: a contradiction is reported as unsatisfiable.
    let jones = AccLtl::atom(PosFormula::exists(
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
    ));
    let contradiction = AccLtl::and(vec![
        AccLtl::globally(AccLtl::not(jones.clone())),
        AccLtl::finally(jones.clone()),
    ]);
    assert_eq!(classify(&contradiction), Fragment::ZeroAry);
    assert_eq!(
        analyzer.check_satisfiable(&contradiction).outcome,
        SatOutcome::Unsatisfiable
    );

    // Undecidable row: the analyzer never claims Unsatisfiable, only
    // Satisfiable (with a witness) or Unknown.
    let binding = AccLtl::atom(PosFormula::exists(
        vec!["n"],
        isbind_atom("AcM1", vec![Term::var("n")]),
    ));
    let full_language_contradiction = AccLtl::and(vec![
        AccLtl::globally(AccLtl::not(binding.clone())),
        AccLtl::finally(binding),
    ]);
    assert_eq!(classify(&full_language_contradiction), Fragment::Full);
    let outcome = analyzer
        .check_satisfiable(&full_language_contradiction)
        .outcome;
    assert!(matches!(outcome, SatOutcome::Unknown { .. }));
}

/// One formula per Table 1 row, as `(row, formula)`: the route-agreement
/// test below runs all six through both analyzer entry points.
fn one_formula_per_row(schema: &AccessSchema) -> Vec<(Fragment, AccLtl)> {
    let acm1 = AccLtl::atom(isbind_prop("AcM1"));
    let bound = AccLtl::atom(PosFormula::exists(
        vec!["n"],
        isbind_atom("AcM1", vec![Term::var("n")]),
    ));
    let fd = properties::functional_dependency_formula(
        schema,
        &FunctionalDependency::new("Mobile#", vec![0], 3),
    );
    let jones = AccLtl::atom(PosFormula::exists(
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
    ));
    // Never bind AcM1, yet eventually bind it: Unknown on the full rows.
    let never_bound = AccLtl::globally(AccLtl::not(bound.clone()));
    let contradiction = AccLtl::and(vec![never_bound, AccLtl::finally(bound.clone())]);
    vec![
        (Fragment::XZeroAry, AccLtl::next(acm1.clone())),
        (Fragment::ZeroAry, AccLtl::finally(acm1)),
        (Fragment::ZeroAryWithInequalities, fd.clone()),
        // Unsatisfiable: Jones is never revealed, yet eventually revealed.
        (
            Fragment::BindingPositive,
            AccLtl::and(vec![
                AccLtl::globally(AccLtl::not(jones.clone())),
                AccLtl::finally(AccLtl::and(vec![bound, jones])),
            ]),
        ),
        (Fragment::Full, contradiction.clone()),
        (
            Fragment::FullWithInequalities,
            AccLtl::and(vec![fd, contradiction]),
        ),
    ]
}

/// `monitor` and `check_all` route every fragment alike: at step 0 a
/// monitoring session reports what a one-shot batch check reports, and each
/// report names its Table 1 row's procedure.  The one permitted difference
/// is on the `AccLTL+` row: the session runs the full-binding bounded
/// search, which downgrades the `Unsatisfiable` the automaton pipeline
/// certifies.
#[test]
fn monitor_and_check_all_route_alike() {
    let schema = phone_directory_access_schema();
    let analyzer = AccessAnalyzer::new(schema.clone());
    let rows = one_formula_per_row(&schema);
    let formulas: Vec<AccLtl> = rows.iter().map(|(_, formula)| formula.clone()).collect();

    let reports = analyzer.check_all(&BatchRequest::new(formulas.clone()));
    let session = analyzer.monitor(&formulas);
    let monitored = session.verdicts();

    assert_eq!(reports.len(), rows.len());
    assert_eq!(monitored.len(), rows.len());
    for (index, (fragment, formula)) in rows.iter().enumerate() {
        let (report, verdict) = (&reports[index], &monitored[index]);
        assert_eq!(classify(formula), *fragment, "{formula}");
        assert_eq!(report.fragment, *fragment);
        assert_eq!(session.fragment(index), *fragment);
        let engine = match fragment {
            Fragment::XZeroAry => Engine::XFragment,
            Fragment::ZeroAry | Fragment::ZeroAryWithInequalities => Engine::ZeroFragment,
            Fragment::BindingPositive => Engine::AutomatonPipeline,
            Fragment::Full | Fragment::FullWithInequalities => Engine::BoundedSearch,
        };
        assert_eq!(report.engine, engine, "{fragment}");
        if *fragment == Fragment::BindingPositive {
            assert_eq!(report.outcome, SatOutcome::Unsatisfiable);
            assert!(matches!(verdict, SatOutcome::Unknown { .. }), "{verdict:?}");
        } else {
            assert_eq!(report.outcome, *verdict, "{fragment}");
        }
    }
}

/// The complexity ordering of Table 1 is reflected operationally: on the same
/// underlying question (is the Jones tuple reachable?), the X-fragment
/// procedure explores no more of the witness space than the PSPACE procedure,
/// which in turn handles formulas the automaton pipeline is also correct on.
/// (Absolute timings are the benchmarks' job; this test pins the agreement of
/// the three engines.)
#[test]
fn engines_agree_across_rows() {
    let schema = phone_directory_access_schema();
    let analyzer = AccessAnalyzer::new(schema.clone());
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

    // X fragment: "the first access already reveals Jones".
    let x_version = AccLtl::atom(jones_post.clone());
    // PSPACE fragment: "eventually Jones is revealed".
    let zero_version = AccLtl::finally(AccLtl::atom(jones_post.clone()));
    // AccLTL+ via automata: same property with an explicit binding atom.
    let plus_version = AccLtl::finally(AccLtl::and(vec![
        AccLtl::atom(PosFormula::exists(
            vec!["s", "p"],
            isbind_atom("AcM2", vec![Term::var("s"), Term::var("p")]),
        )),
        AccLtl::atom(jones_post),
    ]));

    let x_report = analyzer.check_satisfiable(&x_version);
    let zero_report = analyzer.check_satisfiable(&zero_version);
    let plus_report = analyzer.check_satisfiable(&plus_version);
    assert!(x_report.is_satisfiable());
    assert!(zero_report.is_satisfiable());
    assert!(plus_report.is_satisfiable());
    assert_eq!(x_report.fragment, Fragment::XZeroAry);
    assert_eq!(zero_report.fragment, Fragment::ZeroAry);
    assert_eq!(plus_report.fragment, Fragment::BindingPositive);
    // The X-fragment witness is a single access; the others may be longer but
    // must be valid paths satisfying their formulas.
    assert_eq!(x_report.witness().unwrap().len(), 1);
    for (report, formula) in [(&zero_report, &zero_version), (&plus_report, &plus_version)] {
        let witness = report.witness().unwrap();
        let zero_ary = report.fragment != Fragment::BindingPositive;
        assert!(formula
            .holds_on_path(witness, &schema, &Instance::new(), zero_ary)
            .unwrap());
    }
}

/// `F(IsBind_AcM1 ∧ ⋀_{i≤k} (Mobile#^post(Smith, OX13QD, Parks Rd, i) ∧
/// ¬Mobile#^pre(Smith, OX13QD, Parks Rd, i)))`: some `AcM1` access reveals
/// `k` fresh `Smith` facts at once.  With `zero_ary` the binding atom is the
/// 0-ary proposition (a `ZeroAry` formula); otherwise it names the binding
/// `Smith` (a `BindingPositive` formula).  Its witness is one `AcM1("Smith")`
/// access returning all `k` facts.
fn wide_response_formula(k: i64, zero_ary: bool) -> AccLtl {
    AccLtl::finally(wide_response_conjunction(k, zero_ary))
}

/// The body of [`wide_response_formula`]: the `AcM1` binding atom and, per
/// `i ≤ k`, a revealed-now and a not-known-before `Mobile#` atom.
fn wide_response_conjunction(k: i64, zero_ary: bool) -> AccLtl {
    let bind = if zero_ary {
        isbind_prop("AcM1")
    } else {
        isbind_atom("AcM1", vec![Term::constant("Smith")])
    };
    let mut conjuncts = vec![AccLtl::atom(bind)];
    for i in 1..=k {
        let fact = || {
            vec![
                Term::constant("Smith"),
                Term::constant("OX13QD"),
                Term::constant("Parks Rd"),
                Term::constant(i),
            ]
        };
        conjuncts.push(AccLtl::atom(post_atom("Mobile#", fact())));
        conjuncts.push(AccLtl::not(AccLtl::atom(pre_atom("Mobile#", fact()))));
    }
    AccLtl::and(conjuncts)
}

/// A witness whose one response is wider than the response-size cap (3 by
/// default) is outside the enumerated witness space, so exhausting that
/// space proves nothing: on both decidable rows the search must answer
/// `Unknown`, never `Unsatisfiable`, while a response within the cap is
/// still found.
#[test]
fn responses_past_the_size_cap_are_never_certified_unsatisfiable() {
    let schema = phone_directory_access_schema();
    let analyzer = AccessAnalyzer::new(schema.clone());
    for (zero_ary, fragment, engine) in [
        (false, Fragment::BindingPositive, Engine::AutomatonPipeline),
        (true, Fragment::ZeroAry, Engine::ZeroFragment),
    ] {
        let within = wide_response_formula(3, zero_ary);
        let report = analyzer.check_satisfiable(&within);
        let SatOutcome::Satisfiable { witness } = &report.outcome else {
            panic!("k = 3, {fragment}: {:?}", report.outcome);
        };
        assert!(within
            .holds_on_path(witness, &schema, &Instance::new(), zero_ary)
            .unwrap());
        for k in [4, 5] {
            let formula = wide_response_formula(k, zero_ary);
            let report = analyzer.check_satisfiable(&formula);
            assert_eq!(report.fragment, fragment, "k = {k}");
            assert_eq!(report.engine, engine, "k = {k}");
            assert_ne!(
                report.outcome,
                SatOutcome::Unsatisfiable,
                "k = {k}, {fragment}"
            );
        }
    }
}

/// `F ∃x. Address^post(x)` names the 4-ary `Address` with one argument.  The
/// zero-ary search finds a path on which it holds, but that path's `AcM2`
/// access carries one input of two, so it fails `AccessPath::validate`.  The
/// analyzer re-validates every witness: it may answer `Satisfiable` only
/// with a valid one, through either entry point.
#[test]
fn invalid_witnesses_are_never_certificates() {
    let schema = phone_directory_access_schema();
    let analyzer = AccessAnalyzer::new(schema.clone());
    let formula = AccLtl::finally(AccLtl::atom(PosFormula::exists(
        vec!["x"],
        post_atom("Address", vec![Term::var("x")]),
    )));
    let single = analyzer.check_satisfiable(&formula);
    let batched = analyzer
        .check_all(&BatchRequest::new(vec![formula.clone(), formula]))
        .into_iter();
    for report in std::iter::once(single).chain(batched) {
        match &report.outcome {
            SatOutcome::Satisfiable { witness } => assert!(
                witness.validate(&schema).is_ok(),
                "invalid witness certified: {witness}"
            ),
            SatOutcome::Unknown { .. } | SatOutcome::Unsatisfiable => {}
        }
    }
}

/// `F(IsBind_AcM1("Z") ∧ Mobile#^post(Z, P, S, 0)) ∧ G ⋀_{i≤n}
/// ¬Mobile#^post(M_i, P, S, i)`: satisfiable by the one access
/// `AcM1("Z") ⇒ {(Z, P, S, 0)}`, with `n + 1` data atoms, the goal's last
/// in sentence order (`Z` sorts after every `M_i`).
fn many_data_atoms_formula(n: i64) -> AccLtl {
    let mobile = |name: &str, phone: i64| {
        post_atom(
            "Mobile#",
            vec![
                Term::constant(name),
                Term::constant("OX13QD"),
                Term::constant("Parks Rd"),
                Term::constant(phone),
            ],
        )
    };
    let goal = AccLtl::and(vec![
        AccLtl::atom(isbind_atom("AcM1", vec![Term::constant("Z")])),
        AccLtl::atom(mobile("Z", 0)),
    ]);
    let never = (1..=n)
        .map(|i| AccLtl::not(AccLtl::atom(mobile(&format!("M{i}"), i))))
        .collect();
    AccLtl::and(vec![
        AccLtl::finally(goal),
        AccLtl::globally(AccLtl::and(never)),
    ])
}

/// The Lemma 4.5 translation enumerates truth assignments over at most 16
/// data and 16 binding atoms.  Past that its automaton accepts only part of
/// the formula's language, so its emptiness proves nothing: the pipeline
/// must never certify such a formula `Unsatisfiable`, while a formula
/// within the limit keeps its certificate-backed verdict.
#[test]
fn formulas_past_the_translation_atom_limit_are_never_certified_unsatisfiable() {
    let schema = phone_directory_access_schema();
    let analyzer = AccessAnalyzer::new(schema.clone());
    for n in [15, 16, 20] {
        let formula = many_data_atoms_formula(n);
        let report = analyzer.check_satisfiable(&formula);
        assert_eq!(report.engine, Engine::AutomatonPipeline, "n = {n}");
        assert_ne!(report.outcome, SatOutcome::Unsatisfiable, "n = {n}");
        if let SatOutcome::Satisfiable { witness } = &report.outcome {
            assert!(formula
                .holds_on_path(witness, &schema, &Instance::new(), false)
                .unwrap());
        }
    }
    let within = analyzer.check_satisfiable(&many_data_atoms_formula(15));
    assert!(matches!(within.outcome, SatOutcome::Satisfiable { .. }));
}

/// 65 atom sentences — more than a `u32` valuation mask has bits — are
/// translated without overflowing a shift, and answered without a
/// certificate.
#[test]
fn translating_more_atoms_than_mask_bits_does_not_panic() {
    let formula = wide_response_conjunction(32, false);
    assert_eq!(formula.atom_sentences().len(), 65);
    let automaton = accltl_plus_to_automaton(&formula);
    assert!(automaton.is_well_formed());
    let report = AccessAnalyzer::new(phone_directory_access_schema()).check_satisfiable(&formula);
    assert_ne!(report.outcome, SatOutcome::Unsatisfiable);
}
