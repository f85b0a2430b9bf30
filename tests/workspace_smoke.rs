//! Canary test for the workspace facade: every name the examples and
//! downstream crates import through `accltl_core::prelude` must keep
//! resolving, and the `cq!`/`atom!`/`tuple!` macros must stay re-exported.
//!
//! A failure here means a manifest or re-export regression, not a logic bug.

use accltl_core::prelude::*;

#[test]
fn prelude_facade_resolves() {
    // Schema + analyzer entry point.
    let schema: AccessSchema = phone_directory_access_schema();
    let analyzer = AccessAnalyzer::new(schema.clone());

    // The re-exported macros build the running-example query.
    let jones: ConjunctiveQuery = cq!(<- atom!("Address"; s, p, @"Jones", h));
    assert_eq!(jones.atoms.len(), 1);

    // Property builders and the satisfiability entry point.
    let formula: AccLtl = properties::eventually_answered_formula(&jones);
    let outcome = analyzer.check_satisfiable(&formula);
    assert!(outcome.is_satisfiable());

    // The automaton layer is reachable through the prelude types.
    let automaton: AAutomaton = accltl_core::automata::accltl_plus_to_automaton(&formula);
    assert!(automaton.state_count > 0);

    // The fragment lattice and the vocabulary helpers resolve.
    let fragment: Fragment = classify(&formula);
    assert!(matches!(
        fragment,
        Fragment::XZeroAry
            | Fragment::ZeroAry
            | Fragment::ZeroAryWithInequalities
            | Fragment::BindingPositive
            | Fragment::Full
            | Fragment::FullWithInequalities
    ));
    let _bind = isbind_atom("AcM1", vec![Term::var("n")]);

    // Workload generation and the relational substrate.
    let workload: Workload = generate_workload(&WorkloadConfig::default());
    assert!(!workload.queries.is_empty());
    let t: Tuple = tuple!["Smith", 1];
    assert_eq!(t.arity(), 2);
    let hidden: Instance = phone_directory_hidden_instance();

    // The index subsystem surfaces through the prelude: the scan wrapper
    // must agree with the (possibly indexed) view, and the knob resolves.
    let wrapped = ScanView(&hidden);
    assert_eq!(
        hidden.count_of("Address".into()),
        wrapped.count_of("Address".into())
    );
    let _ = accltl_core::relational::indexing_enabled();
}

#[test]
fn suite_reexports_match_core() {
    // The root `accltl_suite` library forwards the facade wholesale; examples
    // rely on these module paths.
    let schema = accltl_suite::prelude::phone_directory_access_schema();
    let _ = accltl_suite::analyzer::AccessAnalyzer::new(schema);
}

/// The public analysis types stay `Send + Sync`: the engine no longer asks
/// its oracles for either bound, so this is what keeps a change inside one
/// of them from quietly making the API unshareable across threads.
#[test]
fn public_types_are_send_and_sync() {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<AccessAnalyzer>();
    send_sync::<AnalyzerReport>();
    send_sync::<accltl_core::MonitorSession<'static>>();
    send_sync::<accltl_core::logic::bounded::BoundedSearcher<'static>>();
    send_sync::<accltl_core::logic::bounded::MonitorSession<'static>>();
    send_sync::<accltl_core::relational::GuardCache>();
}
