//! Differential property tests for monitoring sessions
//! (`logic::bounded::MonitorSession` / `AccessAnalyzer::monitor`): after
//! every step of a random access/response stream, a session's per-property
//! reports must be *byte-identical* — the same verdicts, the same witnesses,
//! the same explored-state counts and guard-consult totals — to a
//! from-scratch re-run over the grown instance, on 1, 4 and 8 worker
//! threads, with `EngineConfig::disable_session_reuse` and with the
//! `ACCLTL_DISABLE_SESSION_REUSE=1` environment flag.  The session's whole
//! point is reusing caches across steps; these tests prove the reuse is
//! invisible in every contractual counter.

mod common;

use proptest::prelude::*;

use accltl_core::logic::bounded::{BoundedSearcher, MonitorSession};
use accltl_core::obs::metrics;
use accltl_core::paths::DISABLE_SESSION_REUSE_ENV_VAR;
use accltl_core::prelude::*;

use common::{digest, flag_lock, random_formula, random_initial};

/// Strategy: one well-formed access/response step over the phone-directory
/// schema.  Names, streets and response subsets are drawn from small pools
/// so streams repeat accesses (zero-delta steps) as often as they reveal
/// fresh facts.
fn random_step() -> impl Strategy<Value = (Access, Response)> {
    let name = prop_oneof![Just("Jones"), Just("Smith"), Just("Taylor")];
    let mobile = (name, any::<bool>(), any::<bool>()).prop_map(|(name, parks, high)| {
        let access = Access::new("AcM1", tuple![name]);
        let mut response = Response::new();
        if parks {
            response.insert(tuple![name, "OX13QD", "Parks Rd", 5_551_212]);
        }
        if high {
            response.insert(tuple![name, "OX26NN", "High St", 5_552_000]);
        }
        (access, response)
    });
    let address =
        (any::<bool>(), any::<bool>(), any::<bool>()).prop_map(|(parks, jones, smith)| {
            let (street, postcode) = if parks {
                ("Parks Rd", "OX13QD")
            } else {
                ("High St", "OX26NN")
            };
            let access = Access::new("AcM2", tuple![street, postcode]);
            let mut response = Response::new();
            if jones {
                response.insert(tuple![street, postcode, "Jones", "1"]);
            }
            if smith {
                response.insert(tuple![street, postcode, "Smith", "2"]);
            }
            (access, response)
        });
    prop_oneof![mobile, address]
}

/// Strategy: a stream of 1–4 steps.
fn random_stream() -> impl Strategy<Value = Vec<(Access, Response)>> {
    proptest::collection::vec(random_step(), 1..5)
}

/// The contractual digests of a session's current per-property reports.
fn session_digests(session: &MonitorSession<'_>) -> Vec<(SatOutcome, usize, usize, u64)> {
    session.reports().iter().map(digest).collect()
}

/// Asserts the session's reports are byte-identical to a from-scratch batch
/// run over the session's current instance, and that witnesses are genuine.
fn assert_matches_scratch(
    session: &MonitorSession<'_>,
    schema: &AccessSchema,
    zero_ary: bool,
    engine: EngineConfig,
    properties: &[AccLtl],
) {
    let scratch = BoundedSearcher::with_engine_config(schema, session.current(), zero_ary, engine)
        .run_batch(properties);
    let scratch_digests: Vec<_> = scratch.iter().map(digest).collect();
    assert_eq!(
        session_digests(session),
        scratch_digests,
        "session reports diverged from a from-scratch re-run at step {}",
        session.steps()
    );
    for report in session.reports() {
        if let SatOutcome::Satisfiable { witness } = &report.verdict {
            assert!(witness.validate(schema).is_ok());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The foregrounded contract: at every step, on 1/4/8 threads, session
    /// reports equal a from-scratch batch over the grown instance — verdict,
    /// witness, explored count and guard-consult total.
    #[test]
    fn session_steps_match_from_scratch_reruns(
        properties in proptest::collection::vec(random_formula(), 1..4),
        stream in random_stream(),
        initial in random_initial(),
        zero_ary in any::<bool>(),
        threads in prop_oneof![Just(1usize), Just(4), Just(8)],
    ) {
        common::with_deadline(120, || {
            let _guard = flag_lock();
            let schema = phone_directory_access_schema();
            let engine = EngineConfig::base().threads(threads);
            let searcher =
                BoundedSearcher::with_engine_config(&schema, &initial, zero_ary, engine);
            let mut session = searcher.open_session(&properties);
            assert_matches_scratch(&session, &schema, zero_ary, engine, &properties);
            for (access, response) in &stream {
                session.step(access, response).expect("well-formed step");
                assert_matches_scratch(&session, &schema, zero_ary, engine, &properties);
            }
        });
    }

    /// A reusing session and a `disable_session_reuse` session stepped in
    /// lockstep report identical digests after every step (the disabled
    /// session re-runs each step from scratch by construction).
    #[test]
    fn disabled_sessions_are_byte_identical(
        properties in proptest::collection::vec(random_formula(), 1..4),
        stream in random_stream(),
        initial in random_initial(),
        zero_ary in any::<bool>(),
    ) {
        let _guard = flag_lock();
        let schema = phone_directory_access_schema();
        let reusing = EngineConfig::base().threads(1);
        let disabled = reusing.disable_session_reuse(true);
        let reusing_searcher =
            BoundedSearcher::with_engine_config(&schema, &initial, zero_ary, reusing);
        let disabled_searcher =
            BoundedSearcher::with_engine_config(&schema, &initial, zero_ary, disabled);
        let mut session = reusing_searcher.open_session(&properties);
        let mut scratch = disabled_searcher.open_session(&properties);
        prop_assert_eq!(session_digests(&session), session_digests(&scratch));
        for (access, response) in &stream {
            session.step(access, response).expect("well-formed step");
            scratch.step(access, response).expect("well-formed step");
            prop_assert_eq!(
                session_digests(&session),
                session_digests(&scratch),
                "step {} diverged between reuse and scratch mode",
                session.steps()
            );
            prop_assert_eq!(session.current(), scratch.current());
        }
    }

    /// The analyzer front-end: after every step, `MonitorSession::verdicts`
    /// equals what a fresh `AccessAnalyzer::monitor` over the grown instance
    /// reports, the aggregated counters match, and `still_relevant` agrees
    /// with `long_term_relevant` asked from scratch.
    #[test]
    fn analyzer_sessions_match_fresh_monitors(
        properties in proptest::collection::vec(random_formula(), 1..3),
        stream in random_stream(),
        initial in random_initial(),
    ) {
        let _guard = flag_lock();
        let schema = phone_directory_access_schema();
        let mut properties = properties;
        // Exercise every engine group alongside the random formulas: an
        // X-fragment, a zero-ary, a binding-positive and a full-language
        // property (the `check_all` grouping).
        properties.push(AccLtl::next(AccLtl::atom(isbind_prop("AcM1"))));
        properties.push(AccLtl::finally(AccLtl::atom(isbind_prop("AcM1"))));
        properties.push(AccLtl::finally(AccLtl::atom(PosFormula::exists(
            vec!["n"],
            isbind_atom("AcM1", vec![Term::var("n")]),
        ))));
        properties.push(AccLtl::globally(AccLtl::not(AccLtl::atom(
            PosFormula::exists(vec!["n"], isbind_atom("AcM1", vec![Term::var("n")])),
        ))));
        let analyzer = AccessAnalyzer::new(schema.clone()).with_initial(initial);
        let mut session = analyzer.monitor(&properties);
        let query = UnionOfCqs::single(cq!(<- atom!("Mobile#"; @"Jones", p, s, ph)));
        let probe = Access::new("AcM1", tuple!["Jones"]);
        for (access, response) in &stream {
            session.step(access, response).expect("well-formed step");
            let fresh_analyzer =
                AccessAnalyzer::new(schema.clone()).with_initial(session.current().clone());
            let fresh = fresh_analyzer.monitor(&properties);
            prop_assert_eq!(session.verdicts(), fresh.verdicts());
            let (ours, theirs) = (session.last_report(), fresh.last_report());
            prop_assert_eq!(ours.explored, theirs.explored);
            prop_assert_eq!(ours.cost, theirs.cost);
            prop_assert_eq!(ours.guard.total(), theirs.guard.total());
            prop_assert_eq!(
                session.still_relevant(&probe, &query, false),
                fresh_analyzer.long_term_relevant(&probe, &query, false)
            );
        }
    }
}

/// The `ACCLTL_DISABLE_SESSION_REUSE=1` environment flag end-to-end: a
/// session opened under the flag (the config is resolved once, at
/// `open_session`) steps byte-identically to a reusing session on a fixed
/// stream that mixes fresh reveals with zero-delta repeats.
#[test]
fn env_flag_disables_reuse_with_identical_reports() {
    let _guard = flag_lock();
    let schema = phone_directory_access_schema();
    let initial = Instance::new();
    let properties = vec![
        AccLtl::finally(common::jones_post()),
        common::dataflow_formula(),
    ];
    let stream: Vec<(Access, Response)> = vec![
        (
            Access::new("AcM2", tuple!["Parks Rd", "OX13QD"]),
            [tuple!["Parks Rd", "OX13QD", "Jones", "1"]]
                .into_iter()
                .collect(),
        ),
        (
            Access::new("AcM1", tuple!["Jones"]),
            [tuple!["Jones", "OX13QD", "Parks Rd", 5_551_212]]
                .into_iter()
                .collect(),
        ),
        // Zero-delta repeat: the reusing session replays, the disabled one
        // re-runs — reports must still agree.
        (
            Access::new("AcM1", tuple!["Jones"]),
            [tuple!["Jones", "OX13QD", "Parks Rd", 5_551_212]]
                .into_iter()
                .collect(),
        ),
    ];

    let config = BoundedSearchConfig {
        threads: 1,
        ..BoundedSearchConfig::default()
    };
    let searcher = BoundedSearcher::new(&schema, &initial, false, config);
    let mut reusing = searcher.open_session(&properties);

    std::env::set_var(DISABLE_SESSION_REUSE_ENV_VAR, "1");
    let mut disabled = searcher.open_session(&properties);
    std::env::remove_var(DISABLE_SESSION_REUSE_ENV_VAR);

    assert_eq!(session_digests(&reusing), session_digests(&disabled));
    for (access, response) in &stream {
        let report = reusing
            .step(access, response)
            .expect("well-formed step")
            .clone();
        let scratch_report = disabled
            .step(access, response)
            .expect("well-formed step")
            .clone();
        assert_eq!(
            session_digests(&reusing),
            session_digests(&disabled),
            "env-disabled session diverged at step {}",
            disabled.steps()
        );
        // The disabled session never replays (it may still report within-run
        // engine-cache hits as `reused`); the reusing one may replay.
        assert!(!scratch_report.replayed);
        assert_eq!(report.step, scratch_report.step);
    }
    // The zero-delta repeat replayed in reuse mode.
    assert!(reusing.last_report().replayed);
}

/// A fixed 12-step stream over Fig-1 ×8 in the shape of the `monitor-log`
/// benchmark: responses revealing fresh `Mobile#` facts (a predicate the
/// properties' guards never read after the first), fresh `Address` facts
/// (one they do read), and verbatim repeats of earlier steps.
fn monitor_stream() -> Vec<(Access, Response)> {
    let mobile = |j: usize| {
        let name = format!("Caller_{j}");
        let (street, postcode) = (format!("Street{j}"), format!("OX{j}QD"));
        let fact = tuple![
            name.as_str(),
            postcode.as_str(),
            street.as_str(),
            5_560_000 + j as i64
        ];
        (
            Access::new("AcM1", tuple![name.as_str()]),
            [fact].into_iter().collect::<Response>(),
        )
    };
    let address = |j: usize, residents: usize| {
        let (street, postcode) = (format!("NewSt_{j}"), format!("NW_{j}"));
        let response: Response = (0..residents)
            .map(|h| {
                let name = format!("Mover_{j}_{h}");
                tuple![street.as_str(), postcode.as_str(), name.as_str(), h as i64]
            })
            .collect();
        (
            Access::new("AcM2", tuple![street.as_str(), postcode.as_str()]),
            response,
        )
    };
    vec![
        address(0, 1),
        mobile(0),
        address(1, 2),
        mobile(1),
        address(0, 1),
        address(2, 1),
        mobile(2),
        mobile(1),
        address(3, 2),
        mobile(3),
        address(4, 1),
        address(3, 2),
    ]
}

/// Four properties over the phone-directory vocabulary: the benchmark's
/// FD + dataflow shape, an `U`/`X` obligation, Jones's address, and a
/// disjunction of 33 atom sentences — more than the 32 a progression-memo
/// mask can key, so that property progresses without the memo.
fn monitor_properties() -> Vec<AccLtl> {
    let schema = phone_directory_access_schema();
    let fd = properties::functional_dependency_formula(
        &schema,
        &FunctionalDependency::new("Address", vec![0], 1),
    );
    let wide = AccLtl::finally(AccLtl::or(
        (0..33)
            .map(|i| {
                let name = format!("Mover_{}_{}", i % 5, i / 5);
                AccLtl::atom(PosFormula::exists(
                    vec!["s", "p", "h"],
                    pre_atom(
                        "Address",
                        vec![
                            Term::var("s"),
                            Term::var("p"),
                            Term::constant(name.as_str()),
                            Term::var("h"),
                        ],
                    ),
                ))
            })
            .collect(),
    ));
    assert!(wide.atom_sentences().len() > 32);
    vec![
        AccLtl::and(vec![fd, common::dataflow_formula()]),
        AccLtl::and(vec![
            AccLtl::until(
                AccLtl::not(common::mobile_pre()),
                AccLtl::atom(isbind_prop("AcM2")),
            ),
            AccLtl::next(AccLtl::finally(common::jones_post())),
        ]),
        AccLtl::finally(common::jones_post()),
        wide,
    ]
}

/// The monitoring loop of the `monitor-log` benchmark, step by step: a
/// session prepares its properties once, at open, and after every step its
/// reports equal both a from-scratch batch over the grown instance and a
/// `disable_session_reuse` session re-preparing every step.
#[test]
fn monitor_streams_prepare_once_and_match_scratch_every_step() {
    let _guard = flag_lock();
    let schema = phone_directory_access_schema();
    let initial = common::scaled_initial(8);
    let properties = monitor_properties();
    let stream = monitor_stream();
    for zero_ary in [false, true] {
        let reusing = EngineConfig::base().threads(1);
        let disabled = reusing.disable_session_reuse(true);

        // The reusing session alone, so the registry delta is its own.
        let before = metrics::snapshot();
        let mut session = BoundedSearcher::with_engine_config(&schema, &initial, zero_ary, reusing)
            .open_session(&properties);
        let mut digests = vec![session_digests(&session)];
        let mut currents = vec![session.current().clone()];
        let mut replayed = 0;
        for (access, response) in &stream {
            replayed += usize::from(
                session
                    .step(access, response)
                    .expect("well-formed step")
                    .replayed,
            );
            digests.push(session_digests(&session));
            currents.push(session.current().clone());
        }
        let prepared = metrics::snapshot()
            .delta(&before)
            .counter("session.prepared");
        assert_eq!(
            prepared,
            properties.len() as u64,
            "a reusing session prepares each property exactly once"
        );
        // The three verbatim repeats reveal nothing new and replay.
        assert_eq!(replayed, 3);

        let mut scratch =
            BoundedSearcher::with_engine_config(&schema, &initial, zero_ary, disabled)
                .open_session(&properties);
        for (step, (digest, current)) in digests.iter().zip(&currents).enumerate() {
            if step > 0 {
                let (access, response) = &stream[step - 1];
                scratch.step(access, response).expect("well-formed step");
            }
            assert_eq!(scratch.current(), current, "step {step}");
            assert_eq!(
                digest,
                &session_digests(&scratch),
                "step {step} diverged between reuse and scratch mode (zero_ary {zero_ary})"
            );
            let fresh = BoundedSearcher::with_engine_config(&schema, current, zero_ary, reusing)
                .run_batch(&properties);
            assert_eq!(
                digest,
                &fresh.iter().map(common::digest).collect::<Vec<_>>(),
                "step {step} diverged from a from-scratch batch (zero_ary {zero_ary})"
            );
        }
    }
}

/// Invalid steps (unknown method, response violating the binding) error
/// without perturbing the session: the standing verdicts and the current
/// instance are unchanged.
#[test]
fn invalid_steps_leave_the_session_intact() {
    let _guard = flag_lock();
    let schema = phone_directory_access_schema();
    let analyzer = AccessAnalyzer::new(schema);
    let properties = vec![AccLtl::finally(common::jones_post())];
    let mut session = analyzer.monitor(&properties);
    let before_verdicts = session.verdicts();
    let before_instance = session.current().clone();

    let unknown = Access::new("NoSuchMethod", tuple!["Jones"]);
    assert!(session.step(&unknown, &Response::new()).is_err());

    let access = Access::new("AcM1", tuple!["Jones"]);
    let mismatched: Response = [tuple!["NotJones", "OX13QD", "Parks Rd", 5_551_212]]
        .into_iter()
        .collect();
    assert!(session.step(&access, &mismatched).is_err());

    assert_eq!(session.verdicts(), before_verdicts);
    assert_eq!(session.current(), &before_instance);
}
