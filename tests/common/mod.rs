//! Shared test-util module for the integration-test binaries: the Fig-1
//! phone-directory builders, formula shapes and report digests that
//! `guard_cache_props`, `batch_props`, `pool_props` and `session_props`
//! previously copy-pasted, and the [`with_deadline`] watchdog that the
//! multi-threaded tests run under.  Each binary includes this file via `mod common;`
//! and uses a subset, hence the `dead_code` allowance.
#![allow(dead_code)]

use std::io::Write;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;
use std::time::Duration;

use proptest::prelude::*;

use accltl_core::automata::EmptinessConfig;
use accltl_core::prelude::*;

/// Tests that set `ACCLTL_*` environment variables serialize behind this
/// lock so an A/B comparison never observes another test's flip mid-run.
pub fn flag_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` on the calling thread under a watchdog: if `f` has not returned
/// after `secs` seconds, the watchdog names the test and aborts the test
/// process, so a deadlock fails the run instead of hanging it.  A panic in
/// `f` disarms the watchdog and propagates as usual.
pub fn with_deadline<T>(secs: u64, f: impl FnOnce() -> T) -> T {
    let test = thread::current()
        .name()
        .unwrap_or("<unnamed test>")
        .to_string();
    let (disarm, armed) = mpsc::channel::<()>();
    let watchdog = thread::spawn(move || {
        if armed.recv_timeout(Duration::from_secs(secs)) == Err(RecvTimeoutError::Timeout) {
            // Straight to the stream: the harness's output capture would
            // swallow an `eprintln!` of a test that never finishes.
            let _ = writeln!(
                std::io::stderr(),
                "{test}: still running after its {secs} s deadline; aborting (deadlock?)"
            );
            std::process::abort();
        }
    });
    let result = f();
    drop(disarm);
    watchdog.join().expect("the watchdog never panics");
    result
}

/// The single-threaded engine configuration of a default bounded search
/// (`BoundedSearchConfig::default()` on one thread), with the guard cache on
/// or off.
pub fn search_engine(disable_guard_cache: bool) -> EngineConfig {
    EngineConfig::base().disable_guard_cache(disable_guard_cache)
}

/// The single-threaded engine configuration `bounded_emptiness_batch`
/// derives from `EmptinessConfig::default()`, with the guard cache on or
/// off.
pub fn emptiness_engine(disable_guard_cache: bool) -> EngineConfig {
    EmptinessConfig::default()
        .engine_config(EngineConfig::base())
        .disable_guard_cache(disable_guard_cache)
}

/// The contractual part of a search report: verdict, explored states, cost
/// and the consult *total* (the hit/miss split is explicitly
/// non-contractual — sharing one cache across a batch, or across a session's
/// steps, moves consults from misses to hits without changing their number).
pub fn digest<V: Clone>(report: &SearchReport<V>) -> (V, usize, usize, u64) {
    (
        report.verdict.clone(),
        report.explored,
        report.cost,
        report.cache.total(),
    )
}

/// The digest that must additionally survive *changing* the thread count:
/// verdict, explored states and charged cost.  Consult totals are
/// chunk-structure-dependent (the frontier chunk length scales with the
/// thread count, and every expanded node consults guards even when an
/// earlier chunk neighbour's witness ends the merge early), so they are
/// compared within a thread count, never across.
pub fn core_digest<V: Clone>(report: &SearchReport<V>) -> (V, usize, usize) {
    (report.verdict.clone(), report.explored, report.cost)
}

/// Strategy: a random initial instance over the phone-directory schema.
pub fn random_initial() -> impl Strategy<Value = Instance> {
    proptest::collection::vec(any::<bool>(), 0..3).prop_map(|picks| {
        let mut initial = Instance::new();
        for (i, pick) in picks.into_iter().enumerate() {
            if pick {
                initial.add_fact("Address", tuple!["High St", "OX26NN", "Seed", i as i64]);
            } else {
                initial.add_fact("Mobile#", tuple!["Smith", "OX13QD", "Parks Rd", 5_551_212]);
            }
        }
        initial
    })
}

/// `∃ s p h. Address^post(s, p, "Jones", h)` — Jones's address revealed.
pub fn jones_post() -> AccLtl {
    AccLtl::atom(PosFormula::exists(
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
    ))
}

/// `∃ n p s ph. Mobile#^pre(n, p, s, ph)` — some mobile entry was known
/// before the transition.
pub fn mobile_pre() -> AccLtl {
    AccLtl::atom(PosFormula::exists(
        vec!["n", "p", "s", "ph"],
        pre_atom(
            "Mobile#",
            vec![
                Term::var("n"),
                Term::var("p"),
                Term::var("s"),
                Term::var("ph"),
            ],
        ),
    ))
}

/// The paper's dataflow property: eventually an AcM1 access is bound to a
/// name already revealed in `Address^pre` (binding-aware, so the `IsBind`
/// restriction of the cache keys is genuinely exercised).
pub fn dataflow_formula() -> AccLtl {
    AccLtl::finally(dataflow_atom())
}

/// `∃n. IsBind_AcM1(n) ∧ ∃s p h. Address^pre(s, p, n, h)`: an `AcM1` access
/// bound to a name already revealed on an address page.
pub fn dataflow_atom() -> AccLtl {
    AccLtl::atom(PosFormula::exists(
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
    ))
}

/// Member `k` of the Fig-1 FD + dataflow family (period 6): both `Address`
/// FDs hold throughout while an `AcM1` lookup of an already-revealed
/// resident is pursued, as `F φ` or `¬φ U φ`, deferred by zero to two `X`s.
pub fn fd_dataflow_property(schema: &AccessSchema, k: usize) -> AccLtl {
    let street_to_postcode = properties::functional_dependency_formula(
        schema,
        &FunctionalDependency::new("Address", vec![0], 1),
    );
    let postcode_to_street = properties::functional_dependency_formula(
        schema,
        &FunctionalDependency::new("Address", vec![1], 0),
    );
    let df = dataflow_atom();
    let mut eventuality = if k % 2 == 0 {
        AccLtl::finally(df)
    } else {
        AccLtl::until(AccLtl::not(df.clone()), df)
    };
    for _ in 0..(k / 2) % 3 {
        eventuality = AccLtl::next(eventuality);
    }
    AccLtl::and(vec![street_to_postcode, postcode_to_street, eventuality])
}

/// Strategy: small formulas mixing satisfiable, unsatisfiable and
/// binding-aware shapes over the phone-directory vocabulary.
pub fn random_formula() -> impl Strategy<Value = AccLtl> {
    prop_oneof![
        Just(AccLtl::finally(jones_post())),
        Just(AccLtl::next(mobile_pre())),
        Just(AccLtl::and(vec![
            AccLtl::finally(jones_post()),
            AccLtl::finally(mobile_pre()),
        ])),
        Just(AccLtl::and(vec![
            AccLtl::globally(AccLtl::not(jones_post())),
            AccLtl::finally(jones_post()),
        ])),
        Just(AccLtl::until(
            AccLtl::not(mobile_pre()),
            AccLtl::atom(isbind_prop("AcM2")),
        )),
        Just(dataflow_formula()),
    ]
}

/// The Fig-1 workload scaled: `scale` streets, each with a looked-up mobile
/// entry and four address-page residents (the shape the `overlay`,
/// `guard_cache` and `monitor` benches use).
pub fn scaled_initial(scale: usize) -> Instance {
    let mut hidden = Instance::new();
    for s in 0..scale {
        let street = format!("Street{s}");
        let postcode = format!("OX{s}QD");
        hidden.add_fact(
            "Mobile#",
            tuple![
                format!("Resident{s}_0").as_str(),
                postcode.as_str(),
                street.as_str(),
                5_551_000 + s as i64
            ],
        );
        for h in 0..4usize {
            hidden.add_fact(
                "Address",
                tuple![
                    street.as_str(),
                    postcode.as_str(),
                    format!("Resident{s}_{h}").as_str(),
                    h as i64
                ],
            );
        }
    }
    hidden
}

/// Brute-force reference for a conjunctive query with inequalities: tries
/// every map from the atoms' variables into the view's active domain plus
/// the query's constants, one variable at a time in first-occurrence order,
/// checking each atom by fact lookup as soon as its variables are all
/// mapped.  Uses no homomorphism-search code.  An inequality naming a
/// variable no atom binds is vacuously true, the documented `CQ≠` semantics.
pub fn brute_force_holds(
    atoms: &[Atom],
    inequalities: &[(Term, Term)],
    view: &impl InstanceView,
) -> bool {
    let mut vars: Vec<VarId> = Vec::new();
    for atom in atoms {
        for term in &atom.terms {
            if let Term::Var(v) = term {
                if !vars.contains(v) {
                    vars.push(*v);
                }
            }
        }
    }
    let mut domain = view.view_active_domain();
    for atom in atoms {
        domain.extend(atom.constants());
    }
    for (l, r) in inequalities {
        domain.extend(l.as_const().copied());
        domain.extend(r.as_const().copied());
    }
    let domain: Vec<Value> = domain.into_iter().collect();
    // The atoms that become fully mapped when variable `i` is mapped (atoms
    // without variables are checked up front).
    let last_var = |atom: &Atom| {
        atom.terms
            .iter()
            .filter_map(|t| match t {
                Term::Var(v) => vars.iter().position(|w| w == v),
                Term::Const(_) => None,
            })
            .max()
    };
    let ground = |atom: &Atom, map: &[Value]| -> Tuple {
        atom.terms
            .iter()
            .map(|t| match t {
                Term::Var(v) => map[vars.iter().position(|w| w == v).unwrap()],
                Term::Const(c) => *c,
            })
            .collect()
    };
    if atoms
        .iter()
        .filter(|a| last_var(a).is_none())
        .any(|a| !view.has_fact(a.predicate, &ground(a, &[])))
    {
        return false;
    }
    let resolve = |term: &Term, map: &[Value]| match term {
        Term::Const(c) => Some(*c),
        Term::Var(v) => vars.iter().position(|w| w == v).map(|i| map[i]),
    };
    let mut map: Vec<Value> = Vec::with_capacity(vars.len());
    fn extend(
        map: &mut Vec<Value>,
        n: usize,
        domain: &[Value],
        accept: &dyn Fn(&[Value]) -> bool,
        complete: &dyn Fn(&[Value]) -> bool,
    ) -> bool {
        if map.len() == n {
            return complete(map);
        }
        for value in domain {
            map.push(*value);
            if accept(map) && extend(map, n, domain, accept, complete) {
                return true;
            }
            map.pop();
        }
        false
    }
    let accept = |map: &[Value]| {
        let newest = map.len() - 1;
        atoms
            .iter()
            .filter(|a| last_var(a) == Some(newest))
            .all(|a| view.has_fact(a.predicate, &ground(a, map)))
    };
    let complete = |map: &[Value]| {
        inequalities
            .iter()
            .all(|(l, r)| match (resolve(l, map), resolve(r, map)) {
                (Some(a), Some(b)) => a != b,
                _ => true,
            })
    };
    extend(&mut map, vars.len(), &domain, &accept, &complete)
}
