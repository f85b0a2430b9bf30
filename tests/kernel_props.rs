//! Property tests for the slot-compiled homomorphism kernel
//! (`relational::cq`) and the compiled sentence plans built on it
//! (`relational::ucq`, `relational::inequality`):
//!
//! * `CompiledSentence::holds` and `InequalityCq::holds` agree with a
//!   brute-force reference (`common::brute_force_holds`, no homomorphism
//!   search code) on plain instances, overlays and scan-only views, across
//!   constants, repeated variables, unbound inequality variables,
//!   arity-mismatched tuples, relations above the index cutoff and queries
//!   with more variables than the stack slot buffer holds;
//! * `CompiledSentence::holds_layered` — the root verdict OR a match seeded
//!   by a state or candidate fact — agrees with `CompiledSentence::holds`
//!   on the materialized transition structure (a `TransitionView`), for an empty root, empty
//!   upper layers, upper layers at least as large as the root, structures
//!   sharing one root verdict table, and a root grown twice by
//!   `RootVerdicts::grown`, with and without a consult in between;
//! * `for_each_homomorphism` yields exactly the pinned sequence of
//!   assignments on two fixed instances, one below and one above the index
//!   cutoff.  Every caller that keeps the first match (`find_homomorphism`,
//!   early-stopping enumerations) returns what this order puts first, so
//!   it is part of the kernel's contract.

mod common;

use std::sync::Arc;

use proptest::prelude::*;

use accltl_core::prelude::*;
use accltl_core::relational::cq::{for_each_homomorphism, Assignment};
use accltl_core::relational::{
    CandidateFacts, CompiledSentence, InequalityCq, RootVerdicts, TransitionView, INDEX_CUTOFF,
};

use common::brute_force_holds;

/// A small mixed value domain: integers and interned text, so joins match
/// often and both `Value` variants meet in one column.
fn val(n: i64) -> Value {
    if n < 3 {
        Value::Int(n)
    } else {
        Value::str(format!("kv{n}"))
    }
}

/// Facts over `KR`/`KS`/`KT`, including `KR` triples and `KT` pairs whose
/// arity differs from the atoms' usual arity.
fn random_rows() -> impl Strategy<Value = Vec<(usize, (i64, i64, i64))>> {
    proptest::collection::vec((0usize..6, (0i64..5, 0i64..5, 0i64..5)), 0..40)
}

fn add_row(inst: &mut Instance, (rel, (a, b, c)): (usize, (i64, i64, i64))) {
    let (a, b, c) = (val(a), val(b), val(c));
    match rel {
        0 | 1 => inst.add_fact("KR", Tuple::new(vec![a, b])),
        2 => inst.add_fact("KS", Tuple::new(vec![a, b])),
        3 => inst.add_fact("KT", Tuple::new(vec![a])),
        4 => inst.add_fact("KR", Tuple::new(vec![a, b, c])),
        _ => inst.add_fact("KT", Tuple::new(vec![a, b])),
    };
}

/// The same fact set as a plain instance and as an overlay whose base holds
/// the first half of the rows and whose delta holds the rest.
fn views(rows: &[(usize, (i64, i64, i64))]) -> (Instance, InstanceOverlay) {
    let mut whole = Instance::new();
    let mut base = Instance::new();
    for (i, row) in rows.iter().enumerate() {
        add_row(&mut whole, *row);
        if i < rows.len() / 2 {
            add_row(&mut base, *row);
        }
    }
    let mut overlay = InstanceOverlay::new(Arc::new(base));
    for (rel, tuple) in whole.facts() {
        overlay.push_fact(rel, tuple.clone());
    }
    (whole, overlay)
}

/// A term: one of the variables `v0..v{vars}` or a domain constant.
fn term(pick: usize, n: i64, vars: usize) -> Term {
    if pick < vars {
        Term::var(format!("v{pick}").as_str())
    } else {
        Term::Const(val(n))
    }
}

/// Atoms over five shapes (two of them arity-mismatched) whose terms draw
/// on the variables `v0..v4` and the constants.
fn random_atoms() -> impl Strategy<Value = Vec<Atom>> {
    let atom = (
        0usize..5,
        (
            (0usize..7, 0i64..5),
            (0usize..7, 0i64..5),
            (0usize..7, 0i64..5),
        ),
    )
        .prop_map(|(shape, ((p1, n1), (p2, n2), (p3, n3)))| {
            let (t1, t2, t3) = (term(p1, n1, 5), term(p2, n2, 5), term(p3, n3, 5));
            match shape {
                0 => Atom::new("KR", vec![t1, t2]),
                1 => Atom::new("KS", vec![t1, t2]),
                2 => Atom::new("KT", vec![t1]),
                3 => Atom::new("KR", vec![t1, t2, t3]),
                _ => Atom::new("KT", vec![t1, t2]),
            }
        });
    proptest::collection::vec(atom, 1..5)
}

/// Inequalities over `v0..v6`: `v5` and `v6` never occur in an atom, so
/// they exercise the vacuously true unbound case.
fn random_inequalities() -> impl Strategy<Value = Vec<(Term, Term)>> {
    proptest::collection::vec(((0usize..9, 0i64..5), (0usize..9, 0i64..5)), 0..3).prop_map(
        |pairs| {
            pairs
                .into_iter()
                .map(|((p1, n1), (p2, n2))| (term(p1, n1, 7), term(p2, n2, 7)))
                .collect()
        },
    )
}

/// A disjunct of a generated sentence: atoms, inequalities and (sometimes)
/// one equality.
fn random_disjunct() -> impl Strategy<Value = PosFormula> {
    (random_atoms(), random_inequalities(), (0usize..10, 0i64..5)).prop_map(
        |(atoms, neqs, (p, n))| {
            let mut parts: Vec<PosFormula> = atoms.into_iter().map(PosFormula::atom).collect();
            parts.extend(neqs.into_iter().map(|(l, r)| PosFormula::Neq(l, r)));
            if p < 5 {
                parts.push(PosFormula::Eq(Term::var("v0"), term(p, n, 4)));
            }
            PosFormula::and(parts)
        },
    )
}

fn random_sentence() -> impl Strategy<Value = PosFormula> {
    proptest::collection::vec(random_disjunct(), 1..4).prop_map(PosFormula::or)
}

/// The reference verdict of a sentence: some disjunct of its DNF holds by
/// brute force.
fn reference_sentence(sentence: &PosFormula, view: &impl InstanceView) -> bool {
    sentence
        .clone()
        .existential_closure()
        .to_inequality_union()
        .iter()
        .any(|icq| brute_force_holds(&icq.cq.atoms, &icq.inequalities, view))
}

/// Checks both evaluators against the reference on all four views.
fn check_all_views(rows: &[(usize, (i64, i64, i64))], icq: &InequalityCq, sentence: &PosFormula) {
    let (whole, overlay) = views(rows);
    let compiled = CompiledSentence::compile(sentence);
    let icq_expected = brute_force_holds(&icq.cq.atoms, &icq.inequalities, &whole);
    let sentence_expected = reference_sentence(sentence, &whole);
    assert_eq!(
        icq.holds(&whole),
        icq_expected,
        "InequalityCq on Instance: {icq}"
    );
    assert_eq!(
        icq.holds(&overlay),
        icq_expected,
        "InequalityCq on overlay: {icq}"
    );
    assert_eq!(
        icq.holds(&ScanView(&whole)),
        icq_expected,
        "InequalityCq on ScanView: {icq}"
    );
    assert_eq!(
        icq.holds(&ScanView(&overlay)),
        icq_expected,
        "InequalityCq on ScanView(overlay): {icq}"
    );
    assert_eq!(
        compiled.holds(&whole),
        sentence_expected,
        "sentence on Instance: {sentence}"
    );
    assert_eq!(
        compiled.holds(&overlay),
        sentence_expected,
        "sentence on overlay: {sentence}"
    );
    assert_eq!(
        compiled.holds(&ScanView(&whole)),
        sentence_expected,
        "sentence on ScanView: {sentence}"
    );
    assert_eq!(
        compiled.holds(&ScanView(&overlay)),
        sentence_expected,
        "sentence on ScanView(overlay): {sentence}"
    );
}

/// A chain `KR(v0, v1), KR(v1, v2), …` over `len` variables, closed by
/// `v0 ≠ v{len-1}` and an inequality on a variable no atom binds.
fn chain(len: usize, tail: Option<i64>) -> InequalityCq {
    let mut atoms: Vec<Atom> = (0..len - 1)
        .map(|i| {
            Atom::new(
                "KR",
                vec![
                    Term::var(format!("v{i}").as_str()),
                    Term::var(format!("v{}", i + 1).as_str()),
                ],
            )
        })
        .collect();
    if let Some(n) = tail {
        atoms.push(Atom::new(
            "KT",
            vec![Term::var(format!("v{}", len - 1).as_str())],
        ));
        atoms.push(Atom::new("KR", vec![Term::var("v0"), Term::Const(val(n))]));
    }
    InequalityCq::new(
        ConjunctiveQuery::boolean(atoms),
        vec![
            (Term::var("v0"), Term::var(format!("v{}", len - 1).as_str())),
            (Term::var("unbound"), Term::Const(val(0))),
        ],
    )
}

fn chain_sentence(icq: &InequalityCq) -> PosFormula {
    let mut parts: Vec<PosFormula> = icq.cq.atoms.iter().cloned().map(PosFormula::atom).collect();
    parts.extend(
        icq.inequalities
            .iter()
            .map(|(l, r)| PosFormula::Neq(*l, *r)),
    );
    PosFormula::and(parts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Both evaluators agree with brute force on every view, for random
    /// queries mixing constants, repeated variables, unbound inequality
    /// variables and arity mismatches over relations on both sides of the
    /// index cutoff.
    #[test]
    fn evaluators_match_brute_force(
        rows in random_rows(),
        atoms in random_atoms(),
        neqs in random_inequalities(),
        sentence in random_sentence(),
    ) {
        let icq = InequalityCq::new(ConjunctiveQuery::boolean(atoms), neqs);
        check_all_views(&rows, &icq, &sentence);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Queries with 17 to 24 variables (more than the stack slot buffer
    /// holds) agree with brute force too.
    #[test]
    fn wide_queries_match_brute_force(
        rows in random_rows(),
        len in 17usize..25,
        tail in 0i64..6,
    ) {
        let icq = chain(len, (tail < 5).then_some(tail));
        check_all_views(&rows, &icq, &chain_sentence(&icq));
    }
}

/// The facts of `rows`, as one instance.
fn instance_of(rows: &[(usize, (i64, i64, i64))]) -> Instance {
    let mut inst = Instance::new();
    for row in rows {
        add_row(&mut inst, *row);
    }
    inst
}

/// The parts of a transition structure: `root`, then `state` facts
/// pushed on top, then a candidate's facts (each layer keeps only the facts
/// below it lacks).  A candidate holds its response — facts of one relation
/// — and one further fact, as a search's candidates do: the `candidate`
/// facts of the first relation they name are the response, the first of
/// another relation is the further fact (a `KB()` fact no sentence names
/// when there is none), and the rest join the state's facts.
struct Layered {
    layers: InstanceOverlay,
    response_relation: RelId,
    table: Vec<(RelId, Tuple)>,
    response: Vec<u32>,
    extra: (RelId, Tuple),
}

impl Layered {
    fn view(&self) -> TransitionView<'_> {
        TransitionView::new(
            &self.layers,
            CandidateFacts {
                response_relation: self.response_relation,
                table: &self.table,
                response: &self.response,
                extra_relation: self.extra.0,
                extra: &self.extra.1,
            },
        )
    }
}

fn layered(
    root: &Arc<Instance>,
    state: &[(usize, (i64, i64, i64))],
    candidate: &[(usize, (i64, i64, i64))],
) -> Layered {
    let mut layers = InstanceOverlay::new(Arc::clone(root));
    for (rel, tuple) in instance_of(state).facts() {
        layers.push_fact(rel, tuple.clone());
    }
    let candidate = instance_of(candidate);
    let fresh: Vec<(RelId, Tuple)> = candidate
        .facts()
        .filter(|(rel, tuple)| !layers.contains(*rel, tuple))
        .map(|(rel, tuple)| (rel, tuple.clone()))
        .collect();
    let response_relation = fresh.first().map_or(RelId::new("KR"), |(rel, _)| *rel);
    let mut table = Vec::new();
    let mut extra = None;
    for (rel, tuple) in fresh {
        if rel == response_relation {
            table.push((rel, tuple));
        } else if extra.is_none() {
            extra = Some((rel, tuple));
        } else {
            layers.push_fact(rel, tuple);
        }
    }
    Layered {
        layers,
        response_relation,
        response: (0..table.len() as u32).collect(),
        table,
        extra: extra.unwrap_or_else(|| (RelId::new("KB"), Tuple::default())),
    }
}

/// Checks every sentence's layered verdict on `structure` (whose root
/// `roots` belongs to) against `CompiledSentence::holds` on the
/// materialized structure.
fn check_layered(
    compiled: &[CompiledSentence],
    structure: &Layered,
    roots: &RootVerdicts,
    what: &str,
) {
    let view = structure.view();
    let mut materialized = Instance::new();
    view.each_fact(&mut |rel, tuple| {
        materialized.add_fact(rel, tuple.clone());
    });
    for sentence in compiled {
        assert_eq!(
            sentence.holds_layered(&view, roots),
            sentence.holds(&materialized),
            "{what}: root {} facts, state {}, candidate {}",
            structure.layers.base().fact_count(),
            structure.layers.delta().fact_count(),
            view.candidate().fact_count(),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The layered evaluation agrees with whole-structure evaluation on
    /// every layout of the rows: the rows split at `a <= b` into root,
    /// state and candidate facts; an empty root (the whole-search branch);
    /// an empty state and candidate; upper layers at least as large as the
    /// root; a second candidate over the same state and root verdict table;
    /// and the root grown by the state rows in two steps, each under the
    /// grown table of the table already used on the smaller root, and once
    /// more with no consult between the two growths.
    #[test]
    fn layered_evaluation_matches_the_materialized_structure(
        rows in random_rows(),
        cuts in (0usize..41, 0usize..41),
        sentences in proptest::collection::vec(random_sentence(), 1..4),
    ) {
        let compiled: Vec<CompiledSentence> =
            sentences.iter().map(CompiledSentence::compile).collect();
        let n = rows.len();
        let (a, b) = (cuts.0.min(n), cuts.1.min(n));
        let (a, b) = (a.min(b), a.max(b));

        let root = Arc::new(instance_of(&rows[..a]));
        let roots = RootVerdicts::new();
        check_layered(&compiled, &layered(&root, &rows[a..b], &rows[b..]), &roots, "split");
        let half = b + (n - b) / 2;
        check_layered(
            &compiled,
            &layered(&root, &rows[a..b], &rows[half..]),
            &roots,
            "second candidate",
        );
        check_layered(&compiled, &layered(&root, &[], &rows[a..]), &roots, "no state facts");

        let whole = Arc::new(instance_of(&rows));
        check_layered(&compiled, &layered(&whole, &[], &[]), &RootVerdicts::new(), "no deltas");
        let empty = Arc::new(Instance::new());
        check_layered(&compiled, &layered(&empty, &rows[..a], &rows[a..]), &RootVerdicts::new(), "empty root");
        let third = Arc::new(instance_of(&rows[..n / 3]));
        check_layered(
            &compiled,
            &layered(&third, &rows[n / 3..], &[]),
            &RootVerdicts::new(),
            "deltas at least the root",
        );

        let m = a + (b - a) / 2;
        let once = Arc::new(instance_of(&rows[..m]));
        let once_roots = roots.grown(added_beyond(&root, &rows[a..m]));
        check_layered(&compiled, &layered(&once, &rows[m..b], &rows[b..]), &once_roots, "grown root");
        let twice = Arc::new(instance_of(&rows[..b]));
        let twice_roots = once_roots.grown(added_beyond(&once, &rows[m..b]));
        check_layered(&compiled, &layered(&twice, &[], &rows[b..]), &twice_roots, "root grown twice");
        let unconsulted = roots
            .grown(added_beyond(&root, &rows[a..m]))
            .grown(added_beyond(&once, &rows[m..b]));
        check_layered(
            &compiled,
            &layered(&twice, &[], &rows[b..]),
            &unconsulted,
            "root grown twice, unconsulted in between",
        );
    }
}

/// The facts of `rows` that `root` lacks: what growing `root` by `rows`
/// adds.
fn added_beyond(root: &Instance, rows: &[(usize, (i64, i64, i64))]) -> Instance {
    let mut added = Instance::new();
    for (rel, tuple) in instance_of(rows).facts() {
        if !root.contains(rel, tuple) {
            added.add_fact(rel, tuple.clone());
        }
    }
    added
}

/// Renders an assignment as `var=value` pairs sorted by variable name, so
/// the pin does not depend on intern-id order.
fn render(assignment: &Assignment) -> String {
    let mut pairs: Vec<String> = assignment
        .iter()
        .map(|(v, value)| format!("{v}={value}"))
        .collect();
    pairs.sort();
    pairs.join(" ")
}

fn enumerate(atoms: &[Atom], view: &impl InstanceView, initial: &Assignment) -> Vec<String> {
    let mut out = Vec::new();
    for_each_homomorphism(atoms, view, initial, &mut |assignment| {
        out.push(render(assignment));
        false
    });
    out
}

/// Below the cutoff: every relation has fewer than `INDEX_CUTOFF` tuples,
/// so atoms are taken in static ascending-count order.
fn small_pin_instance() -> Instance {
    let mut inst = Instance::new();
    for (a, b) in [(1, 2), (1, 3), (2, 3), (3, 1), (2, 2)] {
        inst.add_fact("PinR", tuple![a, b]);
    }
    inst.add_fact("PinR", tuple![1, 2, 3]);
    for (a, b) in [(2, "a"), (3, "b"), (1, "a"), (3, "a")] {
        inst.add_fact("PinS", tuple![a, b]);
    }
    inst.add_fact("PinT", tuple!["a"]);
    inst.add_fact("PinT", tuple!["b"]);
    inst
}

/// Above the cutoff: `PinR` and `PinS` have more than `INDEX_CUTOFF`
/// tuples, so atoms are picked by dynamic selectivity.
fn large_pin_instance() -> Instance {
    let mut inst = Instance::new();
    for i in 0..14i64 {
        inst.add_fact("PinR", tuple![i % 5, (i * 3) % 7]);
    }
    for i in 0..11i64 {
        inst.add_fact(
            "PinS",
            tuple![(i * 2) % 7, if i % 3 == 0 { "a" } else { "b" }],
        );
    }
    inst.add_fact("PinT", tuple!["a"]);
    inst.add_fact("PinT", tuple!["b"]);
    inst.add_fact("PinT", tuple![4]);
    inst
}

#[test]
fn small_instance_enumeration_order_is_pinned() {
    let inst = small_pin_instance();
    assert!(["PinR", "PinS", "PinT"]
        .iter()
        .all(|r| inst.relation_size(*r) < INDEX_CUTOFF));
    let atoms = vec![
        atom!("PinR"; x, y),
        atom!("PinS"; y, z),
        atom!("PinT"; z),
        atom!("PinR"; w, x),
    ];
    let got = enumerate(&atoms, &inst, &Assignment::new());
    assert_eq!(got, SMALL_PIN);
    assert_eq!(
        enumerate(&atoms, &ScanView(&inst), &Assignment::new()),
        SMALL_PIN
    );
}

#[test]
fn large_instance_enumeration_order_is_pinned() {
    let inst = large_pin_instance();
    assert!(inst.relation_size("PinR") >= INDEX_CUTOFF);
    assert!(inst.relation_size("PinS") >= INDEX_CUTOFF);
    let atoms = vec![
        atom!("PinR"; x, y),
        atom!("PinS"; y, z),
        atom!("PinT"; z),
        atom!("PinR"; w, x),
        atom!("PinR"; v, @3),
    ];
    let mut initial = Assignment::new();
    initial.insert("w", Value::Int(1));
    initial.insert("extra", Value::str("kept"));
    let got = enumerate(&atoms, &inst, &initial);
    assert_eq!(got, LARGE_PIN);
    assert_eq!(enumerate(&atoms, &ScanView(&inst), &initial), LARGE_PIN);
    let overlay = InstanceOverlay::new(Arc::new(inst));
    assert_eq!(enumerate(&atoms, &overlay, &initial), LARGE_PIN);
}

/// The contractual enumeration order on the small instance.
const SMALL_PIN: &[&str] = &[
    r#"w=1 x=3 y=1 z="a""#,
    r#"w=2 x=3 y=1 z="a""#,
    r#"w=3 x=1 y=2 z="a""#,
    r#"w=1 x=2 y=2 z="a""#,
    r#"w=2 x=2 y=2 z="a""#,
    r#"w=3 x=1 y=3 z="a""#,
    r#"w=1 x=2 y=3 z="a""#,
    r#"w=2 x=2 y=3 z="a""#,
    r#"w=3 x=1 y=3 z="b""#,
    r#"w=1 x=2 y=3 z="b""#,
    r#"w=2 x=2 y=3 z="b""#,
];

/// The contractual enumeration order on the large instance.
const LARGE_PIN: &[&str] = &[
    r#"extra="kept" v=1 w=1 x=3 y=4 z="a""#,
    r#"extra="kept" v=1 w=1 x=4 y=5 z="a""#,
    r#"extra="kept" v=1 w=1 x=4 y=6 z="a""#,
    r#"extra="kept" v=1 w=1 x=3 y=2 z="b""#,
    r#"extra="kept" v=1 w=1 x=3 y=3 z="b""#,
    r#"extra="kept" v=1 w=1 x=3 y=4 z="b""#,
    r#"extra="kept" v=1 w=1 x=4 y=6 z="b""#,
    r#"extra="kept" v=3 w=1 x=3 y=4 z="a""#,
    r#"extra="kept" v=3 w=1 x=4 y=5 z="a""#,
    r#"extra="kept" v=3 w=1 x=4 y=6 z="a""#,
    r#"extra="kept" v=3 w=1 x=3 y=2 z="b""#,
    r#"extra="kept" v=3 w=1 x=3 y=3 z="b""#,
    r#"extra="kept" v=3 w=1 x=3 y=4 z="b""#,
    r#"extra="kept" v=3 w=1 x=4 y=6 z="b""#,
];
