//! Property tests for the bounded chase: on random instances and random
//! FD/IND/disjointness sets — including runs whose FD repairs equate
//! labelled nulls across relations — a completed chase satisfies every
//! constraint, re-chasing its result is a fixpoint, and no null-free input
//! fact is lost.  A pinned table of fixed cases guards the exact repair
//! sequences: outcomes, instances and fresh-null names.

use proptest::prelude::*;

use accltl_core::prelude::*;
use accltl_core::relational::chase::{chase_with_stats, ChaseConfig, ChaseOutcome, ChaseStats};
use accltl_core::relational::{
    Constraint, DisjointnessConstraint, FunctionalDependency, InclusionDependency,
};

/// The step budget of the property chases (keeps divergent IND cycles
/// bounded).
const MAX_STEPS: usize = 200;

/// The step budget of the pinned chases (keeps exhausted instances short).
const PIN_STEPS: usize = 12;

/// The value pool: three constants and two labelled nulls (nulls make FD
/// repairs take the equate path instead of hard-failing).
fn pool_value(i: usize) -> Value {
    match i % 5 {
        0 => Value::str("a"),
        1 => Value::str("b"),
        2 => Value::str("c"),
        3 => Value::labelled_null(1),
        _ => Value::labelled_null(2),
    }
}

/// An instance over two binary relations `R` and `S` and a unary relation
/// `U`, from `(relation, value, value)` draws.
fn build_instance(facts: Vec<(usize, Value, Value)>) -> Instance {
    let mut inst = Instance::new();
    for (rel, v1, v2) in facts {
        match rel {
            0 => inst.add_fact("R", Tuple::new(vec![v1, v2])),
            1 => inst.add_fact("S", Tuple::new(vec![v1, v2])),
            _ => inst.add_fact("U", Tuple::new(vec![v1])),
        };
    }
    inst
}

/// An FD on a binary relation, in either direction.
fn fd_shape(on_r: bool, flip: bool) -> Constraint {
    let rel = if on_r { "R" } else { "S" };
    let (lhs, rhs) = if flip { (vec![1], 0) } else { (vec![0], 1) };
    Constraint::Fd(FunctionalDependency::new(rel, lhs, rhs))
}

/// An IND between the binary relations or into the unary one.
fn ind_shape(shape: usize) -> Constraint {
    match shape % 4 {
        0 => Constraint::Ind(InclusionDependency::new("R", vec![0], "S", vec![0])),
        1 => Constraint::Ind(InclusionDependency::new("S", vec![1], "R", vec![1])),
        2 => Constraint::Ind(InclusionDependency::new("R", vec![0, 1], "S", vec![0, 1])),
        _ => Constraint::Ind(InclusionDependency::new("R", vec![1], "U", vec![0])),
    }
}

/// The one disjointness (denial) constraint.
fn disjoint_shape() -> Constraint {
    Constraint::Disjoint(DisjointnessConstraint::new("R", 0, "S", 1))
}

/// Strategy: a value drawn from the pool.
fn small_value() -> impl Strategy<Value = Value> {
    (0usize..5).prop_map(pool_value)
}

/// Strategy: a random instance of up to seven facts.
fn random_instance() -> impl Strategy<Value = Instance> {
    proptest::collection::vec((0usize..3, small_value(), small_value()), 0..8)
        .prop_map(build_instance)
}

/// Strategy: a random constraint over the `R`/`S`/`U` vocabulary.
fn random_constraint() -> impl Strategy<Value = Constraint> {
    prop_oneof![
        (any::<bool>(), any::<bool>()).prop_map(|(on_r, flip)| fd_shape(on_r, flip)),
        (0usize..4).prop_map(ind_shape),
        Just(disjoint_shape()),
    ]
}

fn chase(
    inst: &Instance,
    constraints: &[Constraint],
    max_steps: usize,
) -> (ChaseOutcome, ChaseStats) {
    chase_with_stats(inst, constraints, &ChaseConfig { max_steps })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The chase's contract: a completed result satisfies every constraint
    /// and chases to itself, and every input fact without a labelled null
    /// survives (FD merges only ever rewrite nulls; IND repairs only add).
    #[test]
    fn chase_result_is_a_repair_and_a_fixpoint(
        inst in random_instance(),
        constraints in proptest::collection::vec(random_constraint(), 0..5),
    ) {
        let (outcome, stats) = chase(&inst, &constraints, MAX_STEPS);
        let result = match &outcome {
            ChaseOutcome::Completed(result) => {
                prop_assert_eq!(stats.violation_checks, stats.passes * constraints.len());
                prop_assert!(constraints.iter().all(|c| c.satisfied(result)));
                let again = chase(result, &constraints, MAX_STEPS).0;
                prop_assert_eq!(again, ChaseOutcome::Completed(result.clone()));
                Some(result)
            }
            ChaseOutcome::BudgetExhausted(result) => Some(result),
            ChaseOutcome::Failed { violated } => {
                prop_assert!(constraints.contains(violated));
                None
            }
        };
        if let Some(result) = result {
            for (rel, tuple) in inst.facts() {
                if !tuple.values().iter().any(Value::is_labelled_null) {
                    prop_assert!(result.contains(rel, tuple), "lost {}{}", rel, tuple);
                }
            }
        }
    }
}

/// One line per case: the outcome (kind plus instance or violated
/// constraint, facts joined by `; `) and the repair counters.
fn render(outcome: &ChaseOutcome, stats: &ChaseStats) -> String {
    let one_line = |inst: &Instance| inst.to_string().replace('\n', "; ");
    let body = match outcome {
        ChaseOutcome::Completed(inst) => format!("completed {}", one_line(inst)),
        ChaseOutcome::BudgetExhausted(inst) => format!("exhausted {}", one_line(inst)),
        ChaseOutcome::Failed { violated } => format!("failed {violated}"),
    };
    format!(
        "{body} | passes={} checks={} fd_merges={} ind_additions={}",
        stats.passes, stats.violation_checks, stats.fd_merges, stats.ind_additions
    )
}

/// The `case`-th pinned input: a splitmix64 stream over the same pools the
/// strategies draw from.
fn pinned_case(case: u64) -> (Instance, Vec<Constraint>) {
    let mut state = case.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5eed;
    let mut next = move |bound: usize| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % bound as u64) as usize
    };
    let facts = (0..2 + next(6))
        .map(|_| (next(3), pool_value(next(5)), pool_value(next(5))))
        .collect();
    // FDs are drawn twice as often as the strategies draw them: their null
    // merges are the repairs most worth pinning.
    let constraints = (0..1 + next(4))
        .map(|_| match next(4) {
            0 | 1 => fd_shape(next(2) == 0, next(2) == 0),
            2 => ind_shape(next(4)),
            _ => disjoint_shape(),
        })
        .collect();
    (build_instance(facts), constraints)
}

/// Outcomes and repair counters of the first twenty pinned cases, byte for
/// byte: any change to the repair order or to fresh-null naming shows here.
const PINNED: &[&str] = &[
    r#"completed R("a", "b"); R("b", "a"); S("b", "⊥n2"); U("a"); U("b") | passes=2 checks=2 fd_merges=1 ind_additions=0"#,
    r#"completed R("a", "⊥n1"); R("b", "a"); S("a", "a"); S("a", "c"); S("a", "⊥n1"); S("b", "a"); S("b", "c"); U("a"); U("⊥n1") | passes=3 checks=6 fd_merges=0 ind_additions=4"#,
    r#"completed R("c", "⊥n2"); R("⊥n2", "c"); S("c", "c"); S("⊥n2", "⊥n2") | passes=2 checks=6 fd_merges=1 ind_additions=0"#,
    r#"completed R("c", "a"); R("⊥n3", "⊥n2"); S("⊥n2", "⊥n2"); U("b") | passes=2 checks=2 fd_merges=0 ind_additions=1"#,
    r#"failed S: 2 → 1 | passes=1 checks=1 fd_merges=0 ind_additions=0"#,
    r#"completed R("b", "c"); U("c") | passes=1 checks=1 fd_merges=0 ind_additions=0"#,
    r#"failed R: 1 → 2 | passes=1 checks=1 fd_merges=0 ind_additions=0"#,
    r#"completed R("c", "⊥n2"); S("c", "⊥n2"); S("⊥n1", "⊥n1") | passes=1 checks=1 fd_merges=0 ind_additions=0"#,
    r#"exhausted R("a", "b"); R("⊥n4", "⊥n3"); R("⊥n9", "⊥n1"); R("⊥n14", "⊥n8"); R("⊥n19", "⊥n13"); R("⊥n24", "⊥n18"); S("a", "⊥n3"); S("⊥n1", "⊥n1"); S("⊥n4", "⊥n8"); S("⊥n9", "⊥n13"); S("⊥n14", "⊥n18"); S("⊥n19", "⊥n23"); U("b"); U("⊥n1"); U("⊥n3"); U("⊥n8"); U("⊥n13"); U("⊥n18") | passes=5 checks=20 fd_merges=0 ind_additions=15"#,
    r#"completed R("a", "a"); S("b", "b") | passes=1 checks=2 fd_merges=0 ind_additions=0"#,
    r#"completed R("c", "⊥n2"); R("⊥n2", "b"); S("c", "⊥n1"); S("⊥n2", "a"); U("b"); U("⊥n1"); U("⊥n2") | passes=2 checks=6 fd_merges=0 ind_additions=1"#,
    r#"completed S("b", "c"); S("c", "b"); U("b"); U("c"); U("⊥n1") | passes=1 checks=3 fd_merges=0 ind_additions=0"#,
    r#"failed R: 2 → 1 | passes=1 checks=1 fd_merges=0 ind_additions=0"#,
    r#"failed R: 2 → 1 | passes=1 checks=2 fd_merges=0 ind_additions=1"#,
    r#"completed S("c", "⊥n2"); U("b"); U("⊥n1") | passes=1 checks=3 fd_merges=0 ind_additions=0"#,
    r#"completed R("a", "c"); R("⊥n1", "⊥n1") | passes=1 checks=4 fd_merges=0 ind_additions=0"#,
    r#"completed R("a", "⊥n1"); R("⊥n1", "b"); R("⊥n2", "b"); U("⊥n1"); U("⊥n2") | passes=1 checks=2 fd_merges=0 ind_additions=0"#,
    r#"completed R("c", "⊥n1"); S("b", "⊥n2"); U("b"); U("⊥n2") | passes=1 checks=2 fd_merges=0 ind_additions=0"#,
    r#"failed R[1] ∩ S[2] = ∅ | passes=1 checks=4 fd_merges=0 ind_additions=1"#,
    r#"completed R("a", "⊥n1"); R("b", "c"); U("b") | passes=1 checks=4 fd_merges=0 ind_additions=0"#,
];

#[test]
fn pinned_chase_outcomes_are_stable() {
    let rendered: Vec<String> = (0..PINNED.len() as u64)
        .map(|case| {
            let (inst, constraints) = pinned_case(case);
            let (outcome, stats) = chase(&inst, &constraints, PIN_STEPS);
            render(&outcome, &stats)
        })
        .collect();
    assert_eq!(rendered, PINNED);
}
