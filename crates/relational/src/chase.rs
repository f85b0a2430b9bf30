//! The chase procedure for functional and inclusion dependencies.
//!
//! The chase is used (a) to decide implication of dependencies on concrete,
//! terminating inputs — the ground truth against which the paper's
//! undecidability gadgets (Theorems 3.1, 5.2, 5.3) are tested — and (b) to
//! repair instances against inclusion dependencies when generating
//! constraint-satisfying workloads for the benchmarks.
//!
//! Because the implication problem for FDs + inclusion dependencies is
//! undecidable, the chase here is *bounded*: it runs for at most a configured
//! number of steps and reports honestly when the budget is exhausted.
//!
//! Each pass walks the constraint list in order and applies at most one
//! repair per constraint: the first violation in tuple order, found by
//! [`FunctionalDependency::find_violation`] /
//! [`InclusionDependency::find_violation`].  FD merges rewrite the merged
//! null everywhere with [`Instance::map_values`]; IND repairs add one target
//! tuple padded with fresh labelled nulls.  The repair sequence — and so the
//! outcome, the instance and the fresh-null names — is a function of the
//! input instance and the constraint order alone.

use std::collections::BTreeMap;

use accltl_obs::{json::JsonObject, metrics, trace};

use crate::constraints::{Constraint, FunctionalDependency, InclusionDependency};
use crate::instance::Instance;
use crate::symbols::RelId;
use crate::tuple::Tuple;
use crate::value::Value;

/// Configuration for the bounded chase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaseConfig {
    /// Maximum number of chase steps (tuple additions or equations) applied
    /// before giving up.
    pub max_steps: usize,
}

impl ChaseConfig {
    /// The baseline configuration.
    #[must_use]
    pub fn base() -> Self {
        ChaseConfig { max_steps: 10_000 }
    }
}

impl Default for ChaseConfig {
    fn default() -> Self {
        ChaseConfig::base()
    }
}

/// Work counters for one chase run, in the mould of the engine's
/// `EngineCacheStats`: pure observability, never consulted by the procedure
/// itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaseStats {
    /// Passes over the constraint list.
    pub passes: usize,
    /// Constraint checks performed (one per constraint per pass).
    pub violation_checks: usize,
    /// Tuples examined while looking for violations: the sizes of the
    /// relations each check walks.
    pub tuples_rescanned: usize,
    /// FD repairs applied (value merges).
    pub fd_merges: usize,
    /// IND repairs applied (fresh target tuples).
    pub ind_additions: usize,
}

impl ChaseStats {
    /// Total repairs applied (FD merges plus IND additions).
    #[must_use]
    pub fn repairs(&self) -> usize {
        self.fd_merges + self.ind_additions
    }

    /// Renders the counters as a single-line JSON object (the
    /// machine-readable half of the run-report surface; key order is
    /// stable).
    #[must_use]
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .num("passes", self.passes as u64)
            .num("violation_checks", self.violation_checks as u64)
            .num("tuples_rescanned", self.tuples_rescanned as u64)
            .num("fd_merges", self.fd_merges as u64)
            .num("ind_additions", self.ind_additions as u64)
            .build()
    }
}

/// The result of running the bounded chase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaseOutcome {
    /// The chase terminated; the returned instance satisfies every FD and
    /// inclusion dependency in the input (disjointness constraints are not
    /// repaired — see [`ChaseOutcome::Failed`]).
    Completed(Instance),
    /// The chase failed: an FD required equating two distinct non-null
    /// constants, or a disjointness constraint was violated (denial
    /// constraints cannot be repaired).
    Failed {
        /// The constraint that caused the failure.
        violated: Constraint,
    },
    /// The step budget ran out before reaching a fixpoint (the instance built
    /// so far is returned for inspection).
    BudgetExhausted(Instance),
}

impl ChaseOutcome {
    /// The instance produced, if the chase terminated successfully.
    #[must_use]
    pub fn completed(self) -> Option<Instance> {
        match self {
            ChaseOutcome::Completed(inst) => Some(inst),
            _ => None,
        }
    }
}

/// Runs the bounded chase of `instance` with `constraints`.
#[must_use]
pub fn chase(
    instance: &Instance,
    constraints: &[Constraint],
    config: &ChaseConfig,
) -> ChaseOutcome {
    chase_with_stats(instance, constraints, config).0
}

/// Runs the bounded chase and reports its work counters.
#[must_use]
pub fn chase_with_stats(
    instance: &Instance,
    constraints: &[Constraint],
    config: &ChaseConfig,
) -> (ChaseOutcome, ChaseStats) {
    let _run_span = trace::span_fields("chase.run", &[("constraints", constraints.len() as u64)]);
    let mut stats = ChaseStats::default();
    let outcome = repair_passes(instance, constraints, config, &mut stats);
    metrics::add("chase.runs", 1);
    metrics::add("chase.passes", stats.passes as u64);
    metrics::add("chase.violation_checks", stats.violation_checks as u64);
    metrics::add("chase.tuples_rescanned", stats.tuples_rescanned as u64);
    metrics::add("chase.fd_merges", stats.fd_merges as u64);
    metrics::add("chase.ind_additions", stats.ind_additions as u64);
    trace::event(
        "chase.report",
        &[
            ("passes", stats.passes as u64),
            ("violation_checks", stats.violation_checks as u64),
            ("tuples_rescanned", stats.tuples_rescanned as u64),
            ("fd_merges", stats.fd_merges as u64),
            ("ind_additions", stats.ind_additions as u64),
        ],
    );
    (outcome, stats)
}

/// The repair loop: passes over the constraint list until one changes
/// nothing, a constraint fails, or the step budget runs out.
fn repair_passes(
    instance: &Instance,
    constraints: &[Constraint],
    config: &ChaseConfig,
    stats: &mut ChaseStats,
) -> ChaseOutcome {
    let mut current = instance.clone();
    let mut null_counter = next_null_id(&current);
    let mut steps = 0usize;

    loop {
        if steps > config.max_steps {
            return ChaseOutcome::BudgetExhausted(current);
        }
        stats.passes += 1;
        let _pass_span = trace::span_fields("chase.pass", &[("pass", stats.passes as u64)]);
        let mut changed = false;

        for constraint in constraints {
            stats.violation_checks += 1;
            match constraint {
                Constraint::Fd(fd) => {
                    stats.tuples_rescanned += current.relation_size(fd.relation);
                    if let Some((t1, t2)) = fd.find_violation(&current) {
                        let v1 = t1.get(fd.rhs).copied().expect("validated position");
                        let v2 = t2.get(fd.rhs).copied().expect("validated position");
                        match equate(v1, v2) {
                            Some((from, to)) => {
                                current = current.map_values(|v| if *v == from { to } else { *v });
                                stats.fd_merges += 1;
                                changed = true;
                                steps += 1;
                            }
                            None => {
                                return ChaseOutcome::Failed {
                                    violated: constraint.clone(),
                                };
                            }
                        }
                    }
                }
                Constraint::Ind(ind) => {
                    stats.tuples_rescanned +=
                        current.relation_size(ind.source) + current.relation_size(ind.target);
                    if let Some(src_tuple) = ind.find_violation(&current) {
                        let repair = ind_repair_tuple(&current, ind, &src_tuple, &mut null_counter);
                        current.add_fact(ind.target, repair);
                        stats.ind_additions += 1;
                        changed = true;
                        steps += 1;
                    }
                }
                Constraint::Disjoint(dc) => {
                    stats.tuples_rescanned +=
                        current.relation_size(dc.left.0) + current.relation_size(dc.right.0);
                    if !dc.satisfied(&current) {
                        return ChaseOutcome::Failed {
                            violated: constraint.clone(),
                        };
                    }
                }
            }
        }

        if !changed {
            return ChaseOutcome::Completed(current);
        }
    }
}

/// Builds the repair tuple for an IND violation: the target arity is taken
/// from the first target tuple (or the highest target position), every
/// position gets a fresh labelled null — the counter advances for *every*
/// position, covered or not, which pins the null-naming sequence — and the
/// covered positions are then overwritten with the source's values.
fn ind_repair_tuple(
    current: &Instance,
    ind: &InclusionDependency,
    src_tuple: &Tuple,
    null_counter: &mut u64,
) -> Tuple {
    let covered = ind.target_positions.iter().max().map_or(0, |m| m + 1);
    let target_arity = current
        .tuples(ind.target)
        .next()
        .map_or(covered, |t| t.arity().max(covered));
    let mut values: Vec<Value> = (0..target_arity)
        .map(|_| {
            *null_counter += 1;
            Value::labelled_null(*null_counter)
        })
        .collect();
    for (sp, tp) in ind.source_positions.iter().zip(&ind.target_positions) {
        if let Some(v) = src_tuple.get(*sp) {
            values[*tp] = *v;
        }
    }
    Tuple::new(values)
}

/// Decides which of two values should be rewritten into the other.
///
/// Returns `Some((from, to))` meaning "replace `from` by `to` everywhere", or
/// `None` if both are distinct non-null constants (a hard failure).
fn equate(v1: Value, v2: Value) -> Option<(Value, Value)> {
    match (v1.is_labelled_null(), v2.is_labelled_null()) {
        (true, _) => Some((v1, v2)),
        (false, true) => Some((v2, v1)),
        (false, false) => None,
    }
}

fn next_null_id(instance: &Instance) -> u64 {
    let mut max = 0u64;
    for value in instance.active_domain() {
        if let Value::Null(id) = value {
            max = max.max(id);
        }
    }
    max
}

/// Result of a bounded implication test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Implication {
    /// The dependency is implied.
    Implied,
    /// The dependency is not implied (the chase produced a counter-model).
    NotImplied,
    /// The bounded chase could not settle the question within its budget.
    Unknown,
}

/// Bounded test of whether `sigma` (an FD) is implied by `constraints`
/// (FDs and inclusion dependencies) using the classical two-tuple chase.
///
/// Used as the ground-truth oracle when exercising the paper's
/// undecidability gadgets on concrete dependency sets for which the chase
/// terminates.
#[must_use]
pub fn implies_fd(
    constraints: &[Constraint],
    sigma: &FunctionalDependency,
    arities: &BTreeMap<RelId, usize>,
    config: &ChaseConfig,
) -> Implication {
    let Some(&arity) = arities.get(&sigma.relation) else {
        return Implication::Unknown;
    };
    // Build the canonical two-tuple instance: two tuples over fresh nulls that
    // agree exactly on the LHS of sigma.
    let mut instance = Instance::new();
    let mut counter = 0u64;
    let mut fresh = || {
        counter += 1;
        Value::labelled_null(counter)
    };
    let shared: Vec<Value> = (0..arity).map(|_| fresh()).collect();
    let t1: Vec<Value> = (0..arity)
        .map(|p| {
            if sigma.lhs.contains(&p) {
                shared[p]
            } else {
                fresh()
            }
        })
        .collect();
    let t2: Vec<Value> = (0..arity)
        .map(|p| {
            if sigma.lhs.contains(&p) {
                shared[p]
            } else {
                fresh()
            }
        })
        .collect();
    let rhs_markers = (t1[sigma.rhs], t2[sigma.rhs]);
    instance.add_fact(sigma.relation, Tuple::new(t1));
    instance.add_fact(sigma.relation, Tuple::new(t2));

    match chase(&instance, constraints, config) {
        ChaseOutcome::Completed(result) => {
            // The FD is implied iff the chase equated the two RHS markers
            // (i.e. one of them no longer occurs, having been rewritten into
            // the other, or they became the same value).
            let dom = result.active_domain();
            let both_present = dom.contains(&rhs_markers.0) && dom.contains(&rhs_markers.1);
            if both_present && rhs_markers.0 != rhs_markers.1 {
                Implication::NotImplied
            } else {
                Implication::Implied
            }
        }
        ChaseOutcome::Failed { .. } => Implication::Implied,
        ChaseOutcome::BudgetExhausted(_) => Implication::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::{DisjointnessConstraint, InclusionDependency};
    use crate::tuple;

    fn chase_to(inst: &Instance, constraints: &[Constraint], max_steps: usize) -> ChaseOutcome {
        chase(inst, constraints, &ChaseConfig { max_steps })
    }

    #[test]
    fn chase_repairs_inclusion_dependency() {
        let mut inst = Instance::new();
        inst.add_fact("R", tuple!["a", "b"]);
        inst.add_fact("S", tuple!["z", "z"]);
        let constraints = vec![Constraint::Ind(InclusionDependency::new(
            "R",
            vec![1],
            "S",
            vec![0],
        ))];
        let outcome = chase_to(&inst, &constraints, 10_000);
        let result = outcome.completed().expect("chase terminates");
        // A new S-tuple with first component "b" must have been added.
        assert!(result
            .tuples("S")
            .any(|t| t.get(0) == Some(&Value::str("b"))));
        assert!(constraints.iter().all(|c| c.satisfied(&result)));
    }

    #[test]
    fn chase_fails_on_hard_fd_conflict() {
        let mut inst = Instance::new();
        inst.add_fact("R", tuple!["a", "b"]);
        inst.add_fact("R", tuple!["a", "c"]);
        let constraints = vec![Constraint::Fd(FunctionalDependency::new("R", vec![0], 1))];
        assert!(matches!(
            chase_to(&inst, &constraints, 10_000),
            ChaseOutcome::Failed { .. }
        ));
    }

    #[test]
    fn chase_equates_nulls_for_fd() {
        let mut inst = Instance::new();
        inst.add_fact(
            "R",
            Tuple::new(vec![Value::str("a"), Value::labelled_null(1)]),
        );
        inst.add_fact("R", Tuple::new(vec![Value::str("a"), Value::str("b")]));
        let constraints = vec![Constraint::Fd(FunctionalDependency::new("R", vec![0], 1))];
        let result = chase_to(&inst, &constraints, 10_000)
            .completed()
            .expect("null can be equated");
        assert_eq!(result.relation_size("R"), 1);
        assert!(result.contains("R", &tuple!["a", "b"]));
    }

    #[test]
    fn fd_merge_of_two_nulls_rewrites_the_first_into_the_second() {
        // Both sides of the FD violation are chase nulls: `equate` must
        // rewrite the tuple-order-first null into the second, everywhere in
        // the instance (including other relations mentioning it).
        let mut inst = Instance::new();
        inst.add_fact(
            "R",
            Tuple::new(vec![Value::str("a"), Value::labelled_null(1)]),
        );
        inst.add_fact(
            "R",
            Tuple::new(vec![Value::str("a"), Value::labelled_null(2)]),
        );
        inst.add_fact("S", Tuple::new(vec![Value::labelled_null(1)]));
        let constraints = vec![Constraint::Fd(FunctionalDependency::new("R", vec![0], 1))];
        let result = chase_to(&inst, &constraints, 10_000)
            .completed()
            .expect("null-null merges never hard-fail");
        // The two R-tuples collapse into one, carrying the surviving null.
        assert_eq!(result.relation_size("R"), 1);
        assert!(result.contains(
            "R",
            &Tuple::new(vec![Value::str("a"), Value::labelled_null(2)])
        ));
        // The merge propagated into S: ⊥1 no longer occurs anywhere.
        assert!(result.contains("S", &Tuple::new(vec![Value::labelled_null(2)])));
        assert!(!result.active_domain().contains(&Value::labelled_null(1)));
    }

    #[test]
    fn ind_repair_pads_unknown_target_positions_with_fresh_nulls() {
        // The target relation is empty, so its arity is inferred from the
        // highest target position; uncovered positions get fresh nulls.
        let mut inst = Instance::new();
        inst.add_fact("R", tuple!["a"]);
        let constraints = vec![Constraint::Ind(InclusionDependency::new(
            "R",
            vec![0],
            "S",
            vec![1],
        ))];
        let result = chase_to(&inst, &constraints, 10_000)
            .completed()
            .expect("one repair step suffices");
        let repaired: Vec<&Tuple> = result.tuples("S").collect();
        assert_eq!(repaired.len(), 1);
        assert_eq!(repaired[0].arity(), 2);
        assert_eq!(repaired[0].get(1), Some(&Value::str("a")));
        assert!(repaired[0].get(0).unwrap().is_labelled_null());
        assert!(constraints.iter().all(|c| c.satisfied(&result)));
    }

    #[test]
    fn ind_repair_widens_past_a_short_first_target_tuple() {
        // R[1] ⊆ S[1] repairs into the empty S with a unary tuple; the
        // two-position R[1,2] ⊆ S[1,2] then needs a binary S tuple even
        // though S's first tuple is unary.
        let mut inst = Instance::new();
        inst.add_fact("R", tuple!["c", "a"]);
        let constraints = vec![
            Constraint::Ind(InclusionDependency::new("R", vec![0], "S", vec![0])),
            Constraint::Ind(InclusionDependency::new("R", vec![0, 1], "S", vec![0, 1])),
        ];
        let result = chase_to(&inst, &constraints, 10_000)
            .completed()
            .expect("two repairs suffice");
        assert!(result.contains("S", &tuple!["c"]));
        assert!(result.contains("S", &tuple!["c", "a"]));
        assert!(constraints.iter().all(|c| c.satisfied(&result)));
    }

    #[test]
    fn ind_repairs_cascade_in_constraint_order() {
        // R[1] ⊆ S[0] fires first (constraints are applied in list order,
        // one repair per pass), then the repaired S-fact triggers
        // S[0] ⊆ T[0] on the next pass.
        let mut inst = Instance::new();
        inst.add_fact("R", tuple!["a", "b"]);
        let constraints = vec![
            Constraint::Ind(InclusionDependency::new("R", vec![1], "S", vec![0])),
            Constraint::Ind(InclusionDependency::new("S", vec![0], "T", vec![0])),
        ];
        let result = chase_to(&inst, &constraints, 10_000)
            .completed()
            .expect("the cascade terminates");
        assert!(result.contains("S", &tuple!["b"]));
        assert!(result.contains("T", &tuple!["b"]));
        assert_eq!(result.fact_count(), 3);
        assert!(constraints.iter().all(|c| c.satisfied(&result)));

        // Reversing the constraint list reaches the same fixpoint here (one
        // extra pass), exercising the opposite discovery order.
        let reversed: Vec<Constraint> = constraints.iter().rev().cloned().collect();
        let reversed_result = chase_to(&inst, &reversed, 10_000)
            .completed()
            .expect("the cascade terminates");
        assert_eq!(reversed_result, result);
    }

    #[test]
    fn second_chase_pass_is_idempotent() {
        // Chasing a chase result must be a fixpoint: `Completed` with the
        // instance unchanged, for both repair kinds (FD null merges and IND
        // tuple additions).
        let mut inst = Instance::new();
        inst.add_fact(
            "R",
            Tuple::new(vec![Value::str("a"), Value::labelled_null(7)]),
        );
        inst.add_fact("R", Tuple::new(vec![Value::str("a"), Value::str("b")]));
        inst.add_fact("R", Tuple::new(vec![Value::str("c"), Value::str("d")]));
        let constraints = vec![
            Constraint::Fd(FunctionalDependency::new("R", vec![0], 1)),
            Constraint::Ind(InclusionDependency::new("R", vec![1], "S", vec![0])),
        ];
        let first = chase_to(&inst, &constraints, 10_000)
            .completed()
            .expect("repairs terminate");
        assert!(constraints.iter().all(|c| c.satisfied(&first)));
        let second = chase_to(&first, &constraints, 10_000)
            .completed()
            .expect("a satisfied instance chases to itself");
        assert_eq!(second, first);
    }

    #[test]
    fn chase_detects_disjointness_violation() {
        let mut inst = Instance::new();
        inst.add_fact("R", tuple!["x"]);
        inst.add_fact("S", tuple!["x"]);
        let constraints = vec![Constraint::Disjoint(DisjointnessConstraint::new(
            "R", 0, "S", 0,
        ))];
        assert!(matches!(
            chase_to(&inst, &constraints, 10_000),
            ChaseOutcome::Failed { .. }
        ));
    }

    #[test]
    fn chase_budget_is_respected_on_divergent_input() {
        // R[1] ⊆ S[1] and S[1] ⊆ R[2]-style cycle that keeps inventing nulls:
        // R(x,y) requires S(y), S(z) requires R(z, fresh) — diverges.
        let mut inst = Instance::new();
        inst.add_fact("R", tuple!["a", "b"]);
        let constraints = vec![
            Constraint::Ind(InclusionDependency::new("R", vec![1], "S", vec![0])),
            Constraint::Ind(InclusionDependency::new("S", vec![0], "R", vec![1])),
            Constraint::Ind(InclusionDependency::new("R", vec![0], "S", vec![0])),
            Constraint::Ind(InclusionDependency::new("S", vec![0], "R", vec![0])),
        ];
        let outcome = chase_to(&inst, &constraints, 50);
        // Either it terminates (if the nulls happen to close a cycle) or the
        // budget is exhausted; it must not loop forever. With this particular
        // set the chase keeps adding S-facts for new R nulls, so the budget is
        // reached.
        match outcome {
            ChaseOutcome::BudgetExhausted(inst) => assert!(inst.fact_count() > 1),
            ChaseOutcome::Completed(inst) => {
                assert!(constraints.iter().all(|c| c.satisfied(&inst)));
            }
            ChaseOutcome::Failed { .. } => panic!("no denial constraints present"),
        }
    }

    #[test]
    fn implication_of_transitive_fd() {
        // R: 1→2 and R: 2→3 imply R: 1→3.
        let constraints = vec![
            Constraint::Fd(FunctionalDependency::new("R", vec![0], 1)),
            Constraint::Fd(FunctionalDependency::new("R", vec![1], 2)),
        ];
        let sigma = FunctionalDependency::new("R", vec![0], 2);
        let arities = BTreeMap::from([(RelId::new("R"), 3)]);
        assert_eq!(
            implies_fd(&constraints, &sigma, &arities, &ChaseConfig::base()),
            Implication::Implied
        );

        let not_implied = FunctionalDependency::new("R", vec![2], 0);
        assert_eq!(
            implies_fd(&constraints, &not_implied, &arities, &ChaseConfig::base()),
            Implication::NotImplied
        );
    }

    #[test]
    fn implication_with_inclusion_dependency() {
        // Classic interaction: R[1,2] ⊆ S[1,2] and S: 1→2 imply R: 1→2.
        let constraints = vec![
            Constraint::Ind(InclusionDependency::new("R", vec![0, 1], "S", vec![0, 1])),
            Constraint::Fd(FunctionalDependency::new("S", vec![0], 1)),
        ];
        let sigma = FunctionalDependency::new("R", vec![0], 1);
        let arities = BTreeMap::from([(RelId::new("R"), 2), (RelId::new("S"), 2)]);
        assert_eq!(
            implies_fd(&constraints, &sigma, &arities, &ChaseConfig::base()),
            Implication::Implied
        );
    }

    #[test]
    fn implication_unknown_for_missing_arity() {
        let sigma = FunctionalDependency::new("Z", vec![0], 1);
        assert_eq!(
            implies_fd(&[], &sigma, &BTreeMap::new(), &ChaseConfig::base()),
            Implication::Unknown
        );
    }
}
