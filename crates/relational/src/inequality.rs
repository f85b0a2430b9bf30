//! Conjunctive queries with inequalities (`CQ≠`).
//!
//! Section 5.1 of the paper extends the transition languages with
//! inequalities, which is what makes functional dependencies expressible
//! (Example 2.4).  Evaluation enumerates homomorphisms of the positive part
//! and filters them through the inequality atoms; [`InequalityCq::holds`]
//! does so on the slot kernel of [`mod@crate::cq`], with the inequalities
//! compiled to slot/constant pairs.

use std::collections::BTreeSet;
use std::fmt;

use crate::cq::{ConjunctiveQuery, SlotPlan};
use crate::overlay::InstanceView;
use crate::term::Term;
use crate::tuple::Tuple;

/// A conjunctive query extended with inequality atoms `t ≠ t'`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InequalityCq {
    /// The positive conjunctive part (head and atoms).
    pub cq: ConjunctiveQuery,
    /// The inequality atoms.
    pub inequalities: Vec<(Term, Term)>,
}

impl InequalityCq {
    /// Creates a conjunctive query with inequalities.
    #[must_use]
    pub fn new(cq: ConjunctiveQuery, inequalities: Vec<(Term, Term)>) -> Self {
        InequalityCq { cq, inequalities }
    }

    /// Wraps a plain conjunctive query (no inequalities).
    #[must_use]
    pub fn plain(cq: ConjunctiveQuery) -> Self {
        InequalityCq {
            cq,
            inequalities: Vec::new(),
        }
    }

    /// True if the query has no inequality atoms.
    #[must_use]
    pub fn is_plain(&self) -> bool {
        self.inequalities.is_empty()
    }

    /// Number of atoms including inequalities.
    #[must_use]
    pub fn size(&self) -> usize {
        self.cq.size() + self.inequalities.len()
    }

    /// True if the query has a satisfying homomorphism on the instance (or
    /// any [`InstanceView`]).  An inequality naming a variable that no atom
    /// binds is vacuously true.
    #[must_use]
    pub fn holds(&self, instance: &impl InstanceView) -> bool {
        SlotPlan::new(&self.cq.atoms, &self.inequalities).holds(instance)
    }

    /// Evaluates the query, projecting satisfying assignments onto the head
    /// (empty when a head variable occurs in no atom).
    #[must_use]
    pub fn evaluate(&self, instance: &impl InstanceView) -> BTreeSet<Tuple> {
        let plan = SlotPlan::new(&self.cq.atoms, &self.inequalities);
        let mut results = BTreeSet::new();
        let head: Option<Vec<usize>> = self.cq.head.iter().map(|v| plan.slot(*v)).collect();
        if let Some(head) = head {
            plan.for_each_match(instance, &mut |slots| {
                results.insert(
                    head.iter()
                        .map(|&s| slots[s].expect("a complete match binds every slot"))
                        .collect(),
                );
                false
            });
        }
        results
    }
}

impl fmt::Display for InequalityCq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.cq)?;
        for (l, r) in &self.inequalities {
            write!(f, ", {l} ≠ {r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;
    use crate::{atom, cq, tuple};

    fn inst() -> Instance {
        let mut inst = Instance::new();
        inst.add_fact("R", tuple!["a", "a"]);
        inst.add_fact("R", tuple!["a", "b"]);
        inst
    }

    #[test]
    fn plain_query_behaves_like_cq() {
        let q = InequalityCq::plain(cq!(<- atom!("R"; x, y)));
        assert!(q.is_plain());
        assert!(q.holds(&inst()));
    }

    #[test]
    fn inequality_filters_homomorphisms() {
        let q = InequalityCq::new(
            cq!(<- atom!("R"; x, y)),
            vec![(Term::var("x"), Term::var("y"))],
        );
        assert!(q.holds(&inst()));

        let mut diag_only = Instance::new();
        diag_only.add_fact("R", tuple!["a", "a"]);
        assert!(!q.holds(&diag_only));
    }

    #[test]
    fn inequality_against_constant() {
        let q = InequalityCq::new(
            cq!([x] <- atom!("R"; x, y)),
            vec![(Term::var("y"), Term::constant("a"))],
        );
        // Only the tuple (a, b) survives the filter.
        let answers = q.evaluate(&inst());
        assert_eq!(answers.len(), 1);
        assert!(answers.contains(&tuple!["a"]));
    }

    #[test]
    fn functional_dependency_violation_query() {
        // The Example 2.4 pattern: two R-tuples agreeing on position 0 but
        // differing on position 1 witness a violation of R: 1 → 2.
        let violation = InequalityCq::new(
            cq!(<- atom!("R"; x, y), atom!("R"; x, z)),
            vec![(Term::var("y"), Term::var("z"))],
        );
        assert!(violation.holds(&inst()));

        let mut fd_ok = Instance::new();
        fd_ok.add_fact("R", tuple!["a", "a"]);
        fd_ok.add_fact("R", tuple!["b", "c"]);
        assert!(!violation.holds(&fd_ok));
    }

    #[test]
    fn evaluation_projects_head() {
        let q = InequalityCq::new(
            cq!([x, y] <- atom!("R"; x, y)),
            vec![(Term::var("x"), Term::var("y"))],
        );
        let answers = q.evaluate(&inst());
        assert_eq!(answers, BTreeSet::from([tuple!["a", "b"]]));
    }

    #[test]
    fn size_counts_inequalities() {
        let q = InequalityCq::new(
            cq!(<- atom!("R"; x, y)),
            vec![(Term::var("x"), Term::var("y"))],
        );
        assert_eq!(q.size(), 2);
    }

    #[test]
    fn display_appends_inequalities() {
        let q = InequalityCq::new(
            cq!(<- atom!("R"; x, y)),
            vec![(Term::var("x"), Term::var("y"))],
        );
        assert!(q.to_string().contains("≠"));
    }
}
