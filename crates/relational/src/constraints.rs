//! Integrity constraints: functional dependencies, inclusion dependencies and
//! disjointness constraints.
//!
//! The paper uses constraints in two roles:
//!
//! * as *restrictions on access paths* (Example 2.3/2.4: disjointness of
//!   names from street names, functional dependencies on revealed data), and
//! * as the source of its undecidability reductions (Theorems 3.1, 5.2, 5.3
//!   encode the implication problem for FDs + inclusion dependencies, which
//!   is undecidable by Chandra–Vardi).

use std::collections::BTreeSet;
use std::fmt;

use crate::error::RelationalError;
use crate::instance::Instance;
use crate::schema::Schema;
use crate::symbols::RelId;
use crate::value::Value;
use crate::Result;

/// A functional dependency `R : lhs → rhs` (0-based positions).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FunctionalDependency {
    /// The relation the dependency constrains.
    pub relation: RelId,
    /// The determining positions (0-based).
    pub lhs: Vec<usize>,
    /// The determined position (0-based).
    pub rhs: usize,
}

impl FunctionalDependency {
    /// Creates a functional dependency.
    #[must_use]
    pub fn new(relation: impl Into<RelId>, lhs: Vec<usize>, rhs: usize) -> Self {
        FunctionalDependency {
            relation: relation.into(),
            lhs,
            rhs,
        }
    }

    /// A key constraint: the given positions determine every position.
    #[must_use]
    pub fn key(relation: impl Into<RelId>, key_positions: Vec<usize>, arity: usize) -> Vec<Self> {
        let relation = relation.into();
        (0..arity)
            .filter(|p| !key_positions.contains(p))
            .map(|p| FunctionalDependency::new(relation, key_positions.clone(), p))
            .collect()
    }

    /// Checks positions are within the relation's arity.
    pub fn validate(&self, schema: &Schema) -> Result<()> {
        let rel = schema.require_relation_id(self.relation)?;
        for &p in self.lhs.iter().chain(std::iter::once(&self.rhs)) {
            if p >= rel.arity() {
                return Err(RelationalError::PositionOutOfRange {
                    relation: self.relation.as_str().to_owned(),
                    position: p + 1,
                });
            }
        }
        Ok(())
    }

    /// True if the instance satisfies the dependency.
    #[must_use]
    pub fn satisfied(&self, instance: &Instance) -> bool {
        self.find_violation(instance).is_none()
    }

    /// Returns a pair of tuples violating the dependency, if any.
    ///
    /// The choice is deterministic: the first tuple (in tuple order) that
    /// belongs to a violating LHS-group, paired with the first group member
    /// disagreeing with it on the RHS.  The chase ([`crate::chase()`])
    /// repairs exactly this violation, so its repair sequence is
    /// deterministic.
    #[must_use]
    pub fn find_violation(
        &self,
        instance: &Instance,
    ) -> Option<(crate::tuple::Tuple, crate::tuple::Tuple)> {
        let tuples: Vec<_> = instance.tuples(self.relation).collect();
        for (i, t1) in tuples.iter().enumerate() {
            for t2 in &tuples[i..] {
                if t1.agrees_on(t2, &self.lhs) && t1.get(self.rhs) != t2.get(self.rhs) {
                    return Some(((*t1).clone(), (*t2).clone()));
                }
            }
        }
        None
    }
}

impl fmt::Display for FunctionalDependency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let lhs: Vec<String> = self.lhs.iter().map(|p| (p + 1).to_string()).collect();
        write!(f, "{}: {} → {}", self.relation, lhs.join(","), self.rhs + 1)
    }
}

/// An inclusion dependency `R[a1..an] ⊆ S[b1..bn]` (0-based positions).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InclusionDependency {
    /// The source relation.
    pub source: RelId,
    /// Positions of the source relation (0-based).
    pub source_positions: Vec<usize>,
    /// The target relation.
    pub target: RelId,
    /// Positions of the target relation (0-based); same length as
    /// `source_positions`.
    pub target_positions: Vec<usize>,
}

impl InclusionDependency {
    /// Creates an inclusion dependency.
    #[must_use]
    pub fn new(
        source: impl Into<RelId>,
        source_positions: Vec<usize>,
        target: impl Into<RelId>,
        target_positions: Vec<usize>,
    ) -> Self {
        InclusionDependency {
            source: source.into(),
            source_positions,
            target: target.into(),
            target_positions,
        }
    }

    /// Checks the dependency is well formed with respect to a schema.
    pub fn validate(&self, schema: &Schema) -> Result<()> {
        if self.source_positions.len() != self.target_positions.len() {
            return Err(RelationalError::MalformedQuery(format!(
                "inclusion dependency {self} has mismatched position lists"
            )));
        }
        let src = schema.require_relation_id(self.source)?;
        let tgt = schema.require_relation_id(self.target)?;
        for &p in &self.source_positions {
            if p >= src.arity() {
                return Err(RelationalError::PositionOutOfRange {
                    relation: self.source.as_str().to_owned(),
                    position: p + 1,
                });
            }
        }
        for &p in &self.target_positions {
            if p >= tgt.arity() {
                return Err(RelationalError::PositionOutOfRange {
                    relation: self.target.as_str().to_owned(),
                    position: p + 1,
                });
            }
        }
        Ok(())
    }

    /// True if the instance satisfies the dependency.
    #[must_use]
    pub fn satisfied(&self, instance: &Instance) -> bool {
        self.find_violation(instance).is_none()
    }

    /// Returns a source tuple with no matching target tuple, if any.
    ///
    /// The choice is deterministic: the first unwitnessed source in tuple
    /// order.  The chase ([`crate::chase()`]) repairs exactly this
    /// violation, so its repair sequence is deterministic.
    #[must_use]
    pub fn find_violation(&self, instance: &Instance) -> Option<crate::tuple::Tuple> {
        for src_tuple in instance.tuples(self.source) {
            let projected = src_tuple.project(&self.source_positions);
            let matched = instance
                .tuples(self.target)
                .any(|tgt_tuple| tgt_tuple.project(&self.target_positions) == projected);
            if !matched {
                return Some(src_tuple.clone());
            }
        }
        None
    }
}

impl fmt::Display for InclusionDependency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fmt_positions = |ps: &[usize]| {
            ps.iter()
                .map(|p| (p + 1).to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        write!(
            f,
            "{}[{}] ⊆ {}[{}]",
            self.source,
            fmt_positions(&self.source_positions),
            self.target,
            fmt_positions(&self.target_positions)
        )
    }
}

/// A disjointness constraint: the values at `left` never overlap the values at
/// `right` (each side is a relation plus a 0-based position).
///
/// The paper's example: mobile-phone customer names are disjoint from street
/// names, so accesses to `Mobile#` with street names acquired earlier can be
/// pruned.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DisjointnessConstraint {
    /// The left side: relation and 0-based position.
    pub left: (RelId, usize),
    /// The right side: relation and 0-based position.
    pub right: (RelId, usize),
}

impl DisjointnessConstraint {
    /// Creates a disjointness constraint.
    #[must_use]
    pub fn new(
        left_relation: impl Into<RelId>,
        left_position: usize,
        right_relation: impl Into<RelId>,
        right_position: usize,
    ) -> Self {
        DisjointnessConstraint {
            left: (left_relation.into(), left_position),
            right: (right_relation.into(), right_position),
        }
    }

    /// Checks the positions are within the relations' arities.
    pub fn validate(&self, schema: &Schema) -> Result<()> {
        for (rel, pos) in [&self.left, &self.right] {
            let r = schema.require_relation_id(*rel)?;
            if *pos >= r.arity() {
                return Err(RelationalError::PositionOutOfRange {
                    relation: rel.as_str().to_owned(),
                    position: pos + 1,
                });
            }
        }
        Ok(())
    }

    /// True if the instance satisfies the constraint.
    #[must_use]
    pub fn satisfied(&self, instance: &Instance) -> bool {
        self.find_violation(instance).is_none()
    }

    /// Returns a value occurring on both sides, if any.
    #[must_use]
    pub fn find_violation(&self, instance: &Instance) -> Option<Value> {
        let left_values: BTreeSet<&Value> = instance
            .tuples(self.left.0)
            .filter_map(|t| t.get(self.left.1))
            .collect();
        instance
            .tuples(self.right.0)
            .filter_map(|t| t.get(self.right.1))
            .find(|v| left_values.contains(v))
            .copied()
    }
}

impl fmt::Display for DisjointnessConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] ∩ {}[{}] = ∅",
            self.left.0,
            self.left.1 + 1,
            self.right.0,
            self.right.1 + 1
        )
    }
}

/// Any of the constraint kinds supported by the schema language.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Constraint {
    /// A functional dependency.
    Fd(FunctionalDependency),
    /// An inclusion dependency.
    Ind(InclusionDependency),
    /// A disjointness constraint.
    Disjoint(DisjointnessConstraint),
}

impl Constraint {
    /// True if the instance satisfies the constraint.
    #[must_use]
    pub fn satisfied(&self, instance: &Instance) -> bool {
        match self {
            Constraint::Fd(c) => c.satisfied(instance),
            Constraint::Ind(c) => c.satisfied(instance),
            Constraint::Disjoint(c) => c.satisfied(instance),
        }
    }

    /// Checks the constraint is well formed with respect to a schema.
    pub fn validate(&self, schema: &Schema) -> Result<()> {
        match self {
            Constraint::Fd(c) => c.validate(schema),
            Constraint::Ind(c) => c.validate(schema),
            Constraint::Disjoint(c) => c.validate(schema),
        }
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constraint::Fd(c) => write!(f, "{c}"),
            Constraint::Ind(c) => write!(f, "{c}"),
            Constraint::Disjoint(c) => write!(f, "{c}"),
        }
    }
}

impl From<FunctionalDependency> for Constraint {
    fn from(c: FunctionalDependency) -> Self {
        Constraint::Fd(c)
    }
}

impl From<InclusionDependency> for Constraint {
    fn from(c: InclusionDependency) -> Self {
        Constraint::Ind(c)
    }
}

impl From<DisjointnessConstraint> for Constraint {
    fn from(c: DisjointnessConstraint) -> Self {
        Constraint::Disjoint(c)
    }
}

/// True if the instance satisfies every constraint in the set.
#[must_use]
pub fn all_satisfied(constraints: &[Constraint], instance: &Instance) -> bool {
    constraints.iter().all(|c| c.satisfied(instance))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{phone_directory_schema, RelationSchema, Schema};
    use crate::tuple;
    use crate::value::DataType;

    fn schema() -> Schema {
        Schema::from_relations([
            RelationSchema::new("R", vec![DataType::Text, DataType::Text]),
            RelationSchema::new("S", vec![DataType::Text]),
        ])
        .unwrap()
    }

    #[test]
    fn fd_satisfaction_and_violation() {
        let fd = FunctionalDependency::new("R", vec![0], 1);
        let mut inst = Instance::new();
        inst.add_fact("R", tuple!["a", "b"]);
        inst.add_fact("R", tuple!["c", "b"]);
        assert!(fd.satisfied(&inst));
        inst.add_fact("R", tuple!["a", "x"]);
        assert!(!fd.satisfied(&inst));
        let (t1, t2) = fd.find_violation(&inst).unwrap();
        assert!(t1.agrees_on(&t2, &[0]));
        assert_ne!(t1.get(1), t2.get(1));
    }

    #[test]
    fn key_generates_one_fd_per_non_key_position() {
        let fds = FunctionalDependency::key("R", vec![0], 3);
        assert_eq!(fds.len(), 2);
        assert!(fds.iter().all(|fd| fd.lhs == vec![0]));
    }

    #[test]
    fn fd_validation_checks_positions() {
        assert!(FunctionalDependency::new("R", vec![0], 1)
            .validate(&schema())
            .is_ok());
        assert!(FunctionalDependency::new("R", vec![0], 5)
            .validate(&schema())
            .is_err());
        assert!(FunctionalDependency::new("Z", vec![0], 1)
            .validate(&schema())
            .is_err());
    }

    #[test]
    fn inclusion_dependency_satisfaction() {
        let ind = InclusionDependency::new("R", vec![1], "S", vec![0]);
        let mut inst = Instance::new();
        inst.add_fact("R", tuple!["a", "b"]);
        assert!(!ind.satisfied(&inst));
        assert_eq!(ind.find_violation(&inst), Some(tuple!["a", "b"]));
        inst.add_fact("S", tuple!["b"]);
        assert!(ind.satisfied(&inst));
    }

    #[test]
    fn inclusion_dependency_validation() {
        assert!(InclusionDependency::new("R", vec![1], "S", vec![0])
            .validate(&schema())
            .is_ok());
        assert!(InclusionDependency::new("R", vec![1, 0], "S", vec![0])
            .validate(&schema())
            .is_err());
        assert!(InclusionDependency::new("R", vec![9], "S", vec![0])
            .validate(&schema())
            .is_err());
    }

    #[test]
    fn disjointness_constraint_from_the_paper() {
        // Customer names (Mobile# position 1) disjoint from street names
        // (Address position 1).
        let dc = DisjointnessConstraint::new("Mobile#", 0, "Address", 0);
        assert!(dc.validate(&phone_directory_schema()).is_ok());

        let mut inst = Instance::new();
        inst.add_fact("Mobile#", tuple!["Smith", "OX13QD", "Parks Rd", 5551212]);
        inst.add_fact("Address", tuple!["Parks Rd", "OX13QD", "Smith", 13]);
        assert!(dc.satisfied(&inst));

        // A person named like a street violates it.
        inst.add_fact("Mobile#", tuple!["Parks Rd", "OX13QD", "High St", 1]);
        assert!(!dc.satisfied(&inst));
        assert_eq!(dc.find_violation(&inst), Some(Value::str("Parks Rd")));
    }

    #[test]
    fn constraint_enum_dispatches() {
        let constraints: Vec<Constraint> = vec![
            FunctionalDependency::new("R", vec![0], 1).into(),
            InclusionDependency::new("R", vec![1], "S", vec![0]).into(),
            DisjointnessConstraint::new("R", 0, "S", 0).into(),
        ];
        let mut inst = Instance::new();
        inst.add_fact("R", tuple!["a", "b"]);
        inst.add_fact("S", tuple!["b"]);
        assert!(all_satisfied(&constraints, &inst));

        inst.add_fact("S", tuple!["a"]);
        // Now disjointness of R[1] and S[1] is violated ("a" occurs in both).
        assert!(!all_satisfied(&constraints, &inst));
    }

    #[test]
    fn displays_are_one_based() {
        assert_eq!(
            FunctionalDependency::new("R", vec![0, 1], 2).to_string(),
            "R: 1,2 → 3"
        );
        assert_eq!(
            InclusionDependency::new("R", vec![0], "S", vec![1]).to_string(),
            "R[1] ⊆ S[2]"
        );
        assert_eq!(
            DisjointnessConstraint::new("R", 0, "S", 1).to_string(),
            "R[1] ∩ S[2] = ∅"
        );
    }
}
