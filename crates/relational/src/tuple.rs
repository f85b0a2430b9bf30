//! Tuples of data values.

use std::fmt;

use crate::value::Value;

/// A tuple: an ordered sequence of values, one per relation position.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tuple(Vec<Value>);

impl Tuple {
    /// Creates a tuple from a vector of values.
    #[must_use]
    pub fn new(values: Vec<Value>) -> Self {
        Tuple(values)
    }

    /// The empty tuple, borrowed for any lifetime.
    #[must_use]
    pub fn empty() -> &'static Tuple {
        static EMPTY: Tuple = Tuple(Vec::new());
        &EMPTY
    }

    /// The arity of the tuple.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// The values of the tuple, in position order.
    #[must_use]
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// The value at a 0-based position, if in range.
    #[must_use]
    pub fn get(&self, index: usize) -> Option<&Value> {
        self.0.get(index)
    }

    /// Consumes the tuple and returns its values.
    #[must_use]
    pub fn into_values(self) -> Vec<Value> {
        self.0
    }

    /// Projects the tuple onto the given 0-based positions, preserving order.
    ///
    /// Positions out of range are silently skipped; callers validate against
    /// the schema before projecting.
    #[must_use]
    pub fn project(&self, positions: &[usize]) -> Tuple {
        Tuple(
            positions
                .iter()
                .filter_map(|&p| self.0.get(p).copied())
                .collect(),
        )
    }

    /// True if the tuple agrees with `other` on all the given 0-based
    /// positions.
    #[must_use]
    pub fn agrees_on(&self, other: &Tuple, positions: &[usize]) -> bool {
        positions
            .iter()
            .all(|&p| self.0.get(p).is_some() && self.0.get(p) == other.0.get(p))
    }

    /// Applies a value substitution to every component of the tuple.
    #[must_use]
    pub fn map_values(&self, f: impl FnMut(&Value) -> Value) -> Tuple {
        Tuple(self.0.iter().map(f).collect())
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Tuple(iter.into_iter().collect())
    }
}

/// Convenience macro building a [`Tuple`] from expressions convertible into
/// [`Value`].
///
/// ```
/// use accltl_relational::{tuple, Value};
/// let t = tuple!["Smith", "OX13QD", "Parks Rd", 5551212];
/// assert_eq!(t.arity(), 4);
/// assert_eq!(t.get(3), Some(&Value::Int(5551212)));
/// ```
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple::new(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macro_and_accessors_agree() {
        let t = tuple!["a", 1, true];
        assert_eq!(t.arity(), 3);
        assert_eq!(t.get(0), Some(&Value::str("a")));
        assert_eq!(t.get(1), Some(&Value::Int(1)));
        assert_eq!(t.get(2), Some(&Value::Bool(true)));
        assert_eq!(t.get(3), None);
    }

    #[test]
    fn projection_preserves_order_and_skips_out_of_range() {
        let t = tuple!["a", "b", "c"];
        assert_eq!(t.project(&[2, 0]), tuple!["c", "a"]);
        assert_eq!(t.project(&[5]), Tuple::default());
    }

    #[test]
    fn agreement_checks_positions() {
        let t1 = tuple!["a", "b", "c"];
        let t2 = tuple!["a", "x", "c"];
        assert!(t1.agrees_on(&t2, &[0, 2]));
        assert!(!t1.agrees_on(&t2, &[1]));
        assert!(!t1.agrees_on(&t2, &[0, 7]));
    }

    #[test]
    fn map_values_applies_substitution() {
        let t = tuple![1, 2];
        let doubled = t.map_values(|v| match v {
            Value::Int(i) => Value::Int(i * 2),
            other => *other,
        });
        assert_eq!(doubled, tuple![2, 4]);
    }

    #[test]
    fn display_is_parenthesised() {
        assert_eq!(tuple![1, "a"].to_string(), "(1, \"a\")");
    }
}
