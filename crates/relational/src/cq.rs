//! Conjunctive queries: evaluation, homomorphisms, canonical databases.
//!
//! Conjunctive queries (CQs) are the paper's basic query class: query
//! containment under access patterns (Example 2.2), long-term relevance
//! (Example 2.3) and the canonical-database arguments behind the Boundedness
//! Lemma (Lemma 4.13) all manipulate CQs through homomorphisms.
//!
//! Every homomorphism search in the workspace — CQ evaluation, containment,
//! Datalog rule bodies, and the guard sentences the bounded searches decide
//! on each transition structure — runs on one *slot-compiled* kernel
//! (`SlotPlan`): a query's variables are numbered `0..k` once, the search
//! binds them into a `[Option<Value>]` slot buffer (on the stack up to 16
//! variables) with an undo trail, and it allocates nothing per candidate
//! tuple.  [`for_each_homomorphism`] documents the enumeration order, which
//! is part of the contract.  A seeded entry pins one atom to a given fact
//! and searches the others the same way; the layered guard evaluation
//! ([`crate::CompiledSentence::holds_layered`]) uses it to look only for
//! matches through the facts a transition structure adds to its root.

use std::collections::BTreeSet;
use std::fmt;
use std::ops::Index;

use crate::atom::Atom;
use crate::error::RelationalError;
use crate::instance::Instance;
use crate::overlay::InstanceView;
use crate::symbols::{IdMap, RelId, VarId, VarKey};
use crate::term::Term;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::Result;

/// A variable assignment: interned variable → value.
///
/// The assignment type of the public API: the `initial` bindings of
/// [`for_each_homomorphism`] and the homomorphisms it hands to its callback.
/// The search itself never touches one — it binds numbered slots — and
/// builds an `Assignment` only when it reports a homomorphism.  Backed by the
/// id-keyed sorted-vec [`IdMap`]; equality is set-of-bindings equality (the
/// canonical sorted form makes the derive correct); iteration order follows
/// raw intern ids and carries no meaning across symbol tables.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Assignment {
    entries: IdMap<(VarId, Value)>,
}

impl Assignment {
    /// Creates an empty assignment.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The value bound to a variable, if any.  String keys resolve without
    /// growing the intern pool (unknown names answer `None`).
    #[must_use]
    pub fn get(&self, var: impl VarKey) -> Option<&Value> {
        let var = var.resolve_var()?;
        self.entries.get(var.id()).map(|(_, value)| value)
    }

    /// Binds a variable, returning the previous binding if present.
    pub fn insert(&mut self, var: impl Into<VarId>, value: Value) -> Option<Value> {
        let var = var.into();
        self.entries
            .insert(var.id(), (var, value))
            .map(|(_, previous)| previous)
    }

    /// Removes a binding.
    pub fn remove(&mut self, var: impl VarKey) -> Option<Value> {
        let var = var.resolve_var()?;
        self.entries.remove(var.id()).map(|(_, value)| value)
    }

    /// True if the variable is bound.
    #[must_use]
    pub fn contains_var(&self, var: impl VarKey) -> bool {
        var.resolve_var()
            .is_some_and(|v| self.entries.get(v.id()).is_some())
    }

    /// Number of bound variables.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is bound.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over the bindings (in raw intern-id order).
    pub fn iter(&self) -> impl Iterator<Item = (VarId, &Value)> {
        self.entries.values().map(|(v, value)| (*v, value))
    }
}

impl<V: Into<VarId>> FromIterator<(V, Value)> for Assignment {
    fn from_iter<T: IntoIterator<Item = (V, Value)>>(iter: T) -> Self {
        let mut assignment = Assignment::new();
        for (v, value) in iter {
            assignment.insert(v, value);
        }
        assignment
    }
}

impl Index<&str> for Assignment {
    type Output = Value;

    fn index(&self, var: &str) -> &Value {
        self.get(var).expect("variable not bound in assignment")
    }
}

impl Index<VarId> for Assignment {
    type Output = Value;

    fn index(&self, var: VarId) -> &Value {
        self.get(var).expect("variable not bound in assignment")
    }
}

/// A conjunctive query.
///
/// The `head` lists the distinguished (free) variables; a query with an empty
/// head is a boolean query.  All other variables are implicitly existentially
/// quantified.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConjunctiveQuery {
    /// The distinguished variables (free variables of the query).
    pub head: Vec<VarId>,
    /// The body atoms, implicitly conjoined.
    pub atoms: Vec<Atom>,
}

impl ConjunctiveQuery {
    /// Creates a boolean conjunctive query.
    #[must_use]
    pub fn boolean(atoms: Vec<Atom>) -> Self {
        ConjunctiveQuery {
            head: Vec::new(),
            atoms,
        }
    }

    /// Creates a conjunctive query with distinguished variables.
    #[must_use]
    pub fn with_head(head: Vec<impl Into<VarId>>, atoms: Vec<Atom>) -> Self {
        ConjunctiveQuery {
            head: head.into_iter().map(Into::into).collect(),
            atoms,
        }
    }

    /// True if the query has no distinguished variables.
    #[must_use]
    pub fn is_boolean(&self) -> bool {
        self.head.is_empty()
    }

    /// The set of all variables occurring in the body.
    #[must_use]
    pub fn body_variables(&self) -> BTreeSet<VarId> {
        self.atoms.iter().flat_map(|a| a.variables()).collect()
    }

    /// The set of constants occurring in the body.
    #[must_use]
    pub fn constants(&self) -> BTreeSet<Value> {
        self.atoms.iter().flat_map(|a| a.constants()).collect()
    }

    /// The relations mentioned by the query.
    #[must_use]
    pub fn relations(&self) -> BTreeSet<RelId> {
        self.atoms.iter().map(|a| a.predicate).collect()
    }

    /// Checks the query is safe: every head variable occurs in the body.
    ///
    /// # Errors
    /// Returns [`RelationalError::MalformedQuery`] naming the offending
    /// variable.
    pub fn validate(&self) -> Result<()> {
        let body_vars = self.body_variables();
        for v in &self.head {
            if !body_vars.contains(v) {
                return Err(RelationalError::MalformedQuery(format!(
                    "head variable `{v}` does not occur in the body"
                )));
            }
        }
        Ok(())
    }

    /// The total number of atoms (a standard size measure).
    #[must_use]
    pub fn size(&self) -> usize {
        self.atoms.len()
    }

    /// Renames every variable of the query (head and body) with `f`.
    #[must_use]
    pub fn rename_vars(&self, f: impl Fn(&str) -> String) -> ConjunctiveQuery {
        ConjunctiveQuery {
            head: self
                .head
                .iter()
                .map(|v| VarId::new(&f(v.as_str())))
                .collect(),
            atoms: self.atoms.iter().map(|a| a.rename_vars(&f)).collect(),
        }
    }

    /// Renames every predicate of the query with `f` (used to build the
    /// `Q^pre`/`Q^post` variants of Section 2).
    #[must_use]
    pub fn rename_predicates(&self, f: impl Fn(&str) -> String) -> ConjunctiveQuery {
        ConjunctiveQuery {
            head: self.head.clone(),
            atoms: self
                .atoms
                .iter()
                .map(|a| a.with_predicate(RelId::new(&f(a.predicate.as_str()))))
                .collect(),
        }
    }

    /// Evaluates the query on an instance (or any [`InstanceView`], such as a
    /// configuration overlay), returning the set of head-variable bindings
    /// projected as tuples.  A boolean query returns either the empty set or
    /// the singleton set containing the empty tuple.
    #[must_use]
    pub fn evaluate(&self, instance: &impl InstanceView) -> BTreeSet<Tuple> {
        let mut results = BTreeSet::new();
        for_each_homomorphism(
            &self.atoms,
            instance,
            &Assignment::new(),
            &mut |assignment| {
                let tuple: Tuple = self
                    .head
                    .iter()
                    .map(|v| {
                        assignment
                            .get(*v)
                            .copied()
                            .expect("validated query: head variables are bound by the body")
                    })
                    .collect();
                results.insert(tuple);
                // Keep enumerating: we want all answers.
                false
            },
        );
        results
    }

    /// True if the (boolean) query holds on the instance.  For a non-boolean
    /// query this means "has at least one answer".
    #[must_use]
    pub fn holds(&self, instance: &impl InstanceView) -> bool {
        SlotPlan::new(&self.atoms, &[]).holds(instance)
    }

    /// Finds one homomorphism from the query body into the instance extending
    /// the given partial assignment, if any.
    #[must_use]
    pub fn find_homomorphism(
        &self,
        instance: &impl InstanceView,
        initial: &Assignment,
    ) -> Option<Assignment> {
        let mut found = None;
        for_each_homomorphism(&self.atoms, instance, initial, &mut |assignment| {
            found = Some(assignment.clone());
            true
        });
        found
    }

    /// The canonical database (frozen body) of the query together with the
    /// freezing assignment variable → frozen constant.
    ///
    /// Constants in the query are kept as themselves; every variable `x` is
    /// frozen to a distinct labelled value that cannot collide with ordinary
    /// values.
    #[must_use]
    pub fn canonical_instance(&self) -> (Instance, Assignment) {
        let mut freeze = Assignment::new();
        for (i, var) in self.body_variables().iter().enumerate() {
            freeze.insert(*var, frozen_value(var.as_str(), i));
        }
        let mut instance = Instance::new();
        for atom in &self.atoms {
            let tuple: Tuple = atom
                .terms
                .iter()
                .map(|t| match t {
                    Term::Var(v) => freeze[*v],
                    Term::Const(c) => *c,
                })
                .collect();
            instance.add_fact(atom.predicate, tuple);
        }
        (instance, freeze)
    }
}

/// The frozen constant representing variable `var` in a canonical database.
#[must_use]
pub fn frozen_value(var: &str, index: usize) -> Value {
    Value::str(format!("\u{2744}{index}_{var}"))
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q(")?;
        for (i, v) in self.head.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ") :- ")?;
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

/// Enumerates homomorphisms from `atoms` into `instance` extending `initial`.
///
/// Generic over [`InstanceView`], so the same search runs on a plain
/// [`Instance`] and on a configuration overlay without materializing it.
/// The callback is invoked once per homomorphism; returning `true` stops the
/// enumeration early (used by existence checks).
///
/// A thin adapter over the slot kernel (`SlotPlan`): the query's
/// variables are numbered once, pre-filled from `initial`, and an
/// [`Assignment`] (`initial` plus every query variable) is built only when a
/// homomorphism is handed to the callback.
///
/// # Enumeration order
///
/// The order in which homomorphisms reach the callback is part of the
/// contract — [`ConjunctiveQuery::find_homomorphism`] and every other
/// caller that keeps the first match return what comes first:
///
/// * when every mentioned relation has fewer than
///   [`INDEX_CUTOFF`](crate::index::INDEX_CUTOFF) tuples, atoms are taken in
///   ascending relation-size order (a stable sort, so equal sizes keep query
///   order);
/// * otherwise atom order is chosen *dynamically*: at every level the search
///   picks the remaining atom with the fewest estimated candidates — the
///   relation size for unconstrained or small relations, the minimum
///   per-position selectivity ([`InstanceView::selectivity`]) over its bound
///   positions (constants and already-bound variables) otherwise — with ties
///   going to the atom that comes first in the query, and enumerates that
///   atom's candidates via [`InstanceView::tuples_matching_all`];
/// * candidates of one atom are tried in tuple order.
///
/// Estimates are exact whether or not a relation is indexed, so indexed and
/// scanning views enumerate identically.
pub fn for_each_homomorphism<V: InstanceView + ?Sized>(
    atoms: &[Atom],
    instance: &V,
    initial: &Assignment,
    callback: &mut dyn FnMut(&Assignment) -> bool,
) {
    let plan = SlotPlan::new(atoms, &[]);
    let mut slots = plan.prefilled(initial);
    plan.search(instance, &mut slots, None, &mut |slots| {
        let mut assignment = initial.clone();
        for (var, value) in plan.vars.iter().zip(slots) {
            if let Some(value) = value {
                assignment.insert(*var, *value);
            }
        }
        callback(&assignment)
    });
}

/// Queries with at most this many variables (and atoms, and atom arity)
/// run on stack buffers; larger ones fall back to the heap.
const INLINE_SLOTS: usize = 16;

/// Runs `f` on a buffer of `len` copies of `fill`, on the stack up to
/// [`INLINE_SLOTS`] elements and on the heap above.
fn with_buffer<T: Copy, R>(len: usize, fill: T, f: impl FnOnce(&mut [T]) -> R) -> R {
    if len <= INLINE_SLOTS {
        let mut buffer = [fill; INLINE_SLOTS];
        f(&mut buffer[..len])
    } else {
        f(&mut vec![fill; len])
    }
}

/// A term of a [`SlotPlan`]: a constant, or the slot of a query variable.
#[derive(Debug, Clone, Copy)]
enum Operand {
    Const(Value),
    Slot(u32),
}

/// An atom of a [`SlotPlan`].
#[derive(Debug, Clone)]
struct PlanAtom {
    predicate: RelId,
    terms: Box<[Operand]>,
}

/// A conjunction of atoms, plus inequalities, compiled for the slot
/// kernel: its variables are numbered `0..k` in first-occurrence order and
/// bound into a `[Option<Value>]` slot buffer with an undo trail, so the
/// search compares and copies `Value`s and never touches a map.
///
/// Inequalities are checked on each complete match.  One naming a variable
/// that no atom binds is vacuously true (the `CQ≠` semantics of
/// [`crate::inequality::InequalityCq`]: an unconstrained existential
/// witness distinct from the other side always exists in the active-domain
/// reading) and is dropped at compile time.
#[derive(Debug, Clone)]
pub(crate) struct SlotPlan {
    vars: Vec<VarId>,
    atoms: Vec<PlanAtom>,
    inequalities: Vec<(Operand, Operand)>,
}

impl SlotPlan {
    /// Compiles `atoms` and `inequalities` into a slot plan.
    pub(crate) fn new(atoms: &[Atom], inequalities: &[(Term, Term)]) -> Self {
        let mut vars: Vec<VarId> = Vec::new();
        let atoms = atoms
            .iter()
            .map(|atom| PlanAtom {
                predicate: atom.predicate,
                terms: atom
                    .terms
                    .iter()
                    .map(|term| match term {
                        Term::Const(c) => Operand::Const(*c),
                        Term::Var(v) => Operand::Slot(match vars.iter().position(|w| w == v) {
                            Some(slot) => slot as u32,
                            None => {
                                vars.push(*v);
                                (vars.len() - 1) as u32
                            }
                        }),
                    })
                    .collect(),
            })
            .collect();
        let mut plan = SlotPlan {
            vars,
            atoms,
            inequalities: Vec::new(),
        };
        let operand = |term: &Term| match term {
            Term::Const(c) => Some(Operand::Const(*c)),
            Term::Var(v) => plan.slot(*v).map(|slot| Operand::Slot(slot as u32)),
        };
        plan.inequalities = inequalities
            .iter()
            .filter_map(|(l, r)| Some((operand(l)?, operand(r)?)))
            .collect();
        plan
    }

    /// The slot buffer pre-filled from `initial`.
    fn prefilled(&self, initial: &Assignment) -> Vec<Option<Value>> {
        self.vars.iter().map(|v| initial.get(*v).copied()).collect()
    }

    /// The slot of a variable, if an atom mentions it.
    pub(crate) fn slot(&self, var: VarId) -> Option<usize> {
        self.vars.iter().position(|v| *v == var)
    }

    /// Calls `on_match` with the slot buffer of every match of the atoms
    /// that satisfies every inequality, in the order documented on
    /// [`for_each_homomorphism`], until it returns `true`.  Returns `true`
    /// if it was stopped.
    pub(crate) fn for_each_match<V, F>(&self, view: &V, on_match: &mut F) -> bool
    where
        V: InstanceView + ?Sized,
        F: FnMut(&[Option<Value>]) -> bool,
    {
        with_buffer(self.vars.len(), None, |slots| {
            self.search(view, slots, None, &mut |slots| {
                self.inequalities_hold(slots) && on_match(slots)
            })
        })
    }

    /// True if every inequality holds on a complete match.
    fn inequalities_hold(&self, slots: &[Option<Value>]) -> bool {
        let value = |operand| match operand {
            Operand::Const(c) => c,
            Operand::Slot(s) => slots[s as usize].expect("a complete match binds every slot"),
        };
        self.inequalities.iter().all(|&(l, r)| value(l) != value(r))
    }

    /// True if some match of the atoms satisfies every inequality.
    pub(crate) fn holds<V: InstanceView + ?Sized>(&self, view: &V) -> bool {
        self.for_each_match(view, &mut |_| true)
    }

    /// True if some match on `view` that maps at least one atom onto a fact
    /// of `seeds` satisfies every inequality.  Every seed fact must also be
    /// a fact of `view`.
    ///
    /// The seeded entry of the kernel: each atom in turn is pinned to each
    /// seed fact of its relation, and the other atoms are searched over the
    /// whole view exactly as [`SlotPlan::for_each_match`] searches them
    /// (same static/dynamic levels, inequalities checked on each complete
    /// match).  When `view` is an old fact set plus the seeds, a match of
    /// the plan either lies wholly in the old facts or is found here — the
    /// semi-naive split the layered guard evaluation
    /// ([`crate::CompiledSentence::holds_layered`]) builds on.
    pub(crate) fn holds_through<V: InstanceView + ?Sized>(
        &self,
        view: &V,
        seeds: &[&dyn InstanceView],
    ) -> bool {
        with_buffer(self.vars.len(), None, |slots| {
            for (index, atom) in self.atoms.iter().enumerate() {
                for seed in seeds {
                    for tuple in seed.tuples_of(atom.predicate) {
                        if pin(&atom.terms, tuple.values(), slots)
                            && self.search(view, slots, Some(index), &mut |slots| {
                                self.inequalities_hold(slots)
                            })
                        {
                            return true;
                        }
                        slots.fill(None);
                    }
                }
            }
            false
        })
    }

    /// Enumerates the matches extending the bindings already in `slots`, in
    /// the order documented on [`for_each_homomorphism`]; `on_match` sees
    /// the complete slot buffer and returns `true` to stop.  Returns `true`
    /// if it was stopped.  A `pinned` atom is left out of the search: the
    /// caller has already matched it.
    fn search<V, F>(
        &self,
        view: &V,
        slots: &mut [Option<Value>],
        pinned: Option<usize>,
        on_match: &mut F,
    ) -> bool
    where
        V: InstanceView + ?Sized,
        F: FnMut(&[Option<Value>]) -> bool,
    {
        with_buffer(self.vars.len(), 0u32, |trail| {
            with_buffer(self.atoms.len(), (0usize, 0u32), |remaining| {
                // (relation size, atom index) per searched atom, in query
                // order.
                let mut len = 0;
                for (i, atom) in self.atoms.iter().enumerate() {
                    if pinned != Some(i) {
                        remaining[len] = (view.count_of(atom.predicate), i as u32);
                        len += 1;
                    }
                }
                let remaining = &mut remaining[..len];
                let mut kernel = Kernel {
                    atoms: &self.atoms,
                    view,
                    slots,
                    trail,
                    trail_len: 0,
                    on_match,
                };
                if remaining
                    .iter()
                    .all(|&(count, _)| count < crate::index::INDEX_CUTOFF)
                {
                    // Below the cutoff every selectivity estimate is the
                    // relation size, so the dynamic argmin reduces to this
                    // stable ascending-size order: take it once.
                    remaining.sort_by_key(|&(count, _)| count);
                    kernel.static_level(remaining)
                } else {
                    kernel.dynamic_level(remaining)
                }
            })
        })
    }
}

/// Binds the free slots of `terms` to a tuple's `values`: true when the
/// tuple matches (arity, constants, repeated variables).  On a mismatch the
/// slots are left partially bound.
fn pin(terms: &[Operand], values: &[Value], slots: &mut [Option<Value>]) -> bool {
    terms.len() == values.len()
        && terms
            .iter()
            .zip(values)
            .all(|(operand, value)| match *operand {
                Operand::Const(c) => c == *value,
                Operand::Slot(s) => *slots[s as usize].get_or_insert(*value) == *value,
            })
}

/// The mutable state of one [`SlotPlan::search`].
struct Kernel<'a, V: ?Sized, F> {
    atoms: &'a [PlanAtom],
    view: &'a V,
    slots: &'a mut [Option<Value>],
    /// The slots bound by the search, in binding order (`trail_len` long);
    /// pre-filled slots are never on it.
    trail: &'a mut [u32],
    trail_len: usize,
    on_match: &'a mut F,
}

impl<V, F> Kernel<'_, V, F>
where
    V: InstanceView + ?Sized,
    F: FnMut(&[Option<Value>]) -> bool,
{
    fn value_of(&self, operand: Operand) -> Option<Value> {
        match operand {
            Operand::Const(c) => Some(c),
            Operand::Slot(s) => self.slots[s as usize],
        }
    }

    /// Matches `terms` against a tuple's values, binding free slots; on a
    /// mismatch the caller undoes the partial bindings.
    fn unify(&mut self, terms: &[Operand], values: &[Value]) -> bool {
        for (operand, value) in terms.iter().zip(values) {
            match *operand {
                Operand::Const(c) => {
                    if c != *value {
                        return false;
                    }
                }
                Operand::Slot(s) => match self.slots[s as usize] {
                    Some(bound) => {
                        if bound != *value {
                            return false;
                        }
                    }
                    None => {
                        self.slots[s as usize] = Some(*value);
                        self.trail[self.trail_len] = s;
                        self.trail_len += 1;
                    }
                },
            }
        }
        true
    }

    /// Unbinds every slot bound since the trail was `mark` long.
    fn undo(&mut self, mark: usize) {
        while self.trail_len > mark {
            self.trail_len -= 1;
            self.slots[self.trail[self.trail_len] as usize] = None;
        }
    }

    /// The small-instance order: `remaining` is already sorted, take its
    /// head and scan the relation with a per-tuple arity check.
    fn static_level(&mut self, remaining: &[(usize, u32)]) -> bool {
        let Some((&(_, index), rest)) = remaining.split_first() else {
            return (self.on_match)(self.slots);
        };
        let atoms = self.atoms;
        let atom = &atoms[index as usize];
        let mark = self.trail_len;
        for tuple in self.view.tuples_of(atom.predicate) {
            if tuple.arity() != atom.terms.len() {
                continue;
            }
            if self.unify(&atom.terms, tuple.values()) && self.static_level(rest) {
                return true;
            }
            self.undo(mark);
        }
        false
    }

    /// The candidate-count estimate of an atom of `count` tuples: its size
    /// when nothing is bound or the relation is below the cutoff, the
    /// minimum bound-position selectivity otherwise.
    fn estimate(&self, atom: &PlanAtom, count: usize) -> usize {
        if count < crate::index::INDEX_CUTOFF {
            return count;
        }
        let mut estimate: Option<usize> = None;
        for (position, operand) in atom.terms.iter().enumerate() {
            if let Some(value) = self.value_of(*operand) {
                let selectivity = self.view.selectivity(atom.predicate, position, &value);
                estimate = Some(estimate.map_or(selectivity, |e| e.min(selectivity)));
            }
        }
        estimate.unwrap_or(count)
    }

    /// The large-instance order: pick the remaining atom with the smallest
    /// estimate (the earliest in query order on ties), rotate it to the
    /// front — which keeps the others in query order — and recurse.
    fn dynamic_level(&mut self, remaining: &mut [(usize, u32)]) -> bool {
        if remaining.is_empty() {
            return (self.on_match)(self.slots);
        }
        let mut best = 0;
        let mut best_estimate = usize::MAX;
        for (i, &(count, index)) in remaining.iter().enumerate() {
            let estimate = self.estimate(&self.atoms[index as usize], count);
            if estimate < best_estimate {
                best = i;
                best_estimate = estimate;
            }
        }
        remaining[..=best].rotate_right(1);
        let (&mut (_, index), rest) = remaining.split_first_mut().expect("remaining is non-empty");
        let atoms = self.atoms;
        let stopped = self.dynamic_atom(&atoms[index as usize], rest);
        remaining[..=best].rotate_left(1);
        stopped
    }

    /// Tries every candidate tuple of `atom`, recursing on `rest`.
    fn dynamic_atom(&mut self, atom: &PlanAtom, rest: &mut [(usize, u32)]) -> bool {
        let arity = atom.terms.len();
        let known_arity = self.view.known_uniform_arity(atom.predicate);
        if known_arity.is_some_and(|a| a != arity) {
            // Arity check hoisted to the relation level: nothing can match.
            return false;
        }
        let check_arity = known_arity != Some(arity);
        let view = self.view;
        let mark = self.trail_len;
        with_buffer(arity, (0usize, Value::Int(0)), |bound| {
            let mut len = 0;
            for (position, operand) in atom.terms.iter().enumerate() {
                if let Some(value) = self.value_of(*operand) {
                    bound[len] = (position, value);
                    len += 1;
                }
            }
            let bound = &bound[..len];
            let candidates = if bound.is_empty() {
                crate::index::MatchIter::all(view.tuples_of(atom.predicate))
            } else {
                view.tuples_matching_all(atom.predicate, bound)
            };
            for tuple in candidates {
                if check_arity && tuple.arity() != arity {
                    continue;
                }
                if self.unify(&atom.terms, tuple.values()) && self.dynamic_level(rest) {
                    return true;
                }
                self.undo(mark);
            }
            false
        })
    }
}

/// True if there is a homomorphism from `atoms` into `instance` extending
/// `initial`.
#[must_use]
pub fn exists_homomorphism<V: InstanceView + ?Sized>(
    atoms: &[Atom],
    instance: &V,
    initial: &Assignment,
) -> bool {
    let plan = SlotPlan::new(atoms, &[]);
    let mut slots = plan.prefilled(initial);
    plan.search(instance, &mut slots, None, &mut |_| true)
}

/// Macro building a [`ConjunctiveQuery`]: `cq!([x, y] <- atom1, atom2)` for a
/// query with head variables, or `cq!(<- atom1, atom2)` for a boolean query.
///
/// ```
/// use accltl_relational::{atom, cq, VarId};
/// let q = cq!([n] <- atom!("Address"; s, p, n, h));
/// assert_eq!(q.head, vec![VarId::new("n")]);
/// let b = cq!(<- atom!("Mobile#"; n, p, s, ph));
/// assert!(b.is_boolean());
/// ```
#[macro_export]
macro_rules! cq {
    ([$($h:ident),* $(,)?] <- $($a:expr),+ $(,)?) => {
        $crate::ConjunctiveQuery::with_head(vec![$(stringify!($h)),*], vec![$($a),+])
    };
    (<- $($a:expr),+ $(,)?) => {
        $crate::ConjunctiveQuery::boolean(vec![$($a),+])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{atom, tuple};

    fn directory_instance() -> Instance {
        let mut inst = Instance::new();
        inst.add_fact("Mobile#", tuple!["Smith", "OX13QD", "Parks Rd", 5551212]);
        inst.add_fact("Address", tuple!["Parks Rd", "OX13QD", "Smith", 13]);
        inst.add_fact("Address", tuple!["Parks Rd", "OX13QD", "Jones", 16]);
        inst
    }

    #[test]
    fn boolean_query_evaluation() {
        let inst = directory_instance();
        let q = cq!(<- atom!("Address"; s, p, @"Jones", h));
        assert!(q.holds(&inst));
        let q_missing = cq!(<- atom!("Address"; s, p, @"Nobody", h));
        assert!(!q_missing.holds(&inst));
    }

    #[test]
    fn query_with_head_projects_answers() {
        let inst = directory_instance();
        let q = cq!([n] <- atom!("Address"; s, p, n, h));
        let answers = q.evaluate(&inst);
        assert_eq!(answers.len(), 2);
        assert!(answers.contains(&tuple!["Smith"]));
        assert!(answers.contains(&tuple!["Jones"]));
    }

    #[test]
    fn join_across_relations() {
        let inst = directory_instance();
        // Names that have both a mobile entry and an address entry.
        let q = cq!([n] <-
            atom!("Mobile#"; n, p, s, ph),
            atom!("Address"; s2, p2, n, h));
        let answers = q.evaluate(&inst);
        assert_eq!(answers.len(), 1);
        assert!(answers.contains(&tuple!["Smith"]));
    }

    #[test]
    fn join_variable_forces_agreement() {
        let mut inst = Instance::new();
        inst.add_fact("R", tuple!["a", "b"]);
        inst.add_fact("S", tuple!["c", "d"]);
        let q = cq!(<- atom!("R"; x, y), atom!("S"; y, z));
        assert!(!q.holds(&inst));
        inst.add_fact("S", tuple!["b", "d"]);
        assert!(q.holds(&inst));
    }

    #[test]
    fn validation_detects_unsafe_head() {
        let ok = cq!([x] <- atom!("R"; x, y));
        assert!(ok.validate().is_ok());
        let bad = ConjunctiveQuery::with_head(vec!["z"], vec![atom!("R"; x, y)]);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn canonical_instance_freezes_variables_and_keeps_constants() {
        let q = cq!(<- atom!("R"; x, @"c"), atom!("S"; x, y));
        let (canon, freeze) = q.canonical_instance();
        assert_eq!(canon.fact_count(), 2);
        assert_eq!(freeze.len(), 2);
        // The query itself maps homomorphically into its canonical database.
        assert!(q.holds(&canon));
        // The constant survives freezing.
        assert!(canon
            .tuples("R")
            .any(|t| t.get(1) == Some(&Value::str("c"))));
    }

    #[test]
    fn find_homomorphism_respects_initial_assignment() {
        let inst = directory_instance();
        let q = cq!([n] <- atom!("Address"; s, p, n, h));
        let mut fixed = Assignment::new();
        fixed.insert("n", Value::str("Jones"));
        let hom = q.find_homomorphism(&inst, &fixed).unwrap();
        assert_eq!(hom["n"], Value::str("Jones"));
        assert_eq!(hom["h"], Value::Int(16));

        fixed.insert("n", Value::str("Nobody"));
        assert!(q.find_homomorphism(&inst, &fixed).is_none());
    }

    #[test]
    fn rename_predicates_builds_pre_variant() {
        let q = cq!(<- atom!("Address"; s, p, n, h));
        let pre = q.rename_predicates(|r| format!("{r}_pre"));
        assert_eq!(pre.atoms[0].predicate, "Address_pre");
    }

    #[test]
    fn evaluation_on_empty_instance_is_empty() {
        let q = cq!([x] <- atom!("R"; x));
        assert!(q.evaluate(&Instance::new()).is_empty());
        assert!(!q.holds(&Instance::new()));
    }

    #[test]
    fn duplicate_variable_in_atom_requires_equal_columns() {
        let mut inst = Instance::new();
        inst.add_fact("R", tuple!["a", "b"]);
        let q = cq!(<- atom!("R"; x, x));
        assert!(!q.holds(&inst));
        inst.add_fact("R", tuple!["c", "c"]);
        assert!(q.holds(&inst));
    }

    #[test]
    fn display_is_rule_like() {
        let q = cq!([x] <- atom!("R"; x, y));
        assert_eq!(q.to_string(), "Q(x) :- R(x, y)");
    }
}
