//! Positive existential first-order formulas and unions of conjunctive
//! queries.
//!
//! The paper's transition language `FO∃+Acc` consists of positive existential
//! sentences over the `SchAcc` vocabulary; this module provides the generic
//! formula AST ([`PosFormula`]) over *any* relational vocabulary, its
//! evaluation, and its compilation into a union of conjunctive queries
//! (disjunctive normal form), which is what the containment and
//! canonical-database machinery operates on.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::BuildHasherDefault;
use std::sync::{OnceLock, RwLock};

use crate::atom::Atom;
use crate::cq::{ConjunctiveQuery, SlotPlan};
use crate::error::RelationalError;
use crate::guard_cache::{sentence_cache_id, GuardCache};
use crate::index::FxHasher;
use crate::inequality::InequalityCq;
use crate::instance::Instance;
use crate::overlay::InstanceView;
use crate::symbols::{RelId, VarId};
use crate::term::Term;
use crate::transition::TransitionView;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::Result;

/// A positive existential first-order formula, optionally with inequalities
/// (`FO∃+` / `FO∃+,≠` in the paper's notation).
///
/// Negation is *not* part of this AST: the paper's languages apply negation
/// only at the level of whole sentences (inside `AccLTL` formulas or
/// A-automaton guards), which is handled by the `accltl-logic` and
/// `accltl-automata` crates.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PosFormula {
    /// A relational atom.
    Atom(Atom),
    /// Equality between two terms.
    Eq(Term, Term),
    /// Inequality between two terms (only in the `≠` extension of Section 5).
    Neq(Term, Term),
    /// Conjunction.
    And(Vec<PosFormula>),
    /// Disjunction.
    Or(Vec<PosFormula>),
    /// Existential quantification.
    Exists(Vec<VarId>, Box<PosFormula>),
    /// The formula that is always true (empty conjunction).
    True,
    /// The formula that is always false (empty disjunction).
    False,
}

impl PosFormula {
    /// Atom constructor.
    #[must_use]
    pub fn atom(atom: Atom) -> Self {
        PosFormula::Atom(atom)
    }

    /// Conjunction constructor, flattening trivial cases.
    #[must_use]
    pub fn and(parts: Vec<PosFormula>) -> Self {
        let mut flattened = Vec::new();
        for p in parts {
            match p {
                PosFormula::True => {}
                PosFormula::False => return PosFormula::False,
                PosFormula::And(inner) => flattened.extend(inner),
                other => flattened.push(other),
            }
        }
        match flattened.len() {
            0 => PosFormula::True,
            1 => flattened.into_iter().next().expect("len checked"),
            _ => PosFormula::And(flattened),
        }
    }

    /// Disjunction constructor, flattening trivial cases.
    #[must_use]
    pub fn or(parts: Vec<PosFormula>) -> Self {
        let mut flattened = Vec::new();
        for p in parts {
            match p {
                PosFormula::False => {}
                PosFormula::True => return PosFormula::True,
                PosFormula::Or(inner) => flattened.extend(inner),
                other => flattened.push(other),
            }
        }
        match flattened.len() {
            0 => PosFormula::False,
            1 => flattened.into_iter().next().expect("len checked"),
            _ => PosFormula::Or(flattened),
        }
    }

    /// Existential quantification constructor.
    #[must_use]
    pub fn exists(vars: Vec<impl Into<VarId>>, body: PosFormula) -> Self {
        let vars: Vec<VarId> = vars.into_iter().map(Into::into).collect();
        if vars.is_empty() {
            body
        } else {
            PosFormula::Exists(vars, Box::new(body))
        }
    }

    /// Existentially closes the formula over all its free variables,
    /// producing a sentence.
    #[must_use]
    pub fn existential_closure(self) -> Self {
        let free: Vec<VarId> = self.free_variables().into_iter().collect();
        PosFormula::exists(free, self)
    }

    /// The number of atoms, equalities and inequalities (a size measure used
    /// in complexity sweeps).
    #[must_use]
    pub fn size(&self) -> usize {
        match self {
            PosFormula::Atom(_) | PosFormula::Eq(..) | PosFormula::Neq(..) => 1,
            PosFormula::And(ps) | PosFormula::Or(ps) => ps.iter().map(PosFormula::size).sum(),
            PosFormula::Exists(_, body) => body.size(),
            PosFormula::True | PosFormula::False => 0,
        }
    }

    /// True if the formula contains at least one inequality.
    #[must_use]
    pub fn has_inequalities(&self) -> bool {
        match self {
            PosFormula::Neq(..) => true,
            PosFormula::Atom(_) | PosFormula::Eq(..) | PosFormula::True | PosFormula::False => {
                false
            }
            PosFormula::And(ps) | PosFormula::Or(ps) => ps.iter().any(PosFormula::has_inequalities),
            PosFormula::Exists(_, body) => body.has_inequalities(),
        }
    }

    /// The predicates mentioned in the formula.
    #[must_use]
    pub fn predicates(&self) -> BTreeSet<RelId> {
        let mut out = BTreeSet::new();
        self.collect_predicates(&mut out);
        out
    }

    fn collect_predicates(&self, out: &mut BTreeSet<RelId>) {
        match self {
            PosFormula::Atom(a) => {
                out.insert(a.predicate);
            }
            PosFormula::And(ps) | PosFormula::Or(ps) => {
                for p in ps {
                    p.collect_predicates(out);
                }
            }
            PosFormula::Exists(_, body) => body.collect_predicates(out),
            PosFormula::Eq(..) | PosFormula::Neq(..) | PosFormula::True | PosFormula::False => {}
        }
    }

    /// The constants mentioned in the formula.
    #[must_use]
    pub fn constants(&self) -> BTreeSet<Value> {
        let mut out = BTreeSet::new();
        self.collect_constants(&mut out);
        out
    }

    fn collect_constants(&self, out: &mut BTreeSet<Value>) {
        match self {
            PosFormula::Atom(a) => out.extend(a.constants()),
            PosFormula::Eq(l, r) | PosFormula::Neq(l, r) => {
                for t in [l, r] {
                    if let Term::Const(c) = t {
                        out.insert(*c);
                    }
                }
            }
            PosFormula::And(ps) | PosFormula::Or(ps) => {
                for p in ps {
                    p.collect_constants(out);
                }
            }
            PosFormula::Exists(_, body) => body.collect_constants(out),
            PosFormula::True | PosFormula::False => {}
        }
    }

    /// The free variables of the formula.
    #[must_use]
    pub fn free_variables(&self) -> BTreeSet<VarId> {
        match self {
            PosFormula::Atom(a) => a.variables(),
            PosFormula::Eq(l, r) | PosFormula::Neq(l, r) => {
                [l, r].into_iter().filter_map(Term::as_var_id).collect()
            }
            PosFormula::And(ps) | PosFormula::Or(ps) => {
                ps.iter().flat_map(PosFormula::free_variables).collect()
            }
            PosFormula::Exists(vars, body) => {
                let mut free = body.free_variables();
                for v in vars {
                    free.remove(v);
                }
                free
            }
            PosFormula::True | PosFormula::False => BTreeSet::new(),
        }
    }

    /// Renames every predicate of the formula with `f`.
    #[must_use]
    pub fn rename_predicates(&self, f: impl Fn(&str) -> String) -> PosFormula {
        fn go<F: Fn(&str) -> String>(this: &PosFormula, f: &F) -> PosFormula {
            match this {
                PosFormula::Atom(a) => {
                    PosFormula::Atom(a.with_predicate(RelId::new(&f(a.predicate.as_str()))))
                }
                PosFormula::Eq(l, r) => PosFormula::Eq(*l, *r),
                PosFormula::Neq(l, r) => PosFormula::Neq(*l, *r),
                PosFormula::And(ps) => PosFormula::And(ps.iter().map(|p| go(p, f)).collect()),
                PosFormula::Or(ps) => PosFormula::Or(ps.iter().map(|p| go(p, f)).collect()),
                PosFormula::Exists(vars, body) => {
                    PosFormula::Exists(vars.clone(), Box::new(go(body, f)))
                }
                PosFormula::True => PosFormula::True,
                PosFormula::False => PosFormula::False,
            }
        }
        go(self, &f)
    }

    /// Compiles the (inequality-free) formula into a union of conjunctive
    /// queries in disjunctive normal form.  Free variables become the head of
    /// every disjunct (in sorted order).
    ///
    /// # Errors
    /// Returns [`RelationalError::MalformedQuery`] if the formula contains an
    /// inequality; use [`PosFormula::to_inequality_union`] instead.
    pub fn to_ucq(&self) -> Result<UnionOfCqs> {
        if self.has_inequalities() {
            return Err(RelationalError::MalformedQuery(
                "formula contains inequalities; use to_inequality_union".into(),
            ));
        }
        let union = self.to_inequality_union();
        Ok(UnionOfCqs {
            disjuncts: union.into_iter().map(|icq| icq.cq).collect(),
        })
    }

    /// Compiles the formula into a union of conjunctive queries with
    /// inequalities (DNF).  Free variables become the head of every disjunct.
    #[must_use]
    pub fn to_inequality_union(&self) -> Vec<InequalityCq> {
        let head: Vec<VarId> = self.free_variables().into_iter().collect();
        let mut counter = 0usize;
        let disjuncts = dnf(self, &mut counter);
        disjuncts
            .into_iter()
            .filter_map(|d| d.into_inequality_cq(&head))
            .collect()
    }

    /// Evaluates the *sentence* (closed formula) on an instance (or any
    /// [`InstanceView`], such as a configuration overlay).
    ///
    /// Formulas with free variables are existentially closed first, matching
    /// the paper's convention that `L` atoms inside `AccLTL` are sentences.
    /// Hot loops that evaluate the same sentence against many structures
    /// should go through [`CompiledSentence`], which performs the DNF
    /// compilation once.
    #[must_use]
    pub fn holds(&self, instance: &impl InstanceView) -> bool {
        CompiledSentence::compile(self).holds(instance)
    }

    /// Evaluates the formula's free variables on an instance, returning the
    /// set of satisfying assignments projected onto the sorted free-variable
    /// list.
    #[must_use]
    pub fn evaluate(&self, instance: &impl InstanceView) -> BTreeSet<Tuple> {
        self.to_inequality_union()
            .iter()
            .flat_map(|icq| icq.evaluate(instance))
            .collect()
    }
}

impl fmt::Display for PosFormula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PosFormula::Atom(a) => write!(f, "{a}"),
            PosFormula::Eq(l, r) => write!(f, "{l} = {r}"),
            PosFormula::Neq(l, r) => write!(f, "{l} ≠ {r}"),
            PosFormula::And(ps) => {
                write!(f, "(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∧ ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            PosFormula::Or(ps) => {
                write!(f, "(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∨ ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            PosFormula::Exists(vars, body) => {
                let names: Vec<&str> = vars.iter().map(|v| v.as_str()).collect();
                write!(f, "∃{} {body}", names.join(" "))
            }
            PosFormula::True => write!(f, "⊤"),
            PosFormula::False => write!(f, "⊥"),
        }
    }
}

/// A DNF disjunct under construction.
#[derive(Debug, Clone, Default)]
struct Disjunct {
    atoms: Vec<Atom>,
    eqs: Vec<(Term, Term)>,
    neqs: Vec<(Term, Term)>,
}

impl Disjunct {
    fn merge(mut self, other: Disjunct) -> Disjunct {
        self.atoms.extend(other.atoms);
        self.eqs.extend(other.eqs);
        self.neqs.extend(other.neqs);
        self
    }

    /// Resolves equality atoms by substitution and produces a conjunctive
    /// query with inequalities; returns `None` if an equality between two
    /// distinct constants makes the disjunct unsatisfiable.
    fn into_inequality_cq(self, head: &[VarId]) -> Option<InequalityCq> {
        let mut atoms = self.atoms;
        let mut neqs = self.neqs;
        let mut eqs = self.eqs;
        // Iteratively apply equalities as substitutions.
        while let Some((l, r)) = eqs.pop() {
            match (l, r) {
                (Term::Const(a), Term::Const(b)) => {
                    if a != b {
                        return None;
                    }
                }
                (Term::Var(v), t) | (t, Term::Var(v)) => {
                    // Never substitute away a head variable in favour of
                    // another variable; prefer replacing the non-head one.
                    let (from, to) = match &t {
                        Term::Var(other) if head.contains(&v) && !head.contains(other) => {
                            (*other, Term::Var(v))
                        }
                        _ => (v, t),
                    };
                    let subst = |name: VarId| -> Option<Term> { (name == from).then_some(to) };
                    atoms = atoms.iter().map(|a| a.substitute(subst)).collect();
                    let map_term = |term: &Term| -> Term {
                        match term {
                            Term::Var(name) if *name == from => to,
                            other => *other,
                        }
                    };
                    eqs = eqs
                        .iter()
                        .map(|(a, b)| (map_term(a), map_term(b)))
                        .collect();
                    neqs = neqs
                        .iter()
                        .map(|(a, b)| (map_term(a), map_term(b)))
                        .collect();
                }
            }
        }
        // A syntactic inequality between identical terms is unsatisfiable.
        if neqs.iter().any(|(a, b)| a == b) {
            return None;
        }
        // Head variables eliminated by equality substitution are re-introduced
        // via a generated equality atom: this only happens when a head
        // variable was equated to a constant, in which case the head variable
        // is simply absent from the disjunct. We keep such disjuncts only when
        // every head variable is still present (the paper's sentences have no
        // free variables, so this corner case does not arise there).
        let cq = ConjunctiveQuery::with_head(head.to_vec(), atoms);
        let body_vars = cq.body_variables();
        if !cq.head.iter().all(|h| body_vars.contains(h)) {
            return None;
        }
        Some(InequalityCq::new(cq, neqs))
    }
}

/// Converts a formula to DNF, renaming bound variables apart to avoid capture.
fn dnf(formula: &PosFormula, counter: &mut usize) -> Vec<Disjunct> {
    match formula {
        PosFormula::Atom(a) => vec![Disjunct {
            atoms: vec![a.clone()],
            ..Disjunct::default()
        }],
        PosFormula::Eq(l, r) => vec![Disjunct {
            eqs: vec![(*l, *r)],
            ..Disjunct::default()
        }],
        PosFormula::Neq(l, r) => vec![Disjunct {
            neqs: vec![(*l, *r)],
            ..Disjunct::default()
        }],
        PosFormula::True => vec![Disjunct::default()],
        PosFormula::False => Vec::new(),
        PosFormula::Or(ps) => ps.iter().flat_map(|p| dnf(p, counter)).collect(),
        PosFormula::And(ps) => {
            let mut acc = vec![Disjunct::default()];
            for p in ps {
                let branches = dnf(p, counter);
                let mut next = Vec::with_capacity(acc.len() * branches.len());
                for a in &acc {
                    for b in &branches {
                        next.push(a.clone().merge(b.clone()));
                    }
                }
                acc = next;
            }
            acc
        }
        PosFormula::Exists(vars, body) => {
            // Rename the bound variables apart so that distinct quantifier
            // scopes never clash after flattening.
            *counter += 1;
            let tag = *counter;
            let renamed = rename_bound(body, vars, tag);
            dnf(&renamed, counter)
        }
    }
}

fn rename_bound(body: &PosFormula, vars: &[VarId], tag: usize) -> PosFormula {
    let rename = |name: &str| -> String {
        if vars.iter().any(|v| *v == name) {
            format!("{name}\u{B7}{tag}")
        } else {
            name.to_owned()
        }
    };
    map_vars(body, &rename)
}

fn map_vars<F: Fn(&str) -> String>(formula: &PosFormula, rename: &F) -> PosFormula {
    match formula {
        PosFormula::Atom(a) => PosFormula::Atom(a.rename_vars(rename)),
        PosFormula::Eq(l, r) => PosFormula::Eq(l.rename_var(rename), r.rename_var(rename)),
        PosFormula::Neq(l, r) => PosFormula::Neq(l.rename_var(rename), r.rename_var(rename)),
        PosFormula::And(ps) => PosFormula::And(ps.iter().map(|p| map_vars(p, rename)).collect()),
        PosFormula::Or(ps) => PosFormula::Or(ps.iter().map(|p| map_vars(p, rename)).collect()),
        PosFormula::Exists(vars, body) => {
            // Bound variables of inner quantifiers are renamed consistently.
            let new_vars: Vec<VarId> = vars
                .iter()
                .map(|v| VarId::new(&rename(v.as_str())))
                .collect();
            PosFormula::Exists(new_vars, Box::new(map_vars(body, rename)))
        }
        PosFormula::True => PosFormula::True,
        PosFormula::False => PosFormula::False,
    }
}

/// A positive sentence compiled to its DNF of conjunctive queries with
/// inequalities, each disjunct compiled to a slot plan, ready for repeated
/// evaluation.
///
/// [`PosFormula::holds`] existentially closes and DNF-compiles the formula on
/// every call; the bounded searches evaluate the *same* handful of sentences
/// against thousands of transition structures, so they compile each sentence
/// once up front and reuse it through this type.  Compilation numbers each
/// disjunct's variables into slots and turns its inequalities into
/// slot/constant pairs (an inequality on a variable no atom binds is
/// vacuously true and dropped).  [`CompiledSentence::holds`] then runs the
/// plans on a stack slot buffer (the heap above 16 variables) through the
/// homomorphism kernel of [`mod@crate::cq`]: no map, no per-tuple allocation,
/// and the per-position value indexes ([`crate::index`]) of whatever view it
/// runs against — for overlay-backed transition structures, posting lists
/// shared with every other overlay over the same `Arc` base.
#[derive(Debug, Clone)]
pub struct CompiledSentence {
    /// One slot plan per DNF disjunct.
    plans: Vec<SlotPlan>,
    /// The closed source formula (kept for the lazy cache metadata below).
    closed: PosFormula,
    /// Cache metadata, resolved on the first [`CompiledSentence::holds_cached`]
    /// call — plain [`CompiledSentence::holds`] users (and with them
    /// [`PosFormula::holds`], which compiles per call) never touch the
    /// process-wide id registry.
    meta: OnceLock<CacheMeta>,
}

/// Lazily computed memoization metadata of a [`CompiledSentence`].
#[derive(Debug, Clone)]
struct CacheMeta {
    /// Structural cache id: equal closed formulas resolve to equal ids
    /// (process-wide registry), so independently compiled copies of one
    /// guard share verdict-cache entries.
    id: u32,
    /// The predicates the closed formula mentions, sorted — the restriction
    /// list for [`CompiledSentence::holds_cached`] fingerprints (a verdict
    /// depends only on the facts of these relations).
    predicates: Vec<RelId>,
}

impl CompiledSentence {
    /// Existentially closes and DNF-compiles a formula.
    #[must_use]
    pub fn compile(formula: &PosFormula) -> Self {
        let closed = formula.clone().existential_closure();
        let plans = closed
            .to_inequality_union()
            .iter()
            .map(|icq| SlotPlan::new(&icq.cq.atoms, &icq.inequalities))
            .collect();
        CompiledSentence {
            plans,
            closed,
            meta: OnceLock::new(),
        }
    }

    /// True if the compiled sentence holds on the instance (or any
    /// [`InstanceView`]).  Agrees with [`PosFormula::holds`] on the source
    /// formula by construction.
    #[must_use]
    pub fn holds(&self, instance: &impl InstanceView) -> bool {
        self.plans.iter().any(|plan| plan.holds(instance))
    }

    fn meta(&self) -> &CacheMeta {
        self.meta.get_or_init(|| CacheMeta {
            id: sentence_cache_id(&self.closed),
            predicates: self.closed.predicates().into_iter().collect(),
        })
    }

    /// The structural cache id of the sentence (equal closed formulas share
    /// one id, process-wide).
    #[must_use]
    pub fn id(&self) -> u32 {
        self.meta().id
    }

    /// The sorted predicate list of the sentence.
    #[must_use]
    pub fn predicates(&self) -> &[RelId] {
        &self.meta().predicates
    }

    /// True if some match of the sentence on `view` maps at least one atom
    /// onto a fact of `seeds` (which must be facts of `view`); see
    /// [`CompiledSentence::holds_layered`].
    fn holds_through(&self, view: &impl InstanceView, seeds: &[&dyn InstanceView]) -> bool {
        self.plans
            .iter()
            .any(|plan| plan.holds_through(view, seeds))
    }

    /// [`CompiledSentence::holds`] on a transition structure — a root
    /// layer, a state layer and a candidate's facts, see
    /// [`crate::transition`] — deciding the root layer once per run instead
    /// of once per structure.
    ///
    /// The sentence is positive existential, so it is monotone: adding
    /// facts never falsifies it, and a match on the whole structure either
    /// lies wholly in the root layer or maps at least one atom onto a fact
    /// of the state or candidate layer.  So the verdict is the root verdict
    /// (looked up in, or added to, `roots`, which must belong to this root
    /// layer) OR a match seeded by a state or candidate fact — exactly
    /// [`CompiledSentence::holds`] on the structure.
    ///
    /// Seeding runs one search per atom and seed fact, so it only pays
    /// while the seeds are few next to the root: when the state and
    /// candidate layers together hold at least as many facts as the root,
    /// the structure is searched as a whole instead (an empty root —
    /// emptiness questions over an empty `I_0` — always takes this branch).
    #[must_use]
    pub fn holds_layered(&self, structure: &TransitionView<'_>, roots: &RootVerdicts) -> bool {
        let (root, state) = (structure.layers().base(), structure.layers().delta());
        let candidate = structure.candidate();
        if state.fact_count() + candidate.fact_count() >= root.fact_count() {
            return self.holds(structure);
        }
        roots.holds(self, root) || self.holds_through(structure, &[state, candidate])
    }

    /// [`CompiledSentence::holds`], memoized through a [`GuardCache`].
    ///
    /// The cache key is the sentence's id paired with the view's
    /// [`StructureKey`](crate::guard_cache::StructureKey) *restricted to the
    /// sentence's predicates* — a positive existential sentence only ever
    /// reads facts of relations it mentions, so structures differing
    /// elsewhere (typically only in the `IsBind` fact) legitimately share a
    /// verdict.  Keys are content-addressed, so structurally equal
    /// configurations share entries across states, overlay chains and batch
    /// properties.  Falls back to plain evaluation, with identical verdicts
    /// by construction, when `memoize` is false (the caller's per-state
    /// [`crate::guard_cache::GUARD_CACHE_CUTOFF`] size gate, usually
    /// [`GuardCache::memoize_gate`] — tiny evaluations beat a probe),
    /// when the cache is disabled, or when the view cannot produce a key;
    /// every consult is counted either way, so cached and uncached runs
    /// report the same `hits + misses` total.
    ///
    /// The search oracles consult through [`CompiledSentence::holds_cached_by`]
    /// instead, evaluating misses and unmemoized consults layer by layer
    /// ([`CompiledSentence::holds_layered`]): the sentence is positive
    /// existential, hence monotone, so on a structure that only adds state
    /// and candidate facts to a root layer it holds iff it holds on the
    /// root (decided once per run) or some match maps an atom onto an added
    /// fact; when the added facts are at least as many as the root's, the
    /// structure is searched whole.  Same verdict, same key, same count.
    #[must_use]
    pub fn holds_cached(
        &self,
        structure: &impl InstanceView,
        cache: &GuardCache,
        memoize: bool,
    ) -> bool {
        self.holds_cached_by(structure, cache, memoize, || self.holds(structure))
    }

    /// [`CompiledSentence::holds_cached`] with `evaluate` deciding the
    /// sentence on `structure` whenever the cache cannot answer (a miss,
    /// or the unmemoized path).  `evaluate` must agree with
    /// [`CompiledSentence::holds`] on `structure` — the search oracles pass
    /// the layered evaluation ([`CompiledSentence::holds_layered`]) — so
    /// keys, lookups and consult counts are those of `holds_cached`.
    #[must_use]
    pub fn holds_cached_by(
        &self,
        structure: &impl InstanceView,
        cache: &GuardCache,
        memoize: bool,
        evaluate: impl FnOnce() -> bool,
    ) -> bool {
        if memoize && cache.enabled() {
            let meta = self.meta();
            if let Some(key) = structure.guard_key(&meta.predicates) {
                if let Some(verdict) = cache.lookup(meta.id, &key) {
                    return verdict;
                }
                let verdict = evaluate();
                cache.insert(meta.id, key, verdict);
                return verdict;
            }
        }
        cache.note_uncached();
        evaluate()
    }
}

/// The verdicts of sentences on one root layer, keyed by
/// [`CompiledSentence::id`]: the root half of
/// [`CompiledSentence::holds_layered`].
///
/// Filled lazily, one full search per sentence, and shared by every
/// structure over the root layer; the lock is never held across a search,
/// so two threads may decide one sentence twice, with the same verdict.
///
/// A root that grows (a monitoring session's responses) gets a successor
/// table through [`RootVerdicts::grown`].  By monotonicity its verdicts
/// follow from the old ones: a sentence true on the old root stays true,
/// and one false there holds on the grown root iff some match maps an atom
/// onto a fact the growth added.  The successor re-decides a false entry
/// that way, on first use; a false entry not consulted before the next
/// growth is dropped there, and decided afresh if consulted again.
#[derive(Debug, Default)]
pub struct RootVerdicts {
    /// Sentence id → (verdict, whether it was decided on this table's root
    /// rather than on the root before the last growth).  True verdicts are
    /// always current.
    verdicts: RwLock<HashMap<u32, (bool, bool), BuildHasherDefault<FxHasher>>>,
    /// The facts the last growth added (none for a fresh root).
    added: Instance,
}

impl RootVerdicts {
    /// An empty table for a fresh root.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The table of the root grown by `added` (facts it did not hold)
    /// beyond the root this table belongs to: true entries, and false
    /// entries to re-decide through `added`.
    #[must_use]
    pub fn grown(&self, added: Instance) -> RootVerdicts {
        let verdicts = self
            .verdicts
            .read()
            .expect("root verdicts poisoned")
            .iter()
            .filter(|(_, &(verdict, current))| verdict || current)
            .map(|(&id, &(verdict, _))| (id, (verdict, verdict)))
            .collect();
        RootVerdicts {
            verdicts: RwLock::new(verdicts),
            added,
        }
    }

    /// The verdict of `sentence` on `root`, the root this table belongs to.
    fn holds(&self, sentence: &CompiledSentence, root: &Instance) -> bool {
        let id = sentence.id();
        let known = self
            .verdicts
            .read()
            .expect("root verdicts poisoned")
            .get(&id)
            .copied();
        let verdict = match known {
            Some((verdict, true)) => return verdict,
            Some((_, false)) => sentence.holds_through(root, &[&self.added as &dyn InstanceView]),
            None => sentence.holds(root),
        };
        self.verdicts
            .write()
            .expect("root verdicts poisoned")
            .insert(id, (verdict, true));
        verdict
    }
}

/// A union of conjunctive queries (all sharing the same head arity).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct UnionOfCqs {
    /// The disjuncts.
    pub disjuncts: Vec<ConjunctiveQuery>,
}

impl UnionOfCqs {
    /// Creates a UCQ from disjuncts.
    #[must_use]
    pub fn new(disjuncts: Vec<ConjunctiveQuery>) -> Self {
        UnionOfCqs { disjuncts }
    }

    /// A UCQ with a single disjunct.
    #[must_use]
    pub fn single(cq: ConjunctiveQuery) -> Self {
        UnionOfCqs {
            disjuncts: vec![cq],
        }
    }

    /// True if some disjunct holds on the instance (or any [`InstanceView`]).
    #[must_use]
    pub fn holds(&self, instance: &impl InstanceView) -> bool {
        self.disjuncts.iter().any(|d| d.holds(instance))
    }

    /// Evaluates all disjuncts and unions their answers.
    #[must_use]
    pub fn evaluate(&self, instance: &impl InstanceView) -> BTreeSet<Tuple> {
        self.disjuncts
            .iter()
            .flat_map(|d| d.evaluate(instance))
            .collect()
    }

    /// The number of disjuncts.
    #[must_use]
    pub fn len(&self) -> usize {
        self.disjuncts.len()
    }

    /// True if the union is empty (the always-false query).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.disjuncts.is_empty()
    }

    /// Total number of atoms across disjuncts.
    #[must_use]
    pub fn size(&self) -> usize {
        self.disjuncts.iter().map(ConjunctiveQuery::size).sum()
    }
}

impl fmt::Display for UnionOfCqs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.disjuncts.iter().enumerate() {
            if i > 0 {
                write!(f, "  ∪  ")?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;
    use crate::{atom, tuple};

    fn inst() -> Instance {
        let mut inst = Instance::new();
        inst.add_fact("R", tuple!["a", "b"]);
        inst.add_fact("S", tuple!["b"]);
        inst
    }

    #[test]
    fn constructors_simplify_trivial_cases() {
        assert_eq!(PosFormula::and(vec![]), PosFormula::True);
        assert_eq!(PosFormula::or(vec![]), PosFormula::False);
        assert_eq!(
            PosFormula::and(vec![PosFormula::True, PosFormula::atom(atom!("R"; x))]),
            PosFormula::atom(atom!("R"; x))
        );
        assert_eq!(
            PosFormula::and(vec![PosFormula::False, PosFormula::atom(atom!("R"; x))]),
            PosFormula::False
        );
        assert_eq!(
            PosFormula::or(vec![PosFormula::True, PosFormula::atom(atom!("R"; x))]),
            PosFormula::True
        );
    }

    #[test]
    fn atom_sentence_evaluation() {
        let f = PosFormula::exists(vec!["x", "y"], PosFormula::atom(atom!("R"; x, y)));
        assert!(f.holds(&inst()));
        let g = PosFormula::exists(vec!["x"], PosFormula::atom(atom!("T"; x)));
        assert!(!g.holds(&inst()));
    }

    #[test]
    fn conjunction_with_join_and_disjunction() {
        // ∃x∃y R(x,y) ∧ S(y)
        let f = PosFormula::exists(
            vec!["x", "y"],
            PosFormula::and(vec![
                PosFormula::atom(atom!("R"; x, y)),
                PosFormula::atom(atom!("S"; y)),
            ]),
        );
        assert!(f.holds(&inst()));

        // ∃x∃y R(x,y) ∧ S(x) — fails since S only holds of "b".
        let g = PosFormula::exists(
            vec!["x", "y"],
            PosFormula::and(vec![
                PosFormula::atom(atom!("R"; x, y)),
                PosFormula::atom(atom!("S"; x)),
            ]),
        );
        assert!(!g.holds(&inst()));

        let h = PosFormula::or(vec![g.clone(), f.clone()]);
        assert!(h.holds(&inst()));
    }

    #[test]
    fn equality_forces_identification() {
        // ∃x∃y R(x,y) ∧ x = y — no tuple has equal components.
        let f = PosFormula::exists(
            vec!["x", "y"],
            PosFormula::and(vec![
                PosFormula::atom(atom!("R"; x, y)),
                PosFormula::Eq(Term::var("x"), Term::var("y")),
            ]),
        );
        assert!(!f.holds(&inst()));
        let mut richer = inst();
        richer.add_fact("R", tuple!["c", "c"]);
        assert!(f.holds(&richer));
    }

    #[test]
    fn constant_equality_is_resolved_statically() {
        let sat = PosFormula::and(vec![
            PosFormula::Eq(Term::constant(1), Term::constant(1)),
            PosFormula::exists(vec!["x", "y"], PosFormula::atom(atom!("R"; x, y))),
        ]);
        assert!(sat.holds(&inst()));
        let unsat = PosFormula::and(vec![
            PosFormula::Eq(Term::constant(1), Term::constant(2)),
            PosFormula::exists(vec!["x", "y"], PosFormula::atom(atom!("R"; x, y))),
        ]);
        assert!(!unsat.holds(&inst()));
    }

    #[test]
    fn inequality_evaluation() {
        // ∃x∃y R(x,y) ∧ x ≠ y holds; with equal components only it fails.
        let f = PosFormula::exists(
            vec!["x", "y"],
            PosFormula::and(vec![
                PosFormula::atom(atom!("R"; x, y)),
                PosFormula::Neq(Term::var("x"), Term::var("y")),
            ]),
        );
        assert!(f.has_inequalities());
        assert!(f.holds(&inst()));

        let mut only_diag = Instance::new();
        only_diag.add_fact("R", tuple!["c", "c"]);
        assert!(!f.holds(&only_diag));
    }

    #[test]
    fn to_ucq_rejects_inequalities_and_builds_dnf() {
        let with_neq = PosFormula::Neq(Term::var("x"), Term::var("y"));
        assert!(with_neq.to_ucq().is_err());

        let f = PosFormula::or(vec![
            PosFormula::exists(vec!["x"], PosFormula::atom(atom!("S"; x))),
            PosFormula::exists(
                vec!["x", "y"],
                PosFormula::and(vec![
                    PosFormula::atom(atom!("R"; x, y)),
                    PosFormula::atom(atom!("S"; y)),
                ]),
            ),
        ]);
        let ucq = f.to_ucq().unwrap();
        assert_eq!(ucq.len(), 2);
        assert!(ucq.holds(&inst()));
    }

    #[test]
    fn nested_quantifiers_do_not_capture() {
        // (∃x R(x,x)) ∨ (∃x S(x)) — the two x's are independent.
        let f = PosFormula::or(vec![
            PosFormula::exists(vec!["x"], PosFormula::atom(atom!("R"; x, x))),
            PosFormula::exists(vec!["x"], PosFormula::atom(atom!("S"; x))),
        ]);
        let ucq = f.to_ucq().unwrap();
        assert_eq!(ucq.len(), 2);
        assert!(f.holds(&inst()));
    }

    #[test]
    fn free_variable_evaluation_projects_answers() {
        // R(x, y) with free x: answers are first components.
        let f = PosFormula::exists(vec!["y"], PosFormula::atom(atom!("R"; x, y)));
        let answers = f.evaluate(&inst());
        assert_eq!(answers.len(), 1);
        assert!(answers.contains(&tuple!["a"]));
    }

    #[test]
    fn size_and_predicates_and_constants() {
        let f = PosFormula::and(vec![
            PosFormula::atom(atom!("R"; x, @"k")),
            PosFormula::or(vec![
                PosFormula::atom(atom!("S"; x)),
                PosFormula::Eq(Term::var("x"), Term::constant(3)),
            ]),
        ]);
        assert_eq!(f.size(), 3);
        assert_eq!(
            f.predicates(),
            BTreeSet::from([RelId::new("R"), RelId::new("S")])
        );
        assert_eq!(
            f.constants(),
            BTreeSet::from([Value::str("k"), Value::Int(3)])
        );
    }

    #[test]
    fn rename_predicates_recurses() {
        let f = PosFormula::exists(
            vec!["x"],
            PosFormula::or(vec![
                PosFormula::atom(atom!("R"; x)),
                PosFormula::atom(atom!("S"; x)),
            ]),
        );
        let renamed = f.rename_predicates(|p| format!("{p}_post"));
        assert_eq!(
            renamed.predicates(),
            BTreeSet::from([RelId::new("R_post"), RelId::new("S_post")])
        );
    }

    #[test]
    fn true_and_false_evaluate_correctly() {
        assert!(PosFormula::True.holds(&Instance::new()));
        assert!(!PosFormula::False.holds(&inst()));
    }

    #[test]
    fn display_is_readable() {
        let f = PosFormula::exists(
            vec!["x"],
            PosFormula::and(vec![
                PosFormula::atom(atom!("R"; x, x)),
                PosFormula::Neq(Term::var("x"), Term::constant(1)),
            ]),
        );
        let s = f.to_string();
        assert!(s.contains("∃x"));
        assert!(s.contains("≠"));
    }
}
