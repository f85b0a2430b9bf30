//! The transition vocabulary `SchAcc` and the relational structure `M(t)`
//! associated with a transition.
//!
//! For a schema `Sch`, the vocabulary `SchAcc` has two copies `Rpre`, `Rpost`
//! of each relation `R` and a predicate `IsBind_AcM` per access method, whose
//! arity is the number of input positions of the method (Section 2).  The
//! 0-ary variant `Sch0−Acc` replaces each `IsBind_AcM` by a proposition that
//! merely records *which* method was used (Section 4.2).
//!
//! A transition `t = (I, (AcM, b̄), I')` is turned into an instance over this
//! vocabulary by interpreting `Rpre` as `R` in `I`, `Rpost` as `R` in `I'`,
//! and `IsBind_AcM` as the singleton `{b̄}` (all other `IsBind` predicates
//! empty).  Formulas of the transition language are then ordinary positive
//! existential sentences evaluated over that instance by `accltl-relational`.

use std::sync::Arc;

use accltl_paths::engine::{Candidate, FactUniverse};
use accltl_paths::{AccessSchema, Transition};
use accltl_relational::symbols::SymbolTable;
use accltl_relational::{
    Atom, CandidateFacts, CompiledSentence, GuardCache, Instance, InstanceOverlay, PosFormula,
    RelId, RootVerdicts, Sym, Term, TransitionView, Tuple,
};

/// The `Rpre` predicate name for relation `relation`.
#[must_use]
pub fn pre_name(relation: &str) -> String {
    format!("{relation}\u{2039}pre\u{203a}")
}

/// The `Rpost` predicate name for relation `relation`.
#[must_use]
pub fn post_name(relation: &str) -> String {
    format!("{relation}\u{2039}post\u{203a}")
}

/// The `IsBind_AcM` predicate name for access method `method`.
#[must_use]
pub fn isbind_name(method: &str) -> String {
    format!("IsBind\u{2039}{method}\u{203a}")
}

/// If `predicate` is a `Rpre` name, returns the base relation.
#[must_use]
pub fn parse_pre(predicate: &str) -> Option<&str> {
    predicate.strip_suffix("\u{2039}pre\u{203a}")
}

/// If `predicate` is a `Rpost` name, returns the base relation.
#[must_use]
pub fn parse_post(predicate: &str) -> Option<&str> {
    predicate.strip_suffix("\u{2039}post\u{203a}")
}

/// If `predicate` is an `IsBind_AcM` name, returns the access method name.
#[must_use]
pub fn parse_isbind(predicate: &str) -> Option<&str> {
    predicate
        .strip_prefix("IsBind\u{2039}")
        .and_then(|rest| rest.strip_suffix('\u{203a}'))
}

/// The interned id of the `Rpre` copy of a relation.  Each call formats the
/// mangled name (one short `String` allocation) before the memoised pool
/// lookup; hot loops should go through a per-schema [`TransitionVocab`],
/// which caches the resolved ids and only falls back here for relations
/// outside the schema.
#[must_use]
pub fn pre_rel(relation: RelId) -> RelId {
    RelId::new(&pre_name(relation.as_str()))
}

/// The interned id of the `Rpost` copy of a relation.
#[must_use]
pub fn post_rel(relation: RelId) -> RelId {
    RelId::new(&post_name(relation.as_str()))
}

/// The interned id of the `IsBind_AcM` predicate of a method.
#[must_use]
pub fn isbind_rel(method: Sym) -> RelId {
    RelId::new(&isbind_name(method.as_str()))
}

/// The id-level `SchAcc` vocabulary of an access schema, resolved once.
///
/// The bounded searches read one transition structure per candidate
/// transition, in their innermost loop; with this table the whole
/// construction — `Rpre`/`Rpost` renames and the `IsBind` predicate — is a
/// direct dense-array index per relation ([`SymbolTable`] local indices), with
/// no string formatting, pool traffic or binary search.  Unknown relations
/// (extended vocabularies) fall back to interning.
#[derive(Debug, Clone)]
pub struct TransitionVocab {
    /// The schema's symbol table: raw ids resolve to dense indices in O(1).
    symbols: SymbolTable,
    /// Dense relation index → `Rpre` id.
    rel_pre: Vec<RelId>,
    /// Dense relation index → `Rpost` id.
    rel_post: Vec<RelId>,
    /// Dense method index → `IsBind` id.
    method_isbind: Vec<RelId>,
}

impl TransitionVocab {
    /// Resolves the pre/post/IsBind ids for every relation and method of the
    /// schema into dense per-schema arrays.
    #[must_use]
    pub fn new(schema: &AccessSchema) -> Self {
        let symbols = schema.symbols().clone();
        let rel_pre = symbols.relations().iter().map(|&r| pre_rel(r)).collect();
        let rel_post = symbols.relations().iter().map(|&r| post_rel(r)).collect();
        let method_isbind = symbols.methods().iter().map(|&m| isbind_rel(m)).collect();
        TransitionVocab {
            symbols,
            rel_pre,
            rel_post,
            method_isbind,
        }
    }

    /// The `Rpre` id of a base relation.
    #[must_use]
    pub fn pre(&self, relation: RelId) -> RelId {
        match self.symbols.relation_index(relation) {
            Some(dense) => self.rel_pre[dense],
            None => pre_rel(relation),
        }
    }

    /// The `Rpost` id of a base relation.
    #[must_use]
    pub fn post(&self, relation: RelId) -> RelId {
        match self.symbols.relation_index(relation) {
            Some(dense) => self.rel_post[dense],
            None => post_rel(relation),
        }
    }

    /// The `IsBind` id of a method.
    #[must_use]
    pub fn isbind(&self, method: Sym) -> RelId {
        match self.symbols.method_index(method) {
            Some(dense) => self.method_isbind[dense],
            None => isbind_rel(method),
        }
    }

    /// The `pre ∪ post` image of a search run's root configuration (the
    /// initial instance plus any facts assumed revealed): every fact as both
    /// its `Rpre` and its `Rpost` copy.  The bottom layer of every
    /// transition structure the run evaluates guards on, so it is built —
    /// and its digest table and value index with it — once per run, not per
    /// search state.
    #[must_use]
    pub fn root_layer(
        &self,
        root: &Instance,
        index_cutoff: usize,
        cache: &GuardCache,
    ) -> StateLayers {
        let mut image = Instance::new();
        for (rel, tuple) in root.facts() {
            image.add_fact(self.pre(rel), tuple.clone());
            image.add_fact(self.post(rel), tuple.clone());
        }
        image.set_index_cutoff(index_cutoff);
        StateLayers::new(
            InstanceOverlay::new(Arc::new(image)),
            Arc::new(RootVerdicts::new()),
            cache,
        )
    }

    /// The root layer of a root that grew by `added` (facts it did not
    /// hold) beyond the root `previous` was built from: `previous`'s image
    /// extended in place — value index and digests maintained fact by fact —
    /// when nothing else holds it, and copied first otherwise (state layers
    /// of earlier runs may still stand on it).  Its root verdicts follow
    /// from `previous`'s ([`RootVerdicts::grown`]).
    #[must_use]
    pub fn grow_root_layer(
        &self,
        previous: Arc<StateLayers>,
        added: &[(RelId, Tuple)],
        cache: &GuardCache,
    ) -> StateLayers {
        debug_assert!(
            previous.layers.delta().is_empty(),
            "only a root layer grows"
        );
        let roots = Arc::clone(&previous.roots);
        let mut image = Arc::clone(previous.layers.base());
        drop(previous);
        let grown = Arc::make_mut(&mut image);
        let mut growth = Instance::new();
        for (rel, tuple) in added {
            for image_rel in [self.pre(*rel), self.post(*rel)] {
                grown.add_fact(image_rel, tuple.clone());
                growth.add_fact(image_rel, tuple.clone());
            }
        }
        StateLayers::new(
            InstanceOverlay::new(image),
            Arc::new(roots.grown(growth)),
            cache,
        )
    }

    /// The `pre ∪ post` image of a search state's configuration `before`:
    /// `root`'s layer shared, plus a state layer holding the image of the
    /// facts `before` reveals beyond it.  Costs `O(|revealed beyond the
    /// root|)`.
    ///
    /// Only `before`'s delta is imaged, so two conditions must hold or the
    /// result silently misses facts:
    /// - `root` is what [`TransitionVocab::root_layer`] or
    ///   [`TransitionVocab::grow_root_layer`] returned (an empty delta), not
    ///   another state's layers;
    /// - `before` is an overlay whose base is the very instance `root` was
    ///   built from.
    ///
    /// Debug builds check both by fact counts.
    #[must_use]
    pub fn state_layer(
        &self,
        root: &StateLayers,
        before: &InstanceOverlay,
        index_cutoff: usize,
        cache: &GuardCache,
    ) -> StateLayers {
        debug_assert!(
            root.layers.delta().is_empty(),
            "state layers must be built over a root layer"
        );
        debug_assert_eq!(
            root.layers.base().fact_count(),
            2 * before.base().fact_count(),
            "the configuration's base must be the root's instance"
        );
        let mut layers = InstanceOverlay::new(Arc::clone(root.layers.base()));
        layers.set_index_cutoff(index_cutoff);
        for (rel, tuple) in before.delta().facts() {
            layers.push_fact(self.pre(rel), tuple.clone());
            layers.push_fact(self.post(rel), tuple.clone());
        }
        StateLayers::new(layers, Arc::clone(&root.roots), cache)
    }

    /// The transition structure `M(t)` of one candidate transition out of a
    /// search state: the state's layers, the response facts as `Rpost`
    /// copies read out of `universe`, and the `IsBind` fact over the
    /// binding (0-ary when `zero_ary`, the `Sch0−Acc` interpretation), all
    /// borrowed.  Builds nothing on the heap.
    #[must_use]
    pub fn candidate_structure<'a>(
        &self,
        state: &'a StateLayers,
        candidate: &Candidate<'a>,
        universe: &'a FactUniverse,
        zero_ary: bool,
    ) -> CandidateStructure<'a> {
        let relation = candidate.method.relation_id();
        debug_assert!(
            candidate
                .added
                .iter()
                .all(|&index| universe.fact(index).0 == relation),
            "a response holds facts of its method's relation only"
        );
        let facts = CandidateFacts {
            response_relation: self.post(relation),
            table: universe.facts(),
            response: candidate.added,
            extra_relation: self.isbind(candidate.method.name_sym()),
            extra: if zero_ary {
                Tuple::empty()
            } else {
                candidate.binding
            },
        };
        CandidateStructure {
            state,
            view: TransitionView::new(&state.layers, facts),
        }
    }
}

/// The `pre ∪ post` base shared by every candidate transition structure out
/// of one search state, in two layers: the run's root image (shared by
/// every state of the run) and the image of the facts the state revealed
/// beyond the root.  Both search oracles use it as their per-state context,
/// and read each candidate's structure over it
/// ([`TransitionVocab::candidate_structure`]).
///
/// Guards are decided on it semi-naively ([`CandidateStructure::decide`]).
/// A guard sentence is positive existential, hence monotone, and a
/// transition structure only adds facts on top of the root: the state's
/// revealed facts and the candidate's `Rpost`/`IsBind` facts.  So a match
/// on the structure lies wholly in the root image — and the sentence's
/// verdict on the root, decided once per run in the root verdict table
/// every state of the run shares, covers it — or maps an atom onto a state
/// or candidate fact, and a search seeded by those few facts finds it.
/// When those two layers hold at least as many facts as the root, seeding
/// stops paying and the structure is searched whole
/// ([`CompiledSentence::holds_layered`]).
#[derive(Debug)]
pub struct StateLayers {
    layers: Arc<InstanceOverlay>,
    /// The sentences' verdicts on the root image, shared by every state
    /// layer over it.
    roots: Arc<RootVerdicts>,
    /// The guard cache's size gate, decided once per state over the whole
    /// base (every layer counted), so the per-consult fast path is a branch.
    memoize: bool,
}

impl StateLayers {
    fn new(layers: InstanceOverlay, roots: Arc<RootVerdicts>, cache: &GuardCache) -> Self {
        StateLayers {
            memoize: cache.memoize_gate(&layers),
            layers: Arc::new(layers),
            roots,
        }
    }

    /// The layered `pre ∪ post` base.
    #[must_use]
    pub fn layers(&self) -> &InstanceOverlay {
        &self.layers
    }

    /// Whether guard verdicts over this state's candidates are memoized
    /// (the `memoize` argument of `CompiledSentence::holds_cached`).
    #[must_use]
    pub fn memoize(&self) -> bool {
        self.memoize
    }
}

/// A candidate transition's structure `M(t)`: a borrowed
/// [`TransitionView`] of its response and `IsBind` fact over its search
/// state's [`StateLayers`], built per step and dropped with it.  It always
/// stands on the layers of the state it was built from, whose root verdicts
/// [`CandidateStructure::decide`] reads.
#[derive(Debug)]
pub struct CandidateStructure<'a> {
    state: &'a StateLayers,
    view: TransitionView<'a>,
}

impl<'a> CandidateStructure<'a> {
    /// Decides `sentence` on the structure: a counted consult of `cache`
    /// ([`CompiledSentence::holds_cached_by`]) that, when the cache cannot
    /// answer, evaluates layer by layer against the state's root verdicts
    /// ([`CompiledSentence::holds_layered`]).  Agrees with
    /// [`CompiledSentence::holds_cached`] on verdict, key and consult count.
    #[must_use]
    pub fn decide(&self, sentence: &CompiledSentence, cache: &GuardCache) -> bool {
        sentence.holds_cached_by(&self.view, cache, self.state.memoize, || {
            sentence.holds_layered(&self.view, &self.state.roots)
        })
    }

    /// The structure as an [`accltl_relational::InstanceView`].
    #[must_use]
    pub fn view(&self) -> &TransitionView<'a> {
        &self.view
    }
}

/// True if the predicate is an `IsBind` predicate.
#[must_use]
pub fn is_isbind(predicate: &str) -> bool {
    parse_isbind(predicate).is_some()
}

/// Builds the relational structure `M(t)` associated with a transition.
///
/// When `zero_ary` is true the `IsBind` predicate of the transition's method
/// is interpreted as a 0-ary proposition (the empty tuple) rather than by the
/// binding, matching the `Sch0−Acc` vocabulary of Section 4.2.
#[must_use]
pub fn transition_structure(transition: &Transition, zero_ary: bool) -> Instance {
    let mut structure = transition.before.rename_relations_by(pre_rel);
    structure.union_in_place(&transition.after.rename_relations_by(post_rel));
    let bind_predicate = isbind_rel(transition.access.method);
    if zero_ary {
        structure.add_fact(bind_predicate, Tuple::default());
    } else {
        structure.add_fact(bind_predicate, transition.access.binding.clone());
    }
    structure
}

/// Builds the sequence of `SchAcc` structures for every transition of a path.
#[must_use]
pub fn path_structures(transitions: &[Transition], zero_ary: bool) -> Vec<Instance> {
    transitions
        .iter()
        .map(|t| transition_structure(t, zero_ary))
        .collect()
}

/// Convenience constructor for an atom over the `Rpre` copy of a relation.
#[must_use]
pub fn pre_atom(relation: impl Into<RelId>, terms: Vec<Term>) -> PosFormula {
    PosFormula::Atom(Atom::new(pre_rel(relation.into()), terms))
}

/// Convenience constructor for an atom over the `Rpost` copy of a relation.
#[must_use]
pub fn post_atom(relation: impl Into<RelId>, terms: Vec<Term>) -> PosFormula {
    PosFormula::Atom(Atom::new(post_rel(relation.into()), terms))
}

/// Convenience constructor for an `IsBind_AcM(t̄)` atom.
#[must_use]
pub fn isbind_atom(method: impl Into<Sym>, terms: Vec<Term>) -> PosFormula {
    PosFormula::Atom(Atom::new(isbind_rel(method.into()), terms))
}

/// Convenience constructor for the 0-ary `IsBind_AcM` proposition.
#[must_use]
pub fn isbind_prop(method: impl Into<Sym>) -> PosFormula {
    PosFormula::Atom(Atom::new(isbind_rel(method.into()), Vec::new()))
}

/// Rewrites a conjunctive query over the base schema into the same query over
/// the `Rpre` copies (the `Q^pre` of Example 2.2), as a positive formula.
#[must_use]
pub fn query_pre(query: &accltl_relational::ConjunctiveQuery) -> PosFormula {
    query_over(query, &pre_name)
}

/// Rewrites a conjunctive query over the base schema into the same query over
/// the `Rpost` copies (the `Q^post` of Example 2.3).
#[must_use]
pub fn query_post(query: &accltl_relational::ConjunctiveQuery) -> PosFormula {
    query_over(query, &post_name)
}

fn query_over(
    query: &accltl_relational::ConjunctiveQuery,
    rename: &dyn Fn(&str) -> String,
) -> PosFormula {
    PosFormula::and(
        query
            .atoms
            .iter()
            .map(|a| PosFormula::Atom(a.with_predicate(rename(a.predicate.as_str()))))
            .collect(),
    )
    .existential_closure()
}

/// Erases `IsBind` atoms from a positive formula, following the `Qf(φ)`
/// rewriting of Lemma 4.13: `IsBind ∧ ψ ⇒ ψ` and `IsBind ∨ ψ ⇒ ψ`.  The
/// result mentions only `Rpre`/`Rpost` predicates and is what the bounded
/// fact universe is built from.
#[must_use]
pub fn erase_isbind(formula: &PosFormula) -> PosFormula {
    match formula {
        PosFormula::Atom(a) if is_isbind(a.predicate.as_str()) => PosFormula::True,
        PosFormula::Atom(_)
        | PosFormula::Eq(..)
        | PosFormula::Neq(..)
        | PosFormula::True
        | PosFormula::False => formula.clone(),
        PosFormula::And(ps) => PosFormula::and(ps.iter().map(erase_isbind).collect()),
        PosFormula::Or(ps) => PosFormula::or(
            ps.iter()
                .map(|p| {
                    let erased = erase_isbind(p);
                    // An IsBind disjunct is dropped (it imposes nothing on the
                    // data), matching the paper's `IsBind ∨ ψ ⇒ ψ` rule.
                    if mentions_isbind(p) && erased == PosFormula::True {
                        PosFormula::False
                    } else {
                        erased
                    }
                })
                .collect(),
        ),
        PosFormula::Exists(vars, body) => PosFormula::exists(vars.clone(), erase_isbind(body)),
    }
}

/// True if the formula mentions any `IsBind` predicate.
#[must_use]
pub fn mentions_isbind(formula: &PosFormula) -> bool {
    formula.predicates().iter().any(|p| is_isbind(p.as_str()))
}

/// The access-method names whose `IsBind` predicate the formula mentions.
#[must_use]
pub fn isbind_methods(formula: &PosFormula) -> Vec<String> {
    formula
        .predicates()
        .iter()
        .filter_map(|p| parse_isbind(p.as_str()).map(str::to_owned))
        .collect()
}

/// True if every `IsBind` atom in the formula is 0-ary (the `Sch0−Acc`
/// vocabulary of Section 4.2).
#[must_use]
pub fn isbind_atoms_are_zero_ary(formula: &PosFormula) -> bool {
    fn walk(formula: &PosFormula) -> bool {
        match formula {
            PosFormula::Atom(a) => !is_isbind(a.predicate.as_str()) || a.arity() == 0,
            PosFormula::Eq(..) | PosFormula::Neq(..) | PosFormula::True | PosFormula::False => true,
            PosFormula::And(ps) | PosFormula::Or(ps) => ps.iter().all(walk),
            PosFormula::Exists(_, body) => walk(body),
        }
    }
    walk(formula)
}

/// Re-export of the base-relation projection of a `SchAcc` predicate: returns
/// the base relation for `Rpre`/`Rpost` names and `None` for `IsBind`.
#[must_use]
pub fn base_relation(predicate: &str) -> Option<&str> {
    parse_pre(predicate).or_else(|| parse_post(predicate))
}

/// Validates (lightweight) that a formula only mentions predicates derivable
/// from the given access schema's vocabulary.
#[must_use]
pub fn uses_only_schema_vocabulary(formula: &PosFormula, schema: &AccessSchema) -> bool {
    formula.predicates().iter().all(|p| {
        if let Some(rel) = base_relation(p.as_str()) {
            schema.schema().relation(rel).is_some()
        } else if let Some(m) = parse_isbind(p.as_str()) {
            schema.method(m).is_some()
        } else {
            false
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use accltl_paths::access::phone_directory_access_schema;
    use accltl_paths::path::response;
    use accltl_paths::{Access, AccessPath};
    use accltl_relational::{atom, cq, tuple};

    fn example_transitions() -> Vec<Transition> {
        let schema = phone_directory_access_schema();
        let path = AccessPath::new()
            .with_step(
                Access::new("AcM1", tuple!["Smith"]),
                response([tuple!["Smith", "OX13QD", "Parks Rd", 5551212]]),
            )
            .with_step(
                Access::new("AcM2", tuple!["Parks Rd", "OX13QD"]),
                response([tuple!["Parks Rd", "OX13QD", "Jones", 16]]),
            );
        path.transitions(&schema, &Instance::new()).unwrap()
    }

    /// A state prepared before the root grew keeps deciding on its own
    /// root image and verdict table, and a state over the grown root on
    /// the grown ones: neither leaves a verdict in the other's table.
    #[test]
    fn states_over_an_older_root_keep_their_own_root_verdicts() {
        let schema = phone_directory_access_schema();
        let vocab = TransitionVocab::new(&schema);
        let cache = GuardCache::with_enabled(false);
        let address = RelId::new("Address");
        let jones = tuple!["Parks Rd", "OX13QD", "Jones", 16];
        let mut initial = Instance::new();
        for house in 1..=4 {
            initial.add_fact(address, tuple!["Parks Rd", "OX13QD", "Smith", house]);
        }
        let initial = Arc::new(initial);
        let root = Arc::new(vocab.root_layer(&initial, usize::MAX, &cache));

        // A state that revealed Jones's address, and one candidate out of it.
        let mut before = InstanceOverlay::new(Arc::clone(&initial));
        before.push_fact(address, jones.clone());
        let stale = vocab.state_layer(&root, &before, usize::MAX, &cache);
        let method = schema.require_method("AcM1").unwrap();
        let binding = tuple!["Smith"];
        let universe = FactUniverse::default();
        let candidate = Candidate {
            method,
            binding: &binding,
            added: &[],
        };

        let knows_jones = CompiledSentence::compile(&PosFormula::exists(
            vec!["s", "p", "h"],
            pre_atom(
                "Address",
                vec![
                    Term::var("s"),
                    Term::var("p"),
                    Term::constant("Jones"),
                    Term::var("h"),
                ],
            ),
        ));
        let decide = |state: &StateLayers| {
            vocab
                .candidate_structure(state, &candidate, &universe, false)
                .decide(&knows_jones, &cache)
        };
        // The old root lacks Jones: its table now holds a false verdict.
        assert!(decide(&stale));

        // The session then assumes that fact, growing the root by it.
        let grown = vocab.grow_root_layer(root, &[(address, jones)], &cache);
        assert!(decide(&grown));
        assert!(decide(&stale));
    }

    #[test]
    fn name_mangling_roundtrips() {
        assert_eq!(parse_pre(&pre_name("Address")), Some("Address"));
        assert_eq!(parse_post(&post_name("Address")), Some("Address"));
        assert_eq!(parse_isbind(&isbind_name("AcM1")), Some("AcM1"));
        assert!(is_isbind(&isbind_name("AcM1")));
        assert!(!is_isbind(&pre_name("Address")));
        assert_eq!(base_relation(&pre_name("R")), Some("R"));
        assert_eq!(base_relation(&isbind_name("M")), None);
    }

    #[test]
    fn transition_structure_interprets_pre_post_and_binding() {
        let transitions = example_transitions();
        let m0 = transition_structure(&transitions[0], false);
        // Before the first access nothing is known: no pre facts.
        assert_eq!(m0.relation_size(pre_name("Mobile#")), 0);
        assert_eq!(m0.relation_size(post_name("Mobile#")), 1);
        assert!(m0.contains(isbind_name("AcM1"), &tuple!["Smith"]));
        assert_eq!(m0.relation_size(isbind_name("AcM2")), 0);

        let m1 = transition_structure(&transitions[1], false);
        assert_eq!(m1.relation_size(pre_name("Mobile#")), 1);
        assert_eq!(m1.relation_size(post_name("Address")), 1);
        assert!(m1.contains(isbind_name("AcM2"), &tuple!["Parks Rd", "OX13QD"]));
    }

    #[test]
    fn zero_ary_structure_forgets_the_binding() {
        let transitions = example_transitions();
        let m0 = transition_structure(&transitions[0], true);
        assert!(m0.contains(isbind_name("AcM1"), &Tuple::default()));
        assert!(!m0.contains(isbind_name("AcM1"), &tuple!["Smith"]));
    }

    #[test]
    fn formulas_evaluate_on_transition_structures() {
        let transitions = example_transitions();
        let m1 = transition_structure(&transitions[1], false);
        // The paper's example: an AcM1 access was done with a name appearing
        // in Address^pre — false here (this transition uses AcM2).
        let f = PosFormula::exists(
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
        );
        assert!(!f.holds(&m1));

        // But "there is a Mobile# fact before the access" does hold.
        let g = PosFormula::exists(
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
        );
        assert!(g.holds(&m1));
        assert!(!g.holds(&transition_structure(&transitions[0], false)));
    }

    #[test]
    fn query_pre_and_post_rename_predicates_and_close_existentially() {
        let q = cq!(<- atom!("Address"; s, p, @"Jones", h));
        let pre = query_pre(&q);
        assert!(pre.predicates().contains(&RelId::new(&pre_name("Address"))));
        assert!(pre.free_variables().is_empty());
        let post = query_post(&q);
        assert!(post
            .predicates()
            .contains(&RelId::new(&post_name("Address"))));
    }

    #[test]
    fn erase_isbind_follows_the_qf_rules() {
        let with_bind = PosFormula::and(vec![
            isbind_prop("AcM1"),
            PosFormula::exists(vec!["x"], pre_atom("Address", vec![Term::var("x")])),
        ]);
        let erased = erase_isbind(&with_bind);
        assert!(!mentions_isbind(&erased));
        assert!(erased
            .predicates()
            .contains(&RelId::new(&pre_name("Address"))));

        let or_bind = PosFormula::or(vec![
            isbind_prop("AcM1"),
            PosFormula::exists(vec!["x"], pre_atom("Address", vec![Term::var("x")])),
        ]);
        let erased_or = erase_isbind(&or_bind);
        assert!(!mentions_isbind(&erased_or));
        // The IsBind disjunct is dropped, not turned into "true".
        assert_ne!(erased_or, PosFormula::True);
    }

    #[test]
    fn zero_ary_detection_and_method_collection() {
        let zero = PosFormula::and(vec![isbind_prop("AcM1"), isbind_prop("AcM2")]);
        assert!(isbind_atoms_are_zero_ary(&zero));
        assert_eq!(isbind_methods(&zero), vec!["AcM1", "AcM2"]);

        let nary = isbind_atom("AcM1", vec![Term::var("x")]);
        assert!(!isbind_atoms_are_zero_ary(&nary));
    }

    #[test]
    fn vocabulary_validation_against_schema() {
        let schema = phone_directory_access_schema();
        let ok = PosFormula::and(vec![
            isbind_prop("AcM1"),
            PosFormula::exists(vec!["x"], pre_atom("Address", vec![Term::var("x")])),
        ]);
        assert!(uses_only_schema_vocabulary(&ok, &schema));
        let bad_method = isbind_prop("Nope");
        assert!(!uses_only_schema_vocabulary(&bad_method, &schema));
        let bad_relation = pre_atom("Nope", vec![Term::var("x")]);
        assert!(!uses_only_schema_vocabulary(&bad_relation, &schema));
        let base_predicate = PosFormula::Atom(atom!("Address"; x));
        assert!(!uses_only_schema_vocabulary(&base_predicate, &schema));
    }
}
