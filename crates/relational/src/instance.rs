//! Database instances: finite collections of tuples per relation.

use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

use crate::guard_cache::RelationDigest;
use crate::index::{indexing_enabled, InstanceIndex, RelationIndex, INDEX_CUTOFF};
use crate::schema::Schema;
use crate::symbols::{RelId, RelKey};
use crate::tuple::Tuple;
use crate::value::Value;
use crate::Result;

/// A database instance.
///
/// Facts are stored as a dense map keyed by interned relation id: a vector of
/// `(RelId, tuple set)` entries sorted by relation *name* (the `RelId`
/// ordering, which has an integer fast path for equality), looked up by
/// binary search.  Relation keying never hashes or clones a string, and
/// probing with an equal id is pure integer work; the name ordering keeps
/// iteration — `facts()`, the chase's first-violation scan, `Display` — in
/// exactly the order the previous `String`-keyed `BTreeMap` produced,
/// independent of interning order.  Within a relation, tuple sets stay
/// ordered (`BTreeSet` over [`Value`]'s order: lexicographic for text,
/// numeric for labelled nulls — see [`Value`] for the one way this differs
/// from the old `String` representation), so every algorithm built on top is
/// deterministic across runs.
///
/// An instance is not tied to a [`Schema`]; validation against a schema is
/// explicit via [`Instance::validate_against`], because the paper frequently
/// works with *extended* vocabularies (the `SchAcc` pre/post copies, the
/// Datalog `Background`/`View` predicates) that are derived from a base
/// schema.  Relation ids are process-wide (see [`crate::symbols`]), so
/// instances from different schemas can be unioned and compared safely.
#[derive(Default)]
pub struct Instance {
    /// Sorted by relation name (`RelId` order); never contains an empty tuple
    /// set (so that structural equality coincides with set-of-facts
    /// equality, and `Ord`/`Hash` are canonical).
    facts: Vec<(RelId, BTreeSet<Tuple>)>,
    /// Lazily built per-position value index (see [`crate::index`]):
    /// populated on the first indexed lookup against a relation of at least
    /// the index cutoff, maintained incrementally by [`Instance::add_fact`],
    /// and dropped by every other mutation
    /// (and by `Clone`).  Never consulted by `Eq`/`Ord`/`Hash`, which remain
    /// pure fact-set comparisons.
    index: OnceLock<InstanceIndex>,
    /// Lazily built per-relation content digests (see
    /// [`crate::guard_cache`]), name-sorted like `facts`: computed on the
    /// first structure-key request, maintained incrementally by
    /// [`Instance::add_fact`], and dropped by every other mutation (and by
    /// `Clone`) — the exact lifecycle of `index`.  Derived data: never
    /// consulted by `Eq`/`Ord`/`Hash`/`Debug`.
    digests: OnceLock<Vec<(RelId, RelationDigest)>>,
    /// Per-instance override of [`INDEX_CUTOFF`], set by
    /// [`Instance::set_index_cutoff`] on transition-structure bases so
    /// their indexed-lookup decision is the pure size threshold.  A
    /// performance knob, not content: excluded from `Eq`/`Ord`/`Hash`/
    /// `Debug`, but preserved by `Clone` so unions built from a configured
    /// base keep the configuration.
    index_cutoff: Option<usize>,
}

impl fmt::Debug for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Only the fact sets: the derived index is build-state-dependent and
        // its posting maps print in hash order, so including it would make
        // `{:?}` output differ between `Eq`-equal instances.
        f.debug_struct("Instance")
            .field("facts", &self.facts)
            .finish()
    }
}

impl Clone for Instance {
    fn clone(&self) -> Self {
        // Index and digests are derived data; clones rebuild them lazily on
        // demand rather than paying an eager deep copy.
        Instance {
            facts: self.facts.clone(),
            index: OnceLock::new(),
            digests: OnceLock::new(),
            index_cutoff: self.index_cutoff,
        }
    }
}

impl PartialEq for Instance {
    fn eq(&self, other: &Self) -> bool {
        self.facts == other.facts
    }
}

impl Eq for Instance {}

impl PartialOrd for Instance {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Instance {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.facts.cmp(&other.facts)
    }
}

impl Hash for Instance {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.facts.hash(state);
    }
}

/// The entry of `relation` in a name-sorted slot list, found by a linear
/// scan of integer id comparisons.  Transition structures and overlay
/// layers hold a few relations each and are probed in the search oracles'
/// innermost loop, where the scan beats a binary search whose every step is
/// a string-order comparison.
fn find_slot<T>(slots: &[(RelId, T)], relation: RelId) -> Option<&T> {
    slots.iter().find(|(r, _)| *r == relation).map(|(_, v)| v)
}

impl Instance {
    /// Creates an empty instance.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The raw name-sorted relation slots, for the overlays' relation lists.
    pub(crate) fn entries(&self) -> &[(RelId, BTreeSet<Tuple>)] {
        &self.facts
    }

    fn tuple_set(&self, relation: RelId) -> Option<&BTreeSet<Tuple>> {
        find_slot(&self.facts, relation)
    }

    /// The mutable tuple set of a relation, creating the slot on demand.  An
    /// associated function over the raw slots so callers can hold the
    /// instance's other fields (the index) mutably at the same time.
    fn tuple_set_mut(
        facts: &mut Vec<(RelId, BTreeSet<Tuple>)>,
        relation: RelId,
    ) -> &mut BTreeSet<Tuple> {
        match facts.binary_search_by(|(r, _)| r.cmp(&relation)) {
            Ok(found) => &mut facts[found].1,
            Err(insert_at) => {
                facts.insert(insert_at, (relation, BTreeSet::new()));
                &mut facts[insert_at].1
            }
        }
    }

    /// Drops the derived index and digests; called by every mutation that
    /// does not maintain them incrementally.
    fn invalidate_index(&mut self) {
        self.index.take();
        self.digests.take();
    }

    /// Sets this instance's index cutoff: relations with fewer facts are
    /// scanned rather than indexed.  The search front-ends stamp
    /// [`INDEX_CUTOFF`] on the transition-structure layers they build;
    /// instances never touched by it use an adaptive gate that also asks
    /// whether the relation's posting lists discriminate.  Purely a
    /// performance knob — it never affects which facts exist, so it is
    /// excluded from equality.
    pub fn set_index_cutoff(&mut self, cutoff: usize) {
        self.index_cutoff = Some(cutoff);
    }

    /// The per-position index of `relation`, if indexing is enabled and the
    /// relation is large enough to be worth it.  Builds the whole-instance
    /// index on first demand; afterwards [`Instance::add_fact`] maintains it
    /// incrementally.
    ///
    /// With no explicit cutoff configured ([`Instance::set_index_cutoff`]),
    /// the size gate is adaptive: past the [`INDEX_CUTOFF`] floor, a
    /// relation is answered from its posting lists only while they actually
    /// discriminate ([`RelationIndex::discriminating`]); degenerate
    /// relations fall back to the scan defaults.  An explicit cutoff keeps
    /// the pure size-threshold behaviour, which the search layers use.
    /// Either way the decision only picks a code path — results are
    /// identical by contract.
    pub(crate) fn query_index(&self, relation: RelId) -> Option<&RelationIndex> {
        if !indexing_enabled() {
            return None;
        }
        let adaptive = self.index_cutoff.is_none();
        let worth_it = |index: &RelationIndex| !adaptive || index.discriminating();
        if let Some(built) = self.index.get() {
            return built.relation(relation).filter(|idx| worth_it(idx));
        }
        if self.relation_size(relation) < self.index_cutoff.unwrap_or(INDEX_CUTOFF) {
            return None;
        }
        self.index
            .get_or_init(|| InstanceIndex::build(&self.facts))
            .relation(relation)
            .filter(|idx| worth_it(idx))
    }

    /// The name-sorted per-relation digest table, built on first demand.
    fn digest_table(&self) -> &[(RelId, RelationDigest)] {
        self.digests.get_or_init(|| {
            self.facts
                .iter()
                .map(|(rel, tuples)| {
                    let mut digest = RelationDigest::default();
                    for tuple in tuples {
                        digest.add(*rel, tuple);
                    }
                    (*rel, digest)
                })
                .collect()
        })
    }

    /// The content digest of one relation's facts (empty digest when the
    /// relation is absent).  Cached per instance; see `digests`.
    pub(crate) fn relation_digest(&self, relation: RelId) -> RelationDigest {
        find_slot(self.digest_table(), relation)
            .copied()
            .unwrap_or_default()
    }

    /// The content digest of all facts.
    pub(crate) fn content_digest(&self) -> RelationDigest {
        let mut total = RelationDigest::default();
        for (_, digest) in self.digest_table() {
            total.merge(*digest);
        }
        total
    }

    /// The already-built whole-instance index, if any (never triggers a
    /// build).
    pub(crate) fn built_index(&self) -> Option<&InstanceIndex> {
        if indexing_enabled() {
            self.index.get()
        } else {
            None
        }
    }

    /// Adds a fact. Returns `true` if the fact was not already present.  When
    /// the per-position index or the digest table has been built it is
    /// maintained incrementally, so fixpoints (and overlay deltas) that only
    /// ever add facts keep their derived data live.
    pub fn add_fact(&mut self, relation: impl Into<RelId>, tuple: Tuple) -> bool {
        let relation = relation.into();
        let fact_digest = self.digests.get().is_some().then(|| {
            let mut digest = RelationDigest::default();
            digest.add(relation, &tuple);
            digest
        });
        let indexed_copy = self.index.get().is_some().then(|| tuple.clone());
        let inserted = Self::tuple_set_mut(&mut self.facts, relation).insert(tuple);
        if inserted {
            if let Some(copy) = indexed_copy {
                if let Some(index) = self.index.get_mut() {
                    index.insert_fact(relation, copy);
                }
            }
            if let Some(digest) = fact_digest {
                if let Some(table) = self.digests.get_mut() {
                    match table.binary_search_by(|(r, _)| r.cmp(&relation)) {
                        Ok(found) => table[found].1.merge(digest),
                        Err(insert_at) => table.insert(insert_at, (relation, digest)),
                    }
                }
            }
        }
        inserted
    }

    /// Adds every fact from an iterator of `(relation, tuple)` pairs.
    pub fn extend_facts<R: Into<RelId>>(&mut self, facts: impl IntoIterator<Item = (R, Tuple)>) {
        for (rel, tuple) in facts {
            self.add_fact(rel, tuple);
        }
    }

    /// True if the instance contains the given fact.  String keys resolve
    /// without growing the intern pool (absent names answer `false`).
    #[must_use]
    pub fn contains(&self, relation: impl RelKey, tuple: &Tuple) -> bool {
        relation
            .resolve_rel()
            .and_then(|rel| self.tuple_set(rel))
            .is_some_and(|set| set.contains(tuple))
    }

    /// The tuples of a relation, when the relation is non-empty.
    #[must_use]
    pub fn relation(&self, relation: impl RelKey) -> Option<&BTreeSet<Tuple>> {
        relation.resolve_rel().and_then(|rel| self.tuple_set(rel))
    }

    /// Iterates over the tuples of a relation (empty iterator when absent).
    pub fn tuples(&self, relation: impl RelKey) -> impl Iterator<Item = &Tuple> {
        relation
            .resolve_rel()
            .and_then(|rel| self.tuple_set(rel))
            .into_iter()
            .flatten()
    }

    /// Iterates over all facts as `(relation, tuple)` pairs, in relation-name
    /// order (matching the pre-interning representation).
    pub fn facts(&self) -> impl Iterator<Item = (RelId, &Tuple)> {
        self.facts
            .iter()
            .flat_map(|(rel, tuples)| tuples.iter().map(move |t| (*rel, t)))
    }

    /// The relation ids that have at least one tuple.
    pub fn nonempty_relations(&self) -> impl Iterator<Item = RelId> + '_ {
        self.facts.iter().map(|(rel, _)| *rel)
    }

    /// The number of facts across all relations.
    #[must_use]
    pub fn fact_count(&self) -> usize {
        self.facts.iter().map(|(_, set)| set.len()).sum()
    }

    /// The number of facts in one relation.
    #[must_use]
    pub fn relation_size(&self, relation: impl RelKey) -> usize {
        relation
            .resolve_rel()
            .and_then(|rel| self.tuple_set(rel))
            .map_or(0, BTreeSet::len)
    }

    /// True if the instance has no facts at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// The active domain: every value appearing in some fact.
    #[must_use]
    pub fn active_domain(&self) -> BTreeSet<Value> {
        let mut dom = BTreeSet::new();
        for (_, tuple) in self.facts() {
            dom.extend(tuple.values().iter().copied());
        }
        dom
    }

    /// True if every fact of `self` is also a fact of `other`.
    #[must_use]
    pub fn is_subinstance_of(&self, other: &Instance) -> bool {
        self.facts
            .iter()
            .all(|(rel, tuples)| match other.tuple_set(*rel) {
                Some(theirs) => tuples.is_subset(theirs),
                None => false,
            })
    }

    /// The union of two instances.
    #[must_use]
    pub fn union(&self, other: &Instance) -> Instance {
        let mut result = self.clone();
        result.union_in_place(other);
        result
    }

    /// Unions `other` into `self`.
    pub fn union_in_place(&mut self, other: &Instance) {
        self.invalidate_index();
        for (rel, tuples) in &other.facts {
            let entry = Self::tuple_set_mut(&mut self.facts, *rel);
            entry.extend(tuples.iter().cloned());
        }
    }

    /// The intersection of two instances.
    #[must_use]
    pub fn intersection(&self, other: &Instance) -> Instance {
        let mut result = Instance::new();
        for (rel, tuples) in &self.facts {
            if let Some(theirs) = other.tuple_set(*rel) {
                let common: BTreeSet<Tuple> = tuples.intersection(theirs).cloned().collect();
                if !common.is_empty() {
                    result.facts.push((*rel, common));
                }
            }
        }
        // `self.facts` is name-sorted, so `result.facts` is too.
        result
    }

    /// Restricts the instance to the given relations.
    #[must_use]
    pub fn restrict_to(&self, relations: &BTreeSet<RelId>) -> Instance {
        let mut result = Instance::new();
        for (rel, tuples) in &self.facts {
            if relations.contains(rel) {
                result.facts.push((*rel, tuples.clone()));
            }
        }
        result
    }

    /// Renames relations according to `rename` (by name; unlisted relations
    /// keep their name).  Used to build the `Rpre`/`Rpost` copies of the
    /// `SchAcc` vocabulary; hot paths should prefer
    /// [`Instance::rename_relations_by`] with a precomputed id map.
    #[must_use]
    pub fn rename_relations(&self, rename: impl Fn(&str) -> String) -> Instance {
        self.rename_relations_by(|rel| RelId::new(&rename(rel.as_str())))
    }

    /// Renames relations by id.  The workhorse behind the transition-structure
    /// construction in the bounded searches: with a precomputed `RelId →
    /// RelId` map the whole operation is integer-keyed.
    #[must_use]
    pub fn rename_relations_by(&self, rename: impl Fn(RelId) -> RelId) -> Instance {
        let mut result = Instance::new();
        for (rel, tuples) in &self.facts {
            let entry = Self::tuple_set_mut(&mut result.facts, rename(*rel));
            entry.extend(tuples.iter().cloned());
        }
        result
    }

    /// Applies a value substitution to every fact (used by the chase when a
    /// labelled null is equated with another value).
    #[must_use]
    pub fn map_values(&self, f: impl Fn(&Value) -> Value) -> Instance {
        let mut result = Instance::new();
        for (rel, tuples) in &self.facts {
            let mapped: BTreeSet<Tuple> = tuples.iter().map(|t| t.map_values(&f)).collect();
            Self::tuple_set_mut(&mut result.facts, *rel).extend(mapped);
        }
        result
    }

    /// Validates every fact against a schema (arity and types).
    ///
    /// # Errors
    /// Returns the first violation found, or an error for a relation not in
    /// the schema.
    pub fn validate_against(&self, schema: &Schema) -> Result<()> {
        for (rel, tuples) in &self.facts {
            let rel_schema = schema.require_relation_id(*rel)?;
            for tuple in tuples {
                rel_schema.validate_tuple(tuple)?;
            }
        }
        Ok(())
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "∅");
        }
        let mut first = true;
        for (rel, tuple) in self.facts() {
            if !first {
                writeln!(f)?;
            }
            first = false;
            write!(f, "{rel}{tuple}")?;
        }
        Ok(())
    }
}

impl<R: Into<RelId>> FromIterator<(R, Tuple)> for Instance {
    fn from_iter<T: IntoIterator<Item = (R, Tuple)>>(iter: T) -> Self {
        let mut inst = Instance::new();
        inst.extend_facts(iter);
        inst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{phone_directory_schema, RelationSchema, Schema};
    use crate::tuple;
    use crate::value::DataType;

    fn sample() -> Instance {
        let mut inst = Instance::new();
        inst.add_fact("Mobile#", tuple!["Smith", "OX13QD", "Parks Rd", 5551212]);
        inst.add_fact("Address", tuple!["Parks Rd", "OX13QD", "Smith", 13]);
        inst.add_fact("Address", tuple!["Parks Rd", "OX13QD", "Jones", 16]);
        inst
    }

    #[test]
    fn add_contains_roundtrip() {
        let mut inst = Instance::new();
        let t = tuple!["a", 1];
        assert!(inst.add_fact("R", t.clone()));
        assert!(!inst.add_fact("R", t.clone()));
        assert!(inst.contains("R", &t));
        assert!(!inst.contains("R", &tuple!["a", 2]));
        assert_eq!(inst.fact_count(), 1);
    }

    #[test]
    fn union_and_intersection_behave_set_theoretically() {
        let a = sample();
        let mut b = Instance::new();
        b.add_fact("Address", tuple!["Parks Rd", "OX13QD", "Smith", 13]);
        b.add_fact("Extra", tuple![1]);

        let u = a.union(&b);
        assert_eq!(u.fact_count(), 4);
        assert!(b.is_subinstance_of(&u));
        assert!(a.is_subinstance_of(&u));

        let i = a.intersection(&b);
        assert_eq!(i.fact_count(), 1);
        assert!(i.contains("Address", &tuple!["Parks Rd", "OX13QD", "Smith", 13]));
    }

    #[test]
    fn active_domain_collects_all_values() {
        let dom = sample().active_domain();
        assert!(dom.contains(&Value::str("Smith")));
        assert!(dom.contains(&Value::Int(16)));
        // Distinct values: Smith, Jones, OX13QD, Parks Rd, 5551212, 13, 16.
        assert_eq!(dom.len(), 7);
    }

    #[test]
    fn restriction_and_renaming() {
        let inst = sample();
        let only_address = inst.restrict_to(&BTreeSet::from([RelId::new("Address")]));
        assert_eq!(only_address.relation_size("Address"), 2);
        assert_eq!(only_address.relation_size("Mobile#"), 0);

        let renamed = inst.rename_relations(|r| format!("{r}_pre"));
        assert_eq!(renamed.relation_size("Address_pre"), 2);
        assert_eq!(renamed.relation_size("Address"), 0);

        let by_id = inst.rename_relations_by(|r| {
            if r == "Address" {
                RelId::new("Addr2")
            } else {
                r
            }
        });
        assert_eq!(by_id.relation_size("Addr2"), 2);
        assert_eq!(by_id.relation_size("Mobile#"), 1);
    }

    #[test]
    fn validation_against_schema() {
        let inst = sample();
        assert!(inst.validate_against(&phone_directory_schema()).is_ok());

        let bad_schema = Schema::from_relations([
            RelationSchema::new("Mobile#", vec![DataType::Text; 4]),
            RelationSchema::new("Address", vec![DataType::Text; 3]),
        ])
        .unwrap();
        assert!(inst.validate_against(&bad_schema).is_err());
    }

    #[test]
    fn display_of_empty_instance_is_empty_set_symbol() {
        assert_eq!(Instance::new().to_string(), "∅");
    }

    #[test]
    fn digests_maintained_incrementally_match_fresh_builds() {
        let mut incremental = sample();
        // Force the digest table, then add more facts through the
        // incremental path (including a brand-new relation slot).
        let _ = incremental.content_digest();
        incremental.add_fact("Address", tuple!["High St", "OX14AB", "Lee", 2]);
        incremental.add_fact("Extra", tuple![42]);
        let mut fresh = sample();
        fresh.add_fact("Address", tuple!["High St", "OX14AB", "Lee", 2]);
        fresh.add_fact("Extra", tuple![42]);
        assert_eq!(incremental.content_digest(), fresh.content_digest());
        assert_eq!(
            incremental.relation_digest(RelId::new("Extra")),
            fresh.relation_digest(RelId::new("Extra"))
        );
        // Duplicate adds leave the digest untouched.
        assert!(!incremental.add_fact("Extra", tuple![42]));
        assert_eq!(incremental.content_digest(), fresh.content_digest());
    }

    #[test]
    fn adaptive_cutoff_vetoes_degenerate_relations_unless_configured() {
        // A constant column plus two binary ones: posting lists average more
        // than half the relation, so the adaptive gate prefers scanning.
        let mut inst = Instance::new();
        for i in 0..16i64 {
            inst.add_fact("Blunt", tuple!["x", i & 1, (i >> 1) & 1, i]);
        }
        // ... except this one has a distinct last column, which keeps it
        // discriminating; drop to the genuinely degenerate shape.
        let mut blunt = Instance::new();
        for i in 0..8i64 {
            blunt.add_fact("Blunt", tuple!["x", i & 1, (i >> 1) & 1, (i >> 2) & 1]);
        }
        let rel = RelId::new("Blunt");
        assert!(blunt.query_index(rel).is_none(), "adaptive gate scans");
        // An explicit cutoff keeps the pure size-threshold behaviour.
        let mut configured = blunt.clone();
        configured.set_index_cutoff(4);
        assert!(configured.query_index(rel).is_some());
        // The sharp relation is indexed either way.
        assert!(inst.query_index(rel).is_some());
    }

    #[test]
    fn index_cutoff_is_a_perf_knob_not_content() {
        let mut configured = sample();
        configured.set_index_cutoff(1);
        assert_eq!(configured, sample());
        // Clones keep the configuration.
        let clone = configured.clone();
        assert_eq!(format!("{configured:?}"), format!("{:?}", sample()));
        drop(clone);
    }
}
