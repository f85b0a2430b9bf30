//! Per-position value indexes: `(relation, position, value) → tuple ids`.
//!
//! Every decision procedure in the workspace — CQ/UCQ containment,
//! long-term relevance, the bounded `AccLTL` search, A-automaton emptiness —
//! bottoms out in homomorphism enumeration and Datalog fixpoints.  Before
//! this module those inner loops scanned whole relations tuple-at-a-time; now
//! each [`crate::Instance`] lazily builds an [`InstanceIndex`] (one
//! [`RelationIndex`] per relation: a tuple-id arena plus hash posting lists
//! keyed by `(position, value)`) and keeps it incrementally maintained across
//! [`crate::Instance::add_fact`].  [`crate::InstanceOverlay`] layers a
//! delta-side index over the `Arc`-shared base index, so configuration
//! overlays answer indexed lookups without materializing.
//!
//! The index surfaces through three [`crate::InstanceView`] methods —
//! `tuples_matching`, `selectivity` and `tuples_matching_all` — whose default
//! implementations *scan*: any view answers them correctly, and the indexed
//! overrides must produce exactly the same tuples in exactly the same (tuple)
//! order.  That contract is what keeps homomorphism enumeration, Datalog
//! fixpoints and search witnesses byte-identical whether indexes are enabled
//! or not; it is property-tested in `tests/index_props.rs` and CI-enforced by
//! diffing example outputs with [`DISABLE_INDEXES_ENV_VAR`] set.
//!
//! Maintenance is insert-only: [`crate::Instance::add_fact`] inserts into
//! the posting lists, and every other mutation drops the index to be rebuilt
//! on the next probe.
//!
//! # Scan fallback
//!
//! Setting `ACCLTL_DISABLE_INDEXES=1` (see [`DISABLE_INDEXES_ENV_VAR`])
//! reaches only the search oracles, through `EngineConfig::disable_indexes`
//! (read by `EngineConfig::from_env`); the LTS explorer keeps its
//! indexes.  The process-wide switch is [`set_indexing_enabled`],
//! under which every consumer falls back to the scanning defaults.
//! [`ScanView`] offers the same
//! fallback per call site (used by the parity tests and the A/B benches).
//! Relations smaller than [`INDEX_CUTOFF`] are always answered by scanning —
//! for a handful of tuples a scan beats a hash probe, and the searches run on
//! many tiny delta instances.

use std::collections::{btree_set, BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::slice;
use std::sync::atomic::{AtomicBool, Ordering};

use crate::guard_cache::StructureKey;
use crate::overlay::{InstanceView, TupleIter};
use crate::symbols::{IdMap, RelId};
use crate::transition::CandidateTuples;
use crate::tuple::Tuple;
use crate::value::Value;

/// A minimal multiply-rotate hasher (the FxHash construction) for the
/// posting maps.  Keys are tiny — a position and a `Copy` [`Value`] — and
/// every selectivity probe in the homomorphism search hashes one, so the
/// default SipHash would eat most of the gain over a small-relation scan.
/// Not DoS-resistant, which is fine for derived per-instance indexes keyed
/// by already-interned values; and never iterated, so the weaker
/// distribution cannot leak into any deterministic output.  Also reused by
/// [`crate::guard_cache`] for its shard maps and (seeded twice, via
/// `FxHasher::seeded`) for the two lanes of the `StructureKey` delta
/// fingerprint, and by the search engine and oracles upstream for their
/// internal maps (frontier dedup, shared caches, intern tables), whose keys
/// are interned ids, bitset words and small value tuples.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    /// A hasher with a non-zero initial state, so independently seeded
    /// lanes over the same input produce independent hashes.
    pub(crate) fn seeded(seed: u64) -> Self {
        FxHasher { hash: seed }
    }

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_i64(&mut self, n: i64) {
        self.add(n as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A [`HashMap`] builder hashing with [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

type PostingMap = HashMap<(u32, Value), Vec<u32>, FxBuildHasher>;

/// Environment variable disabling all index builds and lookups when set to
/// `1` — every query falls back to the scanning defaults, which produce
/// byte-identical results (CI diffs the search examples both ways).
///
/// The variable is *read* in exactly one place: `EngineConfig::from_env` in
/// `accltl-paths`, which feeds the per-search `disable_indexes` flag the
/// search oracles honour by wrapping their evaluation views in [`ScanView`].
/// This module only defines the name and the process-wide
/// [`set_indexing_enabled`] override used by tests and benches.
pub const DISABLE_INDEXES_ENV_VAR: &str = "ACCLTL_DISABLE_INDEXES";

/// Relations with fewer tuples than this are answered by scanning even when
/// indexing is enabled: below the cutoff a scan beats hash probing, and the
/// bounded searches evaluate guards against thousands of tiny delta
/// instances whose index would cost more to build than it saves.  The
/// cutoff never affects results, only which code path produces them.
pub const INDEX_CUTOFF: usize = 8;

fn scan_override() -> &'static AtomicBool {
    static FLAG: AtomicBool = AtomicBool::new(false);
    &FLAG
}

/// True if per-position indexes are in use (the default); flipped by
/// [`set_indexing_enabled`].
#[must_use]
pub fn indexing_enabled() -> bool {
    !scan_override().load(Ordering::Relaxed)
}

/// Process-wide override of [`indexing_enabled`], for A/B comparisons in
/// tests and benches.  Indexed and scanning evaluation produce identical
/// results by contract, so flipping this mid-run changes performance paths
/// only, never answers.
pub fn set_indexing_enabled(enabled: bool) {
    scan_override().store(!enabled, Ordering::Relaxed);
}

/// Arity summary of one indexed relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum ArityShape {
    /// No tuples indexed yet.
    #[default]
    Empty,
    /// Every indexed tuple has this arity.
    Uniform(usize),
    /// Tuples of differing arities are present.
    Mixed,
}

/// The per-relation index: a tuple-id arena plus per-position posting lists.
///
/// Tuple ids are dense indices into the arena, assigned in insertion order.
/// Posting lists are kept sorted by *tuple order* (the arena tuples' `Ord`),
/// so iterating a posting list — or intersecting several — yields tuples in
/// exactly the order a relation scan would, which is what makes indexed and
/// scanning evaluation order-identical.
#[derive(Debug, Clone, Default)]
pub struct RelationIndex {
    arena: Vec<Tuple>,
    postings: PostingMap,
    shape: ArityShape,
    /// `(position, value)` posting entries: the sum of the tuples'
    /// arities.  `slots / postings.len()` is the exact average posting-list
    /// length, which [`RelationIndex::discriminating`] compares against the
    /// relation size to decide whether probing beats scanning.
    slots: usize,
}

impl RelationIndex {
    /// Indexes one tuple.  The caller guarantees the tuple is not already
    /// present (instances are tuple sets).
    fn insert(&mut self, tuple: Tuple) {
        let RelationIndex {
            arena,
            postings,
            shape,
            slots,
        } = self;
        *shape = match *shape {
            ArityShape::Empty => ArityShape::Uniform(tuple.arity()),
            ArityShape::Uniform(a) if a == tuple.arity() => ArityShape::Uniform(a),
            _ => ArityShape::Mixed,
        };
        *slots += tuple.arity();
        let id = u32::try_from(arena.len()).expect("relation index arena overflow");
        for (position, value) in tuple.values().iter().enumerate() {
            let position = u32::try_from(position).expect("tuple arity overflow");
            let list = postings.entry((position, *value)).or_default();
            // Keep the list sorted by tuple order.  At build time tuples
            // arrive in ascending order, so this is a push; incremental
            // `add_fact` maintenance pays one binary search.
            let at = list.partition_point(|&existing| arena[existing as usize] < tuple);
            list.insert(at, id);
        }
        arena.push(tuple);
    }

    /// The number of indexed tuples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// True if no tuples are indexed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// Whether this relation's posting lists actually discriminate: probing
    /// pays off only when the average posting list is at most half the
    /// relation (`2·slots ≤ live·keys`).  Wide tuples that differ in few
    /// positions produce near-degenerate lists for which a scan wins; the
    /// adaptive cutoff in `Instance::query_index` consults this to fall back
    /// per relation.  Never affects results, only which path produces them.
    #[must_use]
    pub fn discriminating(&self) -> bool {
        2 * self.slots <= self.len() * self.postings.len()
    }

    /// The uniform arity of the indexed tuples, if they all agree.
    #[must_use]
    pub fn uniform_arity(&self) -> Option<usize> {
        match self.shape {
            ArityShape::Uniform(a) => Some(a),
            ArityShape::Empty | ArityShape::Mixed => None,
        }
    }

    /// The number of tuples holding `value` at `position` — an exact
    /// selectivity, not an estimate (posting lists are maintained, not
    /// sampled).
    #[must_use]
    pub fn selectivity(&self, position: usize, value: &Value) -> usize {
        u32::try_from(position)
            .ok()
            .and_then(|p| self.postings.get(&(p, *value)))
            .map_or(0, Vec::len)
    }

    /// The tuples holding `value` at `position`, in tuple order.
    #[must_use]
    pub fn matching(&self, position: usize, value: &Value) -> MatchIter<'_> {
        match u32::try_from(position)
            .ok()
            .and_then(|p| self.postings.get(&(p, *value)))
        {
            Some(ids) => MatchIter::Postings(PostingMatches {
                arena: &self.arena,
                ids: ids.iter(),
            }),
            None => MatchIter::Empty,
        }
    }

    /// The tuples matching *every* `(position, value)` pair, in tuple order:
    /// the shortest posting list drives, and each of its tuples is checked
    /// against the other pairs directly (a tuple is on the `(p, v)` list
    /// iff it holds `v` at `p`).
    ///
    /// `bound` must be non-empty: the arena holds tuples in insertion order,
    /// so an unconstrained enumeration cannot be answered from the index —
    /// use the owning view's relation scan (`tuples_of`) instead, as the
    /// [`crate::InstanceView::tuples_matching_all`] implementations do.
    #[must_use]
    pub fn matching_all<'a>(&'a self, bound: &'a [(usize, Value)]) -> MatchIter<'a> {
        debug_assert!(
            !bound.is_empty(),
            "matching_all needs at least one (position, value) constraint; \
             scan the relation for unconstrained enumeration"
        );
        let mut driver: Option<&[u32]> = None;
        for (position, value) in bound {
            let Some(list) = u32::try_from(*position)
                .ok()
                .and_then(|p| self.postings.get(&(p, *value)))
            else {
                return MatchIter::Empty;
            };
            if driver.map_or(true, |shortest| list.len() < shortest.len()) {
                driver = Some(list);
            }
        }
        let Some(driver) = driver else {
            return MatchIter::Empty;
        };
        if bound.len() == 1 {
            return MatchIter::Postings(PostingMatches {
                arena: &self.arena,
                ids: driver.iter(),
            });
        }
        MatchIter::Intersect(IntersectMatches {
            arena: &self.arena,
            driver: driver.iter(),
            bound: BoundSpec::Many(bound),
        })
    }
}

/// The whole-instance index: one [`RelationIndex`] per relation, keyed by
/// interned relation id.
#[derive(Debug, Clone, Default)]
pub struct InstanceIndex {
    relations: IdMap<RelationIndex>,
}

impl InstanceIndex {
    /// Builds the index from the instance's name-sorted relation slots.
    pub(crate) fn build(entries: &[(RelId, BTreeSet<Tuple>)]) -> Self {
        static INDEX_BUILDS: accltl_obs::metrics::LazyCounter =
            accltl_obs::metrics::LazyCounter::new("index.builds");
        static INDEX_TUPLES: accltl_obs::metrics::LazyCounter =
            accltl_obs::metrics::LazyCounter::new("index.tuples");
        let tuple_count: usize = entries.iter().map(|(_, tuples)| tuples.len()).sum();
        let _build_span = accltl_obs::trace::span_fields(
            "index.build",
            &[
                ("relations", entries.len() as u64),
                ("tuples", tuple_count as u64),
            ],
        );
        INDEX_BUILDS.add(1);
        INDEX_TUPLES.add(tuple_count as u64);
        let mut relations = IdMap::new();
        for (rel, tuples) in entries {
            let mut index = RelationIndex::default();
            for tuple in tuples {
                index.insert(tuple.clone());
            }
            relations.insert(rel.id(), index);
        }
        InstanceIndex { relations }
    }

    /// The index of one relation, if any tuples were indexed for it.
    #[must_use]
    pub fn relation(&self, relation: RelId) -> Option<&RelationIndex> {
        self.relations.get(relation.id())
    }

    /// Incremental maintenance: indexes one newly inserted fact.
    pub(crate) fn insert_fact(&mut self, relation: RelId, tuple: Tuple) {
        match self.relations.get_mut(relation.id()) {
            Some(index) => index.insert(tuple),
            None => {
                let mut index = RelationIndex::default();
                index.insert(tuple);
                self.relations.insert(relation.id(), index);
            }
        }
    }
}

/// An iterator over the tuples of one relation that match a set of
/// `(position, value)` constraints, always in tuple order.
///
/// Produced by [`crate::InstanceView::tuples_matching`] and friends.  The
/// scanning variants and the posting-list variants yield identical sequences
/// by construction; overlays and transition views merge one stream per
/// layer.  Every variant lives on the stack.
#[derive(Debug, Clone)]
pub enum MatchIter<'a> {
    /// No tuple matches.
    Empty,
    /// A relation scan filtered by the bound positions.
    Scan(ScanMatches<'a>),
    /// A single posting list resolved through the arena.
    Postings(PostingMatches<'a>),
    /// An intersection of several posting lists over one arena.
    Intersect(IntersectMatches<'a>),
    /// Up to three single-layer streams merged in tuple order.
    Merged(MergedMatches<'a>),
}

/// The most match streams one [`MatchIter`] merges: one per layer of a
/// transition view (root, state, candidate).
const MERGED_STREAMS: usize = 3;

impl<'a> MatchIter<'a> {
    /// Every tuple of a relation, unfiltered.
    #[must_use]
    pub fn all(tuples: TupleIter<'a>) -> Self {
        MatchIter::Scan(ScanMatches {
            tuples,
            bound: BoundSpec::All,
        })
    }

    /// A scan filtered on one position (no allocation; the value is copied).
    #[must_use]
    pub fn scan_one(tuples: TupleIter<'a>, position: usize, value: &Value) -> Self {
        MatchIter::Scan(ScanMatches {
            tuples,
            bound: BoundSpec::One(position, *value),
        })
    }

    /// A scan filtered on several positions (borrows the caller's pairs).
    #[must_use]
    pub fn scan_all(tuples: TupleIter<'a>, bound: &'a [(usize, Value)]) -> Self {
        MatchIter::Scan(ScanMatches {
            tuples,
            bound: BoundSpec::Many(bound),
        })
    }

    /// Merges two match streams in tuple order (both inputs are tuple-ordered
    /// and, for well-formed overlays, disjoint).  Each input is one layer's
    /// stream — posting lists, or a scan of an instance relation or of a
    /// candidate's tuples — or a merge of such streams.
    ///
    /// # Panics
    /// Panics if the two together hold more than three single-layer
    /// streams, or scan a multi-layer tuple stream.
    #[must_use]
    pub(crate) fn merged(left: MatchIter<'a>, right: MatchIter<'a>) -> Self {
        match (left, right) {
            (MatchIter::Empty, other) | (other, MatchIter::Empty) => other,
            (left, right) => {
                let mut merged = MergedMatches {
                    streams: Default::default(),
                    heads: [None; MERGED_STREAMS],
                };
                let mut len = 0;
                for side in [left, right] {
                    side.spill_into(&mut merged, &mut len);
                }
                MatchIter::Merged(merged)
            }
        }
    }

    /// Moves this iterator's single-layer streams, with their next tuples,
    /// into `merged` from slot `len` on.
    fn spill_into(self, merged: &mut MergedMatches<'a>, len: &mut usize) {
        let mut push = |mut stream: Stream<'a>, head: Option<&'a Tuple>| {
            let head = head.or_else(|| stream.next());
            if head.is_some() {
                assert!(
                    *len < MERGED_STREAMS,
                    "a match iterator merges at most {MERGED_STREAMS} layers"
                );
                merged.streams[*len] = stream;
                merged.heads[*len] = head;
                *len += 1;
            }
        };
        match self {
            MatchIter::Empty => {}
            MatchIter::Scan(ScanMatches { tuples, bound }) => {
                let tuples = match tuples {
                    TupleIter::Empty => return,
                    TupleIter::Set(set) => LayerTuples::Set(set),
                    TupleIter::Candidate(top) => LayerTuples::Candidate(top),
                    TupleIter::Merged(_) | TupleIter::Stacked(_) => {
                        panic!("a merged match stream scans one layer at a time")
                    }
                };
                push(Stream::Scan(ScanMatches { tuples, bound }), None);
            }
            MatchIter::Postings(postings) => push(Stream::Postings(postings), None),
            MatchIter::Intersect(intersect) => push(Stream::Intersect(intersect), None),
            MatchIter::Merged(inner) => {
                for (stream, head) in inner.streams.into_iter().zip(inner.heads) {
                    if head.is_some() {
                        push(stream, head);
                    }
                }
            }
        }
    }
}

impl<'a> Iterator for MatchIter<'a> {
    type Item = &'a Tuple;

    fn next(&mut self) -> Option<&'a Tuple> {
        match self {
            MatchIter::Empty => None,
            MatchIter::Scan(scan) => scan.next(),
            MatchIter::Postings(postings) => postings.next(),
            MatchIter::Intersect(intersect) => intersect.next(),
            MatchIter::Merged(merged) => merged.next(),
        }
    }
}

/// The `(position, value)` constraints of a scanning [`MatchIter`].
#[derive(Debug, Clone)]
enum BoundSpec<'a> {
    All,
    One(usize, Value),
    Many(&'a [(usize, Value)]),
}

impl BoundSpec<'_> {
    fn matches(&self, tuple: &Tuple) -> bool {
        match self {
            BoundSpec::All => true,
            BoundSpec::One(position, value) => tuple.get(*position) == Some(value),
            BoundSpec::Many(bound) => bound
                .iter()
                .all(|(position, value)| tuple.get(*position) == Some(value)),
        }
    }
}

/// A filtered relation scan (the index-free fallback).
#[derive(Debug, Clone)]
pub struct ScanMatches<'a, T = TupleIter<'a>> {
    tuples: T,
    bound: BoundSpec<'a>,
}

impl<'a, T: Iterator<Item = &'a Tuple>> Iterator for ScanMatches<'a, T> {
    type Item = &'a Tuple;

    fn next(&mut self) -> Option<&'a Tuple> {
        self.tuples.by_ref().find(|t| self.bound.matches(t))
    }
}

/// A posting list resolved through its arena, yielding tuples in tuple order.
#[derive(Debug, Clone)]
pub struct PostingMatches<'a> {
    arena: &'a [Tuple],
    ids: slice::Iter<'a, u32>,
}

impl<'a> Iterator for PostingMatches<'a> {
    type Item = &'a Tuple;

    fn next(&mut self) -> Option<&'a Tuple> {
        self.ids.next().map(|&id| &self.arena[id as usize])
    }
}

/// An intersection of posting lists: the shortest list drives, and each of
/// its tuples is kept when it holds every bound value.
#[derive(Debug, Clone)]
pub struct IntersectMatches<'a> {
    arena: &'a [Tuple],
    driver: slice::Iter<'a, u32>,
    bound: BoundSpec<'a>,
}

impl<'a> Iterator for IntersectMatches<'a> {
    type Item = &'a Tuple;

    fn next(&mut self) -> Option<&'a Tuple> {
        let arena = self.arena;
        self.driver
            .by_ref()
            .map(|&id| &arena[id as usize])
            .find(|tuple| self.bound.matches(tuple))
    }
}

/// One layer's tuples: an instance relation or a candidate's.
#[derive(Debug, Clone)]
enum LayerTuples<'a> {
    Set(btree_set::Iter<'a, Tuple>),
    Candidate(CandidateTuples<'a>),
}

impl<'a> Iterator for LayerTuples<'a> {
    type Item = &'a Tuple;

    fn next(&mut self) -> Option<&'a Tuple> {
        match self {
            LayerTuples::Set(set) => set.next(),
            LayerTuples::Candidate(top) => top.next(),
        }
    }
}

/// One layer's match stream inside a [`MergedMatches`].
#[derive(Debug, Clone, Default)]
enum Stream<'a> {
    #[default]
    Done,
    Scan(ScanMatches<'a, LayerTuples<'a>>),
    Postings(PostingMatches<'a>),
    Intersect(IntersectMatches<'a>),
}

impl<'a> Iterator for Stream<'a> {
    type Item = &'a Tuple;

    fn next(&mut self) -> Option<&'a Tuple> {
        match self {
            Stream::Done => None,
            Stream::Scan(scan) => scan.next(),
            Stream::Postings(postings) => postings.next(),
            Stream::Intersect(intersect) => intersect.next(),
        }
    }
}

/// Tuple-ordered match streams, one per layer, merged in tuple order (a
/// tuple appearing in several — which well-formed layers never produce — is
/// yielded once).
#[derive(Debug, Clone)]
pub struct MergedMatches<'a> {
    streams: [Stream<'a>; MERGED_STREAMS],
    /// Each stream's next tuple; `None` once it is spent.
    heads: [Option<&'a Tuple>; MERGED_STREAMS],
}

impl<'a> Iterator for MergedMatches<'a> {
    type Item = &'a Tuple;

    fn next(&mut self) -> Option<&'a Tuple> {
        let least = self.heads.iter().flatten().min().copied()?;
        for (stream, head) in self.streams.iter_mut().zip(&mut self.heads) {
            if *head == Some(least) {
                *head = stream.next();
            }
        }
        Some(least)
    }
}

/// A view adapter that hides the underlying view's index overrides, forcing
/// the scanning defaults for every lookup.
///
/// Used by the parity property tests and the `index` bench to compare
/// indexed and scan evaluation in one process without touching the global
/// [`set_indexing_enabled`] switch.
#[derive(Debug, Clone, Copy)]
pub struct ScanView<'a, V: InstanceView + ?Sized>(pub &'a V);

impl<V: InstanceView + ?Sized> InstanceView for ScanView<'_, V> {
    fn tuples_of(&self, relation: RelId) -> TupleIter<'_> {
        self.0.tuples_of(relation)
    }

    fn count_of(&self, relation: RelId) -> usize {
        self.0.count_of(relation)
    }

    fn has_fact(&self, relation: RelId, tuple: &Tuple) -> bool {
        self.0.has_fact(relation, tuple)
    }

    fn each_fact(&self, f: &mut dyn FnMut(RelId, &Tuple)) {
        self.0.each_fact(f);
    }

    fn view_active_domain(&self) -> BTreeSet<Value> {
        self.0.view_active_domain()
    }

    fn guard_key(&self, relations: &[RelId]) -> Option<StructureKey> {
        // Guard-verdict fingerprints are index-free, so hiding the index
        // overrides must not also disable guard caching.
        self.0.guard_key(relations)
    }
    // `tuples_matching` / `selectivity` / `tuples_matching_all` /
    // `known_uniform_arity` deliberately keep their scanning defaults.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;
    use crate::tuple;

    fn sample_index() -> RelationIndex {
        let mut index = RelationIndex::default();
        index.insert(tuple!["a", 1]);
        index.insert(tuple!["a", 2]);
        index.insert(tuple!["b", 1]);
        index
    }

    #[test]
    fn postings_are_exact_and_tuple_ordered() {
        let index = sample_index();
        assert_eq!(index.len(), 3);
        assert_eq!(index.uniform_arity(), Some(2));
        assert_eq!(index.selectivity(0, &Value::str("a")), 2);
        assert_eq!(index.selectivity(1, &Value::Int(1)), 2);
        assert_eq!(index.selectivity(1, &Value::Int(9)), 0);
        let hits: Vec<&Tuple> = index.matching(0, &Value::str("a")).collect();
        assert_eq!(hits, vec![&tuple!["a", 1], &tuple!["a", 2]]);
    }

    #[test]
    fn intersection_agrees_with_scan_filter() {
        let index = sample_index();
        let bound = vec![(0, Value::str("a")), (1, Value::Int(1))];
        let hits: Vec<&Tuple> = index.matching_all(&bound).collect();
        assert_eq!(hits, vec![&tuple!["a", 1]]);
        let none = vec![(0, Value::str("b")), (1, Value::Int(2))];
        assert_eq!(index.matching_all(&none).count(), 0);
    }

    #[test]
    fn out_of_order_insert_keeps_posting_lists_tuple_sorted() {
        let mut index = RelationIndex::default();
        index.insert(tuple!["m", 1]);
        index.insert(tuple!["z", 1]);
        // Sorts before both existing tuples.
        index.insert(tuple!["a", 1]);
        let hits: Vec<&Tuple> = index.matching(1, &Value::Int(1)).collect();
        assert_eq!(
            hits,
            vec![&tuple!["a", 1], &tuple!["m", 1], &tuple!["z", 1]]
        );
    }

    #[test]
    fn discrimination_tracks_posting_list_shape() {
        // Distinct values per column: lists are short, probing pays off.
        let mut sharp = RelationIndex::default();
        for i in 0..8i64 {
            sharp.insert(tuple![i, i + 100]);
        }
        assert!(sharp.discriminating());
        // A constant column plus three binary ones: every posting list holds
        // at least half the relation, so scanning wins.
        let mut blunt = RelationIndex::default();
        for i in 0..8i64 {
            blunt.insert(tuple!["x", i & 1, (i >> 1) & 1, (i >> 2) & 1]);
        }
        assert!(!blunt.discriminating());
    }

    #[test]
    fn mixed_arities_report_no_uniform_arity() {
        let mut index = RelationIndex::default();
        assert_eq!(index.uniform_arity(), None);
        index.insert(tuple!["a"]);
        assert_eq!(index.uniform_arity(), Some(1));
        index.insert(tuple!["a", "b"]);
        assert_eq!(index.uniform_arity(), None);
    }

    #[test]
    fn scan_view_matches_indexed_view() {
        let mut inst = Instance::new();
        for i in 0..20i64 {
            inst.add_fact("R", tuple![i % 3, i]);
        }
        let value = Value::Int(1);
        let indexed: Vec<Tuple> = inst
            .tuples_matching("R".into(), 0, &value)
            .cloned()
            .collect();
        let scan = ScanView(&inst);
        let scanned: Vec<Tuple> = scan
            .tuples_matching("R".into(), 0, &value)
            .cloned()
            .collect();
        assert_eq!(indexed, scanned);
        assert_eq!(
            inst.selectivity("R".into(), 0, &value),
            scan.selectivity("R".into(), 0, &value)
        );
    }

    #[test]
    fn merged_streams_interleave_in_tuple_order() {
        let left = sample_index();
        let mut right = RelationIndex::default();
        right.insert(tuple!["a", 0]);
        right.insert(tuple!["c", 7]);
        let merged: Vec<&Tuple> = MatchIter::merged(
            left.matching(0, &Value::str("a")),
            right.matching(0, &Value::str("a")),
        )
        .collect();
        assert_eq!(
            merged,
            vec![&tuple!["a", 0], &tuple!["a", 1], &tuple!["a", 2]]
        );
    }
}
