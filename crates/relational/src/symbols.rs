//! Interned symbols: copyable `u32` ids for relation names, variable names
//! and text constants.
//!
//! Every decision procedure in this workspace — the chase, homomorphism
//! search, bounded witness search, A-automaton product emptiness — is a
//! bounded exponential search whose inner loops compare, hash and copy names
//! constantly.  Heap-allocated `String`s make each of those operations an
//! allocation or a byte-wise comparison; this module replaces them with
//! interned symbols:
//!
//! * [`Sym`] — an interned string (method names, text constants);
//! * [`RelId`] — an interned *relation/predicate* name;
//! * [`VarId`] — an interned *variable* name.
//!
//! All three are `Copy` wrappers around a `u32` into a process-wide,
//! append-only string pool.  Equality and hashing are integer operations;
//! resolving back to `&str` is a thread-local array lookup.  `Ord` is the
//! lexicographic order of the *resolved strings*, so that every ordered
//! collection in the workspace iterates in exactly the same order as the
//! pre-interning, `String`-keyed representation — determinism across runs
//! is part of the crate contract and must not depend on interning order.
//! It is computed in integer time almost always: each pool entry carries an
//! immutable *order key* (the string's first 16 bytes, big-endian,
//! zero-padded), keys are compared first, and only two strings whose keys
//! tie are compared byte by byte.  Both symbols resolve in one borrow of the
//! thread-local mirror; entries never change once interned, so no lock is
//! taken after a thread first sees a symbol.
//!
//! # Pool growth
//!
//! The pool is append-only and leaks one copy of each distinct string for
//! the process lifetime, so its size is bounded by the set of distinct names
//! ever *written* (constructors and `add_fact`-style writes intern; read-only
//! lookups go through the non-growing `*Key` traits / [`Sym::try_get`]).
//! Generated scratch names — frozen canonical-database values, the
//! `x′<tag>`-style renames of the Datalog unfolding, the per-disjunct guard
//! renames of the bounded searches — all draw their tags from counters that
//! restart at every call, so repeated analyses of the same objects reuse the
//! same pool entries instead of growing the pool.
//!
//! # Id-space ownership
//!
//! Ids are allocated by the process-wide pool, so a given spelling resolves
//! to the same `Sym` everywhere in the process — symbols can safely cross
//! API boundaries.  *Dense indices* are a different matter: each
//! [`SymbolTable`] (one per `Schema`, extended by `AccessSchema` with its
//! method names, both resolved at build time) numbers **its own** relations
//! and methods `0..n` for use in per-schema dense arrays.  A dense index
//! obtained from one table is meaningless to every other table; always go
//! through the owning table (or carry the `RelId`/`Sym`, which is globally
//! valid) when crossing between schemas.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{OnceLock, RwLock};

/// One pool entry: the interned string and its order key.
#[derive(Clone, Copy)]
struct Entry {
    text: &'static str,
    /// The string's first 16 bytes, big-endian and zero-padded (see
    /// [`order_key`]).
    key: u128,
}

/// The order key of a string: its first 16 bytes read as a big-endian
/// integer, zero-padded.  Comparing keys agrees with comparing the strings
/// whenever the keys differ: the first differing key byte is either the
/// first differing string byte or a zero pad against a real byte of the
/// longer string, which then has the shorter one as a prefix.  Equal keys
/// (a shared 16-byte prefix, or a difference hidden by trailing NULs) say
/// nothing and fall back to the string comparison.
fn order_key(s: &str) -> u128 {
    let mut bytes = [0u8; 16];
    let len = s.len().min(16);
    bytes[..len].copy_from_slice(&s.as_bytes()[..len]);
    u128::from_be_bytes(bytes)
}

/// The process-wide string pool: append-only, ids are dense from zero.
struct Pool {
    lookup: HashMap<&'static str, u32>,
    entries: Vec<Entry>,
}

fn pool() -> &'static RwLock<Pool> {
    static POOL: OnceLock<RwLock<Pool>> = OnceLock::new();
    POOL.get_or_init(|| {
        RwLock::new(Pool {
            lookup: HashMap::new(),
            entries: Vec::new(),
        })
    })
}

thread_local! {
    /// Per-thread mirror of the pool's entries.  The pool is append-only and
    /// entries never change, so a stale mirror is never wrong — only short —
    /// and is refreshed from the shared pool on a miss.  This makes
    /// `Sym::as_str` and `Sym::cmp` lock-free after the first resolution
    /// per (thread, symbol).
    static MIRROR: RefCell<Vec<Entry>> = const { RefCell::new(Vec::new()) };
}

fn intern(s: &str) -> u32 {
    // Fast path: already interned (read lock only).
    if let Some(&id) = pool().read().expect("symbol pool poisoned").lookup.get(s) {
        return id;
    }
    let mut pool = pool().write().expect("symbol pool poisoned");
    if let Some(&id) = pool.lookup.get(s) {
        return id;
    }
    // Leak exactly one copy per distinct string, for the process lifetime.
    // The pool is bounded by the set of distinct names/constants ever used.
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    let id = u32::try_from(pool.entries.len()).expect("symbol pool overflow");
    pool.entries.push(Entry {
        text: leaked,
        key: order_key(leaked),
    });
    pool.lookup.insert(leaked, id);
    id
}

/// Runs `f` on this thread's mirror, first refreshing it from the pool if
/// it does not yet hold id `max_id`.
fn with_mirror<R>(max_id: u32, f: impl FnOnce(&[Entry]) -> R) -> R {
    MIRROR.with(|mirror| {
        let mut mirror = mirror.borrow_mut();
        if (max_id as usize) >= mirror.len() {
            let pool = pool().read().expect("symbol pool poisoned");
            let known = mirror.len();
            mirror.extend_from_slice(&pool.entries[known..]);
        }
        f(&mirror)
    })
}

fn resolve(id: u32) -> &'static str {
    with_mirror(id, |entries| entries[id as usize].text)
}

/// The string order of two distinct ids: order keys first, the strings
/// only when the keys tie.  Both ids resolve in one mirror borrow.
fn compare(a: u32, b: u32) -> std::cmp::Ordering {
    with_mirror(a.max(b), |entries| {
        let (a, b) = (entries[a as usize], entries[b as usize]);
        a.key.cmp(&b.key).then_with(|| a.text.cmp(b.text))
    })
}

/// An interned string: a copyable `u32` handle into the process-wide pool.
///
/// `Eq`/`Hash` are integer operations on the id.  `Ord` is exactly the
/// lexicographic order of the resolved strings (like the `String`
/// representation it replaces): equal ids are equal, otherwise the two pool
/// entries' order keys — their first 16 bytes as big-endian integers —
/// decide, and only keys that tie fall back to comparing the strings.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Sym(u32);

impl Sym {
    /// Interns a string, returning its symbol.
    #[must_use]
    pub fn new(s: &str) -> Sym {
        Sym(intern(s))
    }

    /// The symbol for `s` if it has been interned before; `None` otherwise.
    /// Useful for read-only lookups that should not grow the pool.
    #[must_use]
    pub fn try_get(s: &str) -> Option<Sym> {
        pool()
            .read()
            .expect("symbol pool poisoned")
            .lookup
            .get(s)
            .copied()
            .map(Sym)
    }

    /// Resolves the symbol to its string.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        resolve(self.0)
    }

    /// The raw pool id (dense from zero, process-wide).
    #[must_use]
    pub fn id(self) -> u32 {
        self.0
    }
}

impl Ord for Sym {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            compare(self.0, other.0)
        }
    }
}

impl PartialOrd for Sym {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for Sym {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl AsRef<str> for Sym {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Self {
        Sym::new(s)
    }
}

impl From<&String> for Sym {
    fn from(s: &String) -> Self {
        Sym::new(s)
    }
}

impl From<String> for Sym {
    fn from(s: String) -> Self {
        Sym::new(&s)
    }
}

impl From<&Sym> for Sym {
    fn from(s: &Sym) -> Self {
        *s
    }
}

impl PartialEq<&str> for Sym {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<str> for Sym {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<Sym> for &str {
    fn eq(&self, other: &Sym) -> bool {
        *self == other.as_str()
    }
}

/// A read-only lookup key for [`Sym`]-keyed collections.
///
/// Already-interned ids resolve to themselves for free; string keys resolve
/// through [`Sym::try_get`], so probing a collection for a name that was
/// never interned answers "absent" **without growing the pool** — lookups
/// with attacker- or user-derived strings cannot leak memory.
pub trait SymKey {
    /// The interned symbol, if this key's spelling has been interned.
    fn resolve_sym(&self) -> Option<Sym>;
}

impl SymKey for Sym {
    fn resolve_sym(&self) -> Option<Sym> {
        Some(*self)
    }
}

impl SymKey for &Sym {
    fn resolve_sym(&self) -> Option<Sym> {
        Some(**self)
    }
}

impl SymKey for &str {
    fn resolve_sym(&self) -> Option<Sym> {
        Sym::try_get(self)
    }
}

impl SymKey for &String {
    fn resolve_sym(&self) -> Option<Sym> {
        Sym::try_get(self)
    }
}

impl SymKey for String {
    fn resolve_sym(&self) -> Option<Sym> {
        Sym::try_get(self)
    }
}

/// Declares an interned-name newtype over [`Sym`] with the same surface.
macro_rules! symbol_newtype {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(Sym);

        impl $name {
            /// Interns a name.
            #[must_use]
            pub fn new(s: &str) -> Self {
                $name(Sym::new(s))
            }

            /// The id for `s` if interned before, without growing the pool.
            #[must_use]
            pub fn try_get(s: &str) -> Option<Self> {
                Sym::try_get(s).map($name)
            }

            /// Resolves to the underlying name.
            #[must_use]
            pub fn as_str(self) -> &'static str {
                self.0.as_str()
            }

            /// The underlying interned symbol.
            #[must_use]
            pub fn sym(self) -> Sym {
                self.0
            }

            /// The raw pool id.
            #[must_use]
            pub fn id(self) -> u32 {
                self.0.id()
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:?}", self.as_str())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.as_str())
            }
        }

        impl From<&str> for $name {
            fn from(s: &str) -> Self {
                $name::new(s)
            }
        }

        impl From<&String> for $name {
            fn from(s: &String) -> Self {
                $name::new(s)
            }
        }

        impl From<String> for $name {
            fn from(s: String) -> Self {
                $name::new(&s)
            }
        }

        impl From<Sym> for $name {
            fn from(s: Sym) -> Self {
                $name(s)
            }
        }

        impl From<&$name> for $name {
            fn from(s: &$name) -> Self {
                *s
            }
        }

        impl PartialEq<&str> for $name {
            fn eq(&self, other: &&str) -> bool {
                self.as_str() == *other
            }
        }

        impl PartialEq<str> for $name {
            fn eq(&self, other: &str) -> bool {
                self.as_str() == other
            }
        }

        impl PartialEq<$name> for &str {
            fn eq(&self, other: &$name) -> bool {
                *self == other.as_str()
            }
        }
    };
}

symbol_newtype! {
    /// An interned relation (predicate) name.
    RelId
}

symbol_newtype! {
    /// An interned variable name.
    VarId
}

/// A read-only lookup key for [`RelId`]-keyed collections (see [`SymKey`]).
pub trait RelKey {
    /// The interned relation id, if this key's spelling has been interned.
    fn resolve_rel(&self) -> Option<RelId>;
}

impl RelKey for RelId {
    fn resolve_rel(&self) -> Option<RelId> {
        Some(*self)
    }
}

impl RelKey for &RelId {
    fn resolve_rel(&self) -> Option<RelId> {
        Some(**self)
    }
}

impl RelKey for Sym {
    fn resolve_rel(&self) -> Option<RelId> {
        Some(RelId(*self))
    }
}

impl RelKey for &str {
    fn resolve_rel(&self) -> Option<RelId> {
        RelId::try_get(self)
    }
}

impl RelKey for &String {
    fn resolve_rel(&self) -> Option<RelId> {
        RelId::try_get(self)
    }
}

impl RelKey for String {
    fn resolve_rel(&self) -> Option<RelId> {
        RelId::try_get(self)
    }
}

/// A read-only lookup key for [`VarId`]-keyed collections (see [`SymKey`]).
pub trait VarKey {
    /// The interned variable id, if this key's spelling has been interned.
    fn resolve_var(&self) -> Option<VarId>;
}

impl VarKey for VarId {
    fn resolve_var(&self) -> Option<VarId> {
        Some(*self)
    }
}

impl VarKey for &VarId {
    fn resolve_var(&self) -> Option<VarId> {
        Some(**self)
    }
}

impl VarKey for &str {
    fn resolve_var(&self) -> Option<VarId> {
        VarId::try_get(self)
    }
}

impl VarKey for &String {
    fn resolve_var(&self) -> Option<VarId> {
        VarId::try_get(self)
    }
}

impl VarKey for String {
    fn resolve_var(&self) -> Option<VarId> {
        VarId::try_get(self)
    }
}

/// A small, allocation-light map from raw intern ids to values: a vector of
/// `(id, value)` pairs sorted by id, looked up by binary search on `u32`s.
///
/// This is the shared backbone of every precomputed id-keyed table in the
/// workspace — [`SymbolTable`]'s dense indices, the `TransitionVocab`
/// pre/post/IsBind tables, the Datalog Δ-view table — so the
/// insert-at-`Err`-slot logic lives in exactly one place.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IdMap<V> {
    entries: Vec<(u32, V)>,
}

impl<V> Default for IdMap<V> {
    fn default() -> Self {
        IdMap {
            entries: Vec::new(),
        }
    }
}

impl<V> IdMap<V> {
    /// Creates an empty map.
    #[must_use]
    pub fn new() -> Self {
        IdMap {
            entries: Vec::new(),
        }
    }

    /// Inserts a value for an id, returning the previous value if present.
    pub fn insert(&mut self, id: u32, value: V) -> Option<V> {
        match self.entries.binary_search_by_key(&id, |&(k, _)| k) {
            Ok(found) => Some(std::mem::replace(&mut self.entries[found].1, value)),
            Err(slot) => {
                self.entries.insert(slot, (id, value));
                None
            }
        }
    }

    /// The value for an id, if present.
    #[must_use]
    pub fn get(&self, id: u32) -> Option<&V> {
        self.entries
            .binary_search_by_key(&id, |&(k, _)| k)
            .ok()
            .map(|found| &self.entries[found].1)
    }

    /// Mutable access to the value for an id, if present.
    #[must_use]
    pub fn get_mut(&mut self, id: u32) -> Option<&mut V> {
        self.entries
            .binary_search_by_key(&id, |&(k, _)| k)
            .ok()
            .map(|found| &mut self.entries[found].1)
    }

    /// Removes the value for an id, if present.
    pub fn remove(&mut self, id: u32) -> Option<V> {
        match self.entries.binary_search_by_key(&id, |&(k, _)| k) {
            Ok(found) => Some(self.entries.remove(found).1),
            Err(_) => None,
        }
    }

    /// Iterates over the values in id order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the map has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A schema-owned registry of interned names with *dense local indices*.
///
/// One table lives in each `Schema` (and, extended with access-method names,
/// in each `AccessSchema`); names are resolved into it at build time.  The
/// table numbers its relations and methods `0..n` so hot loops can use plain
/// arrays instead of maps.  Dense indices are meaningful only relative to the
/// table that produced them — see the module docs for the ownership rule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SymbolTable {
    relations: Vec<RelId>,
    /// Raw pool id → dense relation index, [`NO_DENSE_INDEX`] when absent.
    /// A direct array rather than a sorted map: the search inner loops
    /// resolve ids to dense indices on every structure build, and raw ids are
    /// small process-wide integers, so trading a few bytes per unused id for
    /// branch-free O(1) lookups is the right call.
    relation_dense: Vec<u32>,
    methods: Vec<Sym>,
    method_dense: Vec<u32>,
}

/// Sentinel for "this raw id is not registered in the table".
const NO_DENSE_INDEX: u32 = u32::MAX;

fn dense_get(dense: &[u32], id: u32) -> Option<usize> {
    match dense.get(id as usize) {
        Some(&index) if index != NO_DENSE_INDEX => Some(index as usize),
        _ => None,
    }
}

fn dense_set(dense: &mut Vec<u32>, id: u32, index: usize) {
    if dense.len() <= id as usize {
        dense.resize(id as usize + 1, NO_DENSE_INDEX);
    }
    dense[id as usize] = u32::try_from(index).expect("dense index overflow");
}

impl SymbolTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a string in the process-wide pool (the table does not need to
    /// own it; this is a convenience so callers holding a table need no other
    /// import).
    #[must_use]
    pub fn intern(&self, s: &str) -> Sym {
        Sym::new(s)
    }

    /// Resolves any symbol back to its string.
    #[must_use]
    pub fn resolve(&self, sym: Sym) -> &'static str {
        sym.as_str()
    }

    /// Registers a relation, returning its dense index (existing index if the
    /// relation is already registered).
    pub fn add_relation(&mut self, relation: RelId) -> usize {
        if let Some(dense) = dense_get(&self.relation_dense, relation.id()) {
            return dense;
        }
        let dense = self.relations.len();
        self.relations.push(relation);
        dense_set(&mut self.relation_dense, relation.id(), dense);
        dense
    }

    /// Registers an access-method name, returning its dense index.
    pub fn add_method(&mut self, method: Sym) -> usize {
        if let Some(dense) = dense_get(&self.method_dense, method.id()) {
            return dense;
        }
        let dense = self.methods.len();
        self.methods.push(method);
        dense_set(&mut self.method_dense, method.id(), dense);
        dense
    }

    /// The registered relations, in registration (dense-index) order.
    #[must_use]
    pub fn relations(&self) -> &[RelId] {
        &self.relations
    }

    /// The registered method names, in registration (dense-index) order.
    #[must_use]
    pub fn methods(&self) -> &[Sym] {
        &self.methods
    }

    /// The dense index of a relation in this table, if registered.  A direct
    /// array lookup by raw id — constant time, no binary search.
    #[must_use]
    pub fn relation_index(&self, relation: RelId) -> Option<usize> {
        dense_get(&self.relation_dense, relation.id())
    }

    /// The dense index of a method name in this table, if registered.
    #[must_use]
    pub fn method_index(&self, method: Sym) -> Option<usize> {
        dense_get(&self.method_dense, method.id())
    }

    /// Number of registered relations.
    #[must_use]
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }

    /// Number of registered methods.
    #[must_use]
    pub fn method_count(&self) -> usize {
        self.methods.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_round_trips_and_dedups() {
        let a = Sym::new("hello");
        let b = Sym::new("hello");
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        assert_eq!(a.as_str(), "hello");
        assert_eq!(a, "hello");
        let c = Sym::new("world");
        assert_ne!(a, c);
    }

    #[test]
    fn ordering_is_lexicographic_not_id_order() {
        // Intern in reverse lexicographic order; Ord must still be by string.
        let z = Sym::new("zzz-order-test");
        let a = Sym::new("aaa-order-test");
        assert!(a < z);
        assert!(RelId::from("aaa-order-test") < RelId::from("zzz-order-test"));
    }

    #[test]
    fn try_get_does_not_intern() {
        assert!(Sym::try_get("never-interned-symbol-xyzzy").is_none());
        let s = Sym::new("interned-once-abcde");
        assert_eq!(Sym::try_get("interned-once-abcde"), Some(s));
    }

    #[test]
    fn newtypes_share_the_pool_but_are_distinct_types() {
        let r = RelId::new("Shared");
        let v = VarId::new("Shared");
        assert_eq!(r.sym(), v.sym());
        assert_eq!(r.as_str(), v.as_str());
    }

    #[test]
    fn symbol_table_assigns_dense_indices() {
        let mut table = SymbolTable::new();
        let r = RelId::new("R-table-test");
        let s = RelId::new("S-table-test");
        assert_eq!(table.add_relation(r), 0);
        assert_eq!(table.add_relation(s), 1);
        assert_eq!(table.add_relation(r), 0);
        assert_eq!(table.relation_index(r), Some(0));
        assert_eq!(table.relation_index(s), Some(1));
        assert_eq!(table.relation_index(RelId::new("T-table-test")), None);
        assert_eq!(table.relations(), &[r, s]);
        assert_eq!(table.relation_count(), 2);

        let m = Sym::new("M-table-test");
        assert_eq!(table.add_method(m), 0);
        assert_eq!(table.method_index(m), Some(0));
        assert_eq!(table.method_count(), 1);
    }

    #[test]
    fn resolution_works_across_threads() {
        let sym = Sym::new("cross-thread-symbol");
        let handle = std::thread::spawn(move || sym.as_str().to_owned());
        assert_eq!(handle.join().unwrap(), "cross-thread-symbol");
    }
}
