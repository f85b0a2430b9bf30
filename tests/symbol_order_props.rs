//! Property tests for the interned-symbol order (`relational::symbols`):
//! `Ord` on `Sym`, `Value::Str` and `RelId` is exactly the string order,
//! including where the 16-byte order keys tie (shared prefixes of 16 bytes
//! or more, trailing NULs) and for multi-byte UTF-8 and the empty string,
//! and it stays so while another thread grows the pool.

mod common;

use std::cmp::Ordering;
use std::sync::{Arc, Barrier};
use std::thread;

use proptest::prelude::*;

use accltl_core::prelude::*;

use common::with_deadline;

/// Fragments whose concatenations hit every case the order keys have to
/// get right.
const PIECES: &[&str] = &[
    "",
    "a",
    "b",
    "\0",
    "\0\0",
    "é",
    "日本",
    "\u{10FFFF}",
    "Z",
    "a-shared-prefix-of-twenty",
    "a-shared-prefix-of-twenty!",
    "sixteen-bytes-ab",
];

/// Strings of zero to four fragments.
fn tricky_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..PIECES.len(), 0..5)
        .prop_map(|picks| picks.into_iter().map(|i| PIECES[i]).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Symbols, text values and relation ids order like their strings.
    #[test]
    fn symbol_order_is_string_order(a in tricky_string(), b in tricky_string()) {
        let expected = a.as_str().cmp(b.as_str());
        prop_assert_eq!(Sym::new(&a).cmp(&Sym::new(&b)), expected);
        prop_assert_eq!(Value::str(a.as_str()).cmp(&Value::str(b.as_str())), expected);
        prop_assert_eq!(RelId::new(&a).cmp(&RelId::new(&b)), expected);
    }
}

#[test]
fn tied_order_keys_fall_back_to_the_strings() {
    let cases = [
        ("sixteen-bytes-ab", "sixteen-bytes-ab\0"),
        ("sixteen-bytes-abX", "sixteen-bytes-abY"),
        ("ab", "ab\0"),
        ("", "\0"),
        ("日本語日本語日本語", "日本語日本語日本語!"),
    ];
    for (lower, higher) in cases {
        assert_eq!(
            Sym::new(lower).cmp(&Sym::new(higher)),
            Ordering::Less,
            "{lower:?} < {higher:?}"
        );
        assert_eq!(
            Sym::new(higher).cmp(&Sym::new(lower)),
            Ordering::Greater,
            "{higher:?} > {lower:?}"
        );
    }
}

/// One thread interns fresh strings while another, with a fresh mirror,
/// sorts symbols interned before either started and compares symbols it
/// interns itself: every order must equal the string order.
#[test]
fn ordering_is_stable_while_the_pool_grows() {
    with_deadline(60, || {
        let existing: Vec<Sym> = (0..400)
            .map(|i| {
                Sym::new(&format!(
                    "order-race-{:03}-{}",
                    (i * 7919) % 400,
                    "x".repeat(i % 23)
                ))
            })
            .collect();
        let mut expected: Vec<&str> = existing.iter().map(|s| s.as_str()).collect();
        expected.sort_unstable();
        let start = Arc::new(Barrier::new(2));
        let writer = {
            let start = Arc::clone(&start);
            thread::spawn(move || {
                start.wait();
                for i in 0..20_000 {
                    let _ = Sym::new(&format!("order-race-fresh-{i}"));
                }
            })
        };
        let reader = thread::spawn(move || {
            start.wait();
            for round in 0..200 {
                let mut sorted = existing.clone();
                sorted.rotate_left(round % existing.len());
                sorted.sort();
                let got: Vec<&str> = sorted.iter().map(|s| s.as_str()).collect();
                assert_eq!(got, expected, "round {round}");
                let probe = Sym::new(&format!("order-race-{:03}-probe", round * 2));
                for other in &existing {
                    assert_eq!(probe.cmp(other), probe.as_str().cmp(other.as_str()));
                }
            }
        });
        writer.join().expect("the writer never panics");
        reader.join().expect("every order matches the string order");
    });
}
