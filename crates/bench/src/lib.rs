//! Shared helpers for the benchmark harness that regenerates the paper's
//! tables and figures.
//!
//! Each bench target prints the rows/series it reproduces (in addition to the
//! Criterion measurements), so that `cargo bench` output can be compared
//! side-by-side with the paper.  End-to-end and per-layer timings of the
//! analyzer come from `perfbench/` (see its README), not from these targets.

use accltl_core::prelude::*;

/// The per-fragment workloads used by the Table 1 complexity sweep: for a
/// requested "size" (number of chained obligations) build a representative
/// satisfiable formula of each fragment over the phone-directory schema.
#[must_use]
pub fn table1_formula(fragment: Fragment, size: usize) -> AccLtl {
    let jones_post = PosFormula::exists(
        vec!["s", "p", "h"],
        post_atom(
            "Address",
            vec![
                Term::var("s"),
                Term::var("p"),
                Term::constant("Jones"),
                Term::var("h"),
            ],
        ),
    );
    let mobile_pre = PosFormula::exists(
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
    let acm1_bound = PosFormula::exists(vec!["n"], isbind_atom("AcM1", vec![Term::var("n")]));
    match fragment {
        Fragment::XZeroAry => {
            // Nested X obligations ending in a data requirement.
            let mut f = AccLtl::atom(jones_post);
            for _ in 0..size {
                f = AccLtl::next(f);
            }
            f
        }
        Fragment::ZeroAry => {
            // A conjunction of eventualities (the standard PSPACE stress shape).
            AccLtl::and(
                (0..size)
                    .map(|i| {
                        if i % 2 == 0 {
                            AccLtl::finally(AccLtl::atom(jones_post.clone()))
                        } else {
                            AccLtl::finally(AccLtl::atom(mobile_pre.clone()))
                        }
                    })
                    .collect(),
            )
        }
        Fragment::ZeroAryWithInequalities => {
            let schema = phone_directory_access_schema();
            let fd = properties::functional_dependency_formula(
                &schema,
                &FunctionalDependency::new("Mobile#", vec![0], 3),
            );
            AccLtl::and(
                std::iter::once(fd)
                    .chain((0..size).map(|_| AccLtl::finally(AccLtl::atom(mobile_pre.clone()))))
                    .collect(),
            )
        }
        Fragment::BindingPositive => AccLtl::and(
            (0..size)
                .map(|i| {
                    if i % 2 == 0 {
                        AccLtl::finally(AccLtl::atom(acm1_bound.clone()))
                    } else {
                        AccLtl::finally(AccLtl::atom(jones_post.clone()))
                    }
                })
                .collect(),
        ),
        Fragment::Full | Fragment::FullWithInequalities => AccLtl::and(
            std::iter::once(AccLtl::globally(AccLtl::not(AccLtl::atom(acm1_bound))))
                .chain((0..size).map(|_| AccLtl::finally(AccLtl::atom(jones_post.clone()))))
                .collect(),
        ),
    }
}

/// The six Table 1 rows in display order.
#[must_use]
pub fn table1_rows() -> Vec<Fragment> {
    vec![
        Fragment::FullWithInequalities,
        Fragment::Full,
        Fragment::BindingPositive,
        Fragment::ZeroAry,
        Fragment::ZeroAryWithInequalities,
        Fragment::XZeroAry,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_formulas_land_in_their_rows() {
        for fragment in [
            Fragment::XZeroAry,
            Fragment::ZeroAry,
            Fragment::ZeroAryWithInequalities,
            Fragment::BindingPositive,
            Fragment::Full,
        ] {
            let f = table1_formula(fragment, 2);
            assert!(
                accltl_core::logic::fragment::belongs_to(&f, fragment),
                "{fragment}: {f}"
            );
        }
    }

    #[test]
    fn table1_formulas_grow_with_size() {
        for fragment in table1_rows() {
            assert!(table1_formula(fragment, 4).size() > table1_formula(fragment, 1).size());
        }
    }
}
