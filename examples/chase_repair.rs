//! Repairing an instance with the bounded chase: inclusion-dependency
//! repairs, functional-dependency null merges, and a denial-constraint
//! failure.
//!
//! Run with `cargo run --example chase_repair`.  The output is deterministic:
//! the repair sequence, and so the instance and its fresh-null names, depends
//! only on the input and the constraint order.  The repair counters are
//! printed; the work counter `tuples_rescanned` is left to `ACCLTL_STATS=1`.

use accltl_core::prelude::*;
use accltl_core::relational::chase::{chase_with_stats, ChaseConfig, ChaseOutcome};
use accltl_core::relational::{Constraint, InclusionDependency};

fn workload() -> (Instance, Vec<Constraint>) {
    let mut inst = Instance::new();
    // Mobile entries whose street/postcode pairs lack address rows: each one
    // triggers an inclusion-dependency repair.
    inst.add_fact("Mobile#", tuple!["Smith", "OX13QD", "Parks Rd", 5551212]);
    inst.add_fact("Mobile#", tuple!["Jones", "OX26NN", "High St", 5550000]);
    inst.add_fact("Mobile#", tuple!["Doe", "OX44AA", "Abbey Rd", 5559999]);
    // One address row already present, with a null postcode: the FD
    // `street → postcode` merges it with the repaired rows' constants.
    inst.add_fact(
        "Address",
        Tuple::new(vec![
            Value::str("Parks Rd"),
            Value::labelled_null(1),
            Value::str("Smith"),
            Value::Int(13),
        ]),
    );
    let constraints = vec![
        Constraint::Ind(InclusionDependency::new(
            "Mobile#",
            vec![2, 1],
            "Address",
            vec![0, 1],
        )),
        Constraint::Fd(FunctionalDependency::new("Address", vec![0], 1)),
    ];
    (inst, constraints)
}

fn main() {
    let (inst, constraints) = workload();
    println!("=== Chase repair (phone-directory constraints) ===");
    println!("input: {} facts", inst.fact_count());
    for c in &constraints {
        println!("  constraint: {c}");
    }

    let config = ChaseConfig::default();
    let (outcome, stats) = chase_with_stats(&inst, &constraints, &config);
    match &outcome {
        ChaseOutcome::Completed(result) => {
            println!(
                "completed: {} facts, all constraints satisfied: {}",
                result.fact_count(),
                constraints.iter().all(|c| c.satisfied(result))
            );
            println!("{result}");
        }
        ChaseOutcome::Failed { violated } => println!("failed on: {violated}"),
        ChaseOutcome::BudgetExhausted(_) => println!("budget exhausted"),
    }
    println!(
        "repair trace: {} passes, {} violation checks, {} FD merges, {} IND additions ({} repairs)",
        stats.passes,
        stats.violation_checks,
        stats.fd_merges,
        stats.ind_additions,
        stats.repairs()
    );

    // A denial constraint cannot be repaired: the chase reports the violated
    // constraint instead of an instance.
    let mut conflicted = Instance::new();
    conflicted.add_fact("Staff", tuple!["Parks Rd"]);
    conflicted.add_fact("Street", tuple!["Parks Rd"]);
    let denial = vec![Constraint::Disjoint(DisjointnessConstraint::new(
        "Staff", 0, "Street", 0,
    ))];
    let (outcome, _) = chase_with_stats(&conflicted, &denial, &config);
    match outcome {
        ChaseOutcome::Failed { violated } => println!("\ndenial detected: {violated}"),
        _ => println!("\nunexpected: denial constraint not detected"),
    }

    // One-shot counter/timing summary, printed only under ACCLTL_STATS=1.
    accltl_core::obs::summary::print_if_enabled();
}
