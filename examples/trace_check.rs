//! Validates an `ACCLTL_TRACE` JSONL trace file: every line must parse,
//! every number must be non-negative, and per thread the enter/exit records
//! must form a well-nested span tree that ends empty.  Used by the CI trace
//! smoke alongside the determinism diffs.
//!
//! ```text
//! cargo run --example trace_check -- TRACE.jsonl [--require name1,name2,...]
//! ```
//!
//! With `--require`, the listed span/event names must each occur at least
//! once — CI uses this to pin the instrumentation coverage (engine phases,
//! guard-cache consults, chase passes, LTS layers).  Exits
//! non-zero with a line-numbered message on the first violation.

use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

use accltl_core::obs::json::{parse, JsonValue};

/// One validation failure, with the 1-based line it occurred on.
struct Violation {
    line: usize,
    message: String,
}

fn fail(line: usize, message: impl Into<String>) -> Violation {
    Violation {
        line,
        message: message.into(),
    }
}

/// Recursively checks that every numeric value in a record is non-negative
/// (the trace grammar only emits unsigned integers).
fn check_non_negative(value: &JsonValue, line: usize) -> Result<(), Violation> {
    match value {
        JsonValue::Int(n) if *n < 0 => Err(fail(line, format!("negative number {n}"))),
        JsonValue::Float(f) if *f < 0.0 => Err(fail(line, format!("negative number {f}"))),
        JsonValue::Array(items) => items.iter().try_for_each(|v| check_non_negative(v, line)),
        JsonValue::Object(map) => map.values().try_for_each(|v| check_non_negative(v, line)),
        _ => Ok(()),
    }
}

fn str_field<'a>(record: &'a JsonValue, key: &str, line: usize) -> Result<&'a str, Violation> {
    record
        .get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| fail(line, format!("missing string field {key:?}")))
}

fn int_field(record: &JsonValue, key: &str, line: usize) -> Result<i128, Violation> {
    record
        .get(key)
        .and_then(JsonValue::as_int)
        .ok_or_else(|| fail(line, format!("missing integer field {key:?}")))
}

/// Validates the whole trace text, returning per-kind record counts and the
/// set of names seen.
fn validate(text: &str) -> Result<(BTreeMap<String, usize>, BTreeSet<String>), Violation> {
    // Per-thread stack of open span ids; exits must match the innermost
    // open span on their thread, and every stack must end empty.
    let mut open: BTreeMap<i128, Vec<(i128, String)>> = BTreeMap::new();
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    let mut names: BTreeSet<String> = BTreeSet::new();
    let mut seen_ids: BTreeSet<i128> = BTreeSet::new();

    for (index, line) in text.lines().enumerate() {
        let lineno = index + 1;
        let record = parse(line).map_err(|e| fail(lineno, format!("unparseable JSON: {e}")))?;
        check_non_negative(&record, lineno)?;
        let ev = str_field(&record, "ev", lineno)?;
        let name = str_field(&record, "name", lineno)?.to_owned();
        let thread = int_field(&record, "thread", lineno)?;
        names.insert(name.clone());
        *counts.entry(ev.to_owned()).or_default() += 1;
        match ev {
            "enter" => {
                let id = int_field(&record, "id", lineno)?;
                let parent = int_field(&record, "parent", lineno)?;
                int_field(&record, "t_ns", lineno)?;
                if !seen_ids.insert(id) {
                    return Err(fail(lineno, format!("duplicate span id {id}")));
                }
                let stack = open.entry(thread).or_default();
                // The parent link must point at the innermost open span on
                // this thread (or 0 for a root).
                let expected = stack.last().map_or(0, |(open_id, _)| *open_id);
                if parent != expected {
                    return Err(fail(
                        lineno,
                        format!("span {id} has parent {parent}, expected {expected}"),
                    ));
                }
                stack.push((id, name));
            }
            "exit" => {
                let id = int_field(&record, "id", lineno)?;
                int_field(&record, "dur_ns", lineno)?;
                let stack = open.entry(thread).or_default();
                match stack.pop() {
                    Some((open_id, open_name)) if open_id == id && open_name == name => {}
                    Some((open_id, open_name)) => {
                        return Err(fail(
                            lineno,
                            format!(
                                "exit of span {id} ({name}) crosses open span \
                                 {open_id} ({open_name})"
                            ),
                        ));
                    }
                    None => {
                        return Err(fail(
                            lineno,
                            format!("exit of span {id} with no open span on thread {thread}"),
                        ));
                    }
                }
            }
            "event" => {
                int_field(&record, "t_ns", lineno)?;
            }
            other => return Err(fail(lineno, format!("unknown record kind {other:?}"))),
        }
    }

    for (thread, stack) in &open {
        if let Some((id, name)) = stack.last() {
            return Err(fail(
                text.lines().count(),
                format!("span {id} ({name}) on thread {thread} never exited"),
            ));
        }
    }
    Ok((counts, names))
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(path) = args.next() else {
        eprintln!("usage: trace_check <trace.jsonl> [--require name1,name2,...]");
        return ExitCode::FAILURE;
    };
    let required: Vec<String> = match (args.next().as_deref(), args.next()) {
        (Some("--require"), Some(list)) => list.split(',').map(str::to_owned).collect(),
        (None, _) => Vec::new(),
        _ => {
            eprintln!("usage: trace_check <trace.jsonl> [--require name1,name2,...]");
            return ExitCode::FAILURE;
        }
    };

    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(error) => {
            eprintln!("trace_check: cannot read {path}: {error}");
            return ExitCode::FAILURE;
        }
    };
    if text.trim().is_empty() {
        eprintln!("trace_check: {path} is empty — was ACCLTL_TRACE honoured?");
        return ExitCode::FAILURE;
    }

    match validate(&text) {
        Ok((counts, names)) => {
            let missing: Vec<&String> = required
                .iter()
                .filter(|name| !names.contains(*name))
                .collect();
            if !missing.is_empty() {
                eprintln!("trace_check: {path} has no record named {missing:?}");
                return ExitCode::FAILURE;
            }
            let summary: Vec<String> = counts.iter().map(|(ev, n)| format!("{n} {ev}")).collect();
            println!(
                "trace_check: {path} OK — {} ({} distinct names)",
                summary.join(", "),
                names.len()
            );
            ExitCode::SUCCESS
        }
        Err(violation) => {
            eprintln!(
                "trace_check: {path}:{}: {}",
                violation.line, violation.message
            );
            ExitCode::FAILURE
        }
    }
}
