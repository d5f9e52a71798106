//! Scheduling-independence and fault-isolation guarantees of the pooled
//! experiment harness (ISSUE: "determinism tests").
//!
//! 1. The same figure driver run with `jobs = 1` and `jobs = 4` must
//!    produce byte-identical rows (JSON-serialized) — results are slotted
//!    by input index, never by completion order.
//! 2. A cell that panics (injected via `CHECKELIDE_INJECT_PANIC`) must
//!    surface as a reported `CellError` while every sibling cell still
//!    completes and produces its row.

use checkelide_bench::figures::{self, INJECT_PANIC_ENV};
use checkelide_bench::{ToJson, TraceCache};
use std::sync::Mutex;

/// Serializes tests that read or mutate `CHECKELIDE_INJECT_PANIC`:
/// the test harness runs `#[test]`s on concurrent threads, and the figure
/// drivers read the variable at the start of each report.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn rows_json<R: ToJson>(rows: &[R]) -> String {
    checkelide_bench::json::to_string_pretty(&rows.to_json())
}

#[test]
fn fig1_rows_are_byte_identical_across_job_counts() {
    let _guard = ENV_LOCK.lock().unwrap();
    let off = TraceCache::disabled();
    let serial = figures::fig1_report_cached(true, 1, &off);
    let parallel = figures::fig1_report_cached(true, 4, &off);
    assert!(serial.failures.is_empty(), "serial failures: {:?}", serial.failures);
    assert!(parallel.failures.is_empty(), "parallel failures: {:?}", parallel.failures);
    assert_eq!(
        rows_json(&serial.rows),
        rows_json(&parallel.rows),
        "fig1 rows depend on worker scheduling"
    );
}

#[test]
fn fig89_rows_are_byte_identical_across_job_counts() {
    let _guard = ENV_LOCK.lock().unwrap();
    let off = TraceCache::disabled();
    let serial = figures::fig89_report_cached(true, 1, &off);
    let parallel = figures::fig89_report_cached(true, 4, &off);
    assert!(serial.failures.is_empty(), "serial failures: {:?}", serial.failures);
    assert!(parallel.failures.is_empty(), "parallel failures: {:?}", parallel.failures);
    assert_eq!(
        rows_json(&serial.rows),
        rows_json(&parallel.rows),
        "fig8/9 rows depend on worker scheduling"
    );
}

#[test]
fn injected_panic_is_isolated_to_its_cell() {
    let _guard = ENV_LOCK.lock().unwrap();
    let victim = "richards";
    std::env::set_var(INJECT_PANIC_ENV, victim);
    let report = figures::fig1_report_cached(true, 4, &TraceCache::disabled());
    std::env::remove_var(INJECT_PANIC_ENV);

    // Exactly the injected cell failed, as a CellError with the panic
    // message — not an abort of the whole report.
    assert_eq!(report.failures.len(), 1, "failures: {:?}", report.failures);
    let failure = &report.failures[0];
    assert_eq!(failure.label, format!("fig1/{victim}"));
    assert!(
        failure.message.contains("injected panic"),
        "unexpected panic payload: {}",
        failure.message
    );

    // Every sibling cell still produced its row and metadata.
    assert_eq!(report.rows.len() + 1, report.cells.len());
    let failed_meta =
        report.cells.iter().find(|c| c.benchmark == victim).expect("victim metadata");
    assert!(!failed_meta.ok);
    assert!(failed_meta.error.as_deref().unwrap_or("").contains("injected panic"));
    assert!(
        report.cells.iter().filter(|c| c.benchmark != victim).all(|c| c.ok),
        "a sibling cell was poisoned: {:?}",
        report.cells.iter().filter(|c| !c.ok).collect::<Vec<_>>()
    );
}
