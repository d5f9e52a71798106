//! Scheduling independence of the pooled experiment harness: the same
//! figure driver run with `jobs = 1` and `jobs = 4` must produce
//! byte-identical rows (JSON-serialized) — results are slotted by input
//! index, never by completion order. (Fault isolation of a panicking
//! cell is a unit test in `figures.rs`.)

use checkelide_bench::figures;
use checkelide_bench::{ToJson, TraceCache};

fn rows_json<R: ToJson>(rows: &[R]) -> String {
    checkelide_bench::json::to_string_pretty(&rows.to_json())
}

#[test]
fn fig1_rows_are_byte_identical_across_job_counts() {
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
