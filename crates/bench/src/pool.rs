//! Parallel, fault-isolated experiment execution.
//!
//! Every figure/table driver decomposes into independent *cells*
//! (benchmark × configuration). Each cell constructs its own private
//! [`Vm`](checkelide_engine::Vm), so nothing `Rc`-based crosses a thread
//! boundary: only the cell *inputs* (`&'static Benchmark` + `RunConfig`)
//! and *outputs* (plain-data row structs) move between threads, and
//! [`run_cells`]'s bounds plus the [`assert_send_sync`] helper prove that
//! statically.
//!
//! The pool is a std-only scoped-thread worker pool (the build environment
//! has no registry access, so no rayon/crossbeam):
//!
//! * cells are pulled off a shared atomic cursor by `jobs` workers,
//! * each cell runs under [`std::panic::catch_unwind`], so a panicking
//!   benchmark becomes a [`CellError`] in the result table instead of
//!   aborting the whole run, and
//! * results are returned **in input order**, independent of scheduling,
//!   which keeps figure rows byte-identical between `--jobs 1` and
//!   `--jobs N` (see `tests/pool_determinism.rs`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, Once};
use std::time::{Duration, Instant};

/// Compile-time proof that a type may cross the pool's thread boundary.
pub fn assert_send_sync<T: Send + Sync>() {}

/// A failed cell: the benchmark panicked or reported a typed error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellError {
    /// Cell label (`figure/benchmark` by convention).
    pub label: String,
    /// Human-readable failure description (panic message or `RunError`).
    pub message: String,
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.label, self.message)
    }
}

impl std::error::Error for CellError {}

/// One executed cell: its scheduling metadata plus the result.
#[derive(Debug)]
pub struct CellOutcome<O> {
    /// Position in the input (and output) order.
    pub index: usize,
    /// Cell label (`figure/benchmark` by convention).
    pub label: String,
    /// Which worker executed the cell.
    pub worker: usize,
    /// Wall-clock time spent inside the cell.
    pub wall: Duration,
    /// The produced value, or the captured panic.
    pub result: Result<O, CellError>,
}

// --- panic-output suppression ---------------------------------------------
//
// `catch_unwind` still runs the global panic hook, which would spray every
// *expected* benchmark failure's backtrace over the experiment tables. We
// install (once, forwarding) a hook that is silent only on pool worker
// threads, so panics everywhere else keep their normal reporting.

thread_local! {
    static QUIET_PANICS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn install_quiet_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(std::cell::Cell::get) {
                prev(info);
            }
        }));
    });
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Run `f` over every `(label, input)` cell on `jobs` worker threads.
///
/// Outcomes are returned in input order regardless of scheduling. A panic
/// inside one cell is captured as a [`CellError`] for that cell only;
/// sibling cells are unaffected.
pub fn run_cells<I, O, F>(cells: Vec<(String, I)>, jobs: usize, f: F) -> Vec<CellOutcome<O>>
where
    I: Send + Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    // The bounds above are the static proof that cell inputs/outputs may
    // cross threads; spell it out for the concrete instantiation too.
    assert_send_sync::<CellError>();

    if cells.is_empty() {
        return Vec::new();
    }
    let jobs = jobs.clamp(1, cells.len());
    install_quiet_hook();

    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<CellOutcome<O>>>> =
        cells.iter().map(|_| Mutex::new(None)).collect();
    let cells = &cells;
    let f = &f;
    let cursor = &cursor;
    let slots = &slots;

    std::thread::scope(|scope| {
        for worker in 0..jobs {
            scope.spawn(move || {
                QUIET_PANICS.with(|q| q.set(true));
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= cells.len() {
                        break;
                    }
                    let (label, input) = &cells[i];
                    let start = Instant::now();
                    let result = catch_unwind(AssertUnwindSafe(|| f(input))).map_err(|e| {
                        CellError { label: label.clone(), message: panic_message(e) }
                    });
                    let outcome = CellOutcome {
                        index: i,
                        label: label.clone(),
                        worker,
                        wall: start.elapsed(),
                        result,
                    };
                    *slots[i].lock().unwrap() = Some(outcome);
                }
            });
        }
    });

    slots
        .iter()
        .map(|slot| slot.lock().unwrap().take().expect("scoped worker filled every slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let cells: Vec<(String, u64)> =
            (0..64u64).map(|i| (format!("cell/{i}"), i)).collect();
        let out = run_cells(cells, 8, |&i| {
            // Stagger to force out-of-order completion.
            std::thread::sleep(Duration::from_micros((64 - i) * 30));
            i * 2
        });
        assert_eq!(out.len(), 64);
        for (i, cell) in out.iter().enumerate() {
            assert_eq!(cell.index, i);
            assert_eq!(*cell.result.as_ref().unwrap(), i as u64 * 2);
            assert!(cell.worker < 8);
        }
        // More than one worker actually participated.
        let workers: std::collections::HashSet<_> = out.iter().map(|c| c.worker).collect();
        assert!(workers.len() > 1, "expected parallel execution, got {workers:?}");
    }

    #[test]
    fn a_panicking_cell_does_not_poison_siblings() {
        let cells: Vec<(String, u32)> = (0..10u32).map(|i| (format!("c/{i}"), i)).collect();
        let out = run_cells(cells, 4, |&i| {
            if i == 3 {
                panic!("deliberate failure in cell {i}");
            }
            i + 100
        });
        for (i, cell) in out.iter().enumerate() {
            if i == 3 {
                let err = cell.result.as_ref().unwrap_err();
                assert_eq!(err.label, "c/3");
                assert!(err.message.contains("deliberate failure"), "{err}");
            } else {
                assert_eq!(*cell.result.as_ref().unwrap(), i as u32 + 100);
            }
        }
    }

    #[test]
    fn serial_pool_matches_parallel_pool() {
        let cells = |n: u64| (0..n).map(|i| (format!("x/{i}"), i)).collect::<Vec<_>>();
        let f = |&i: &u64| i.wrapping_mul(0x9e3779b97f4a7c15).rotate_left(13);
        let serial: Vec<u64> =
            run_cells(cells(33), 1, f).into_iter().map(|c| c.result.unwrap()).collect();
        let parallel: Vec<u64> =
            run_cells(cells(33), 7, f).into_iter().map(|c| c.result.unwrap()).collect();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<CellOutcome<u8>> = run_cells(Vec::<(String, u8)>::new(), 4, |_| 0u8);
        assert!(out.is_empty());
    }
}
