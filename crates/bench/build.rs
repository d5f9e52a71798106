//! Fingerprint the sources that shape cached results, so a recorded
//! trace or memoized simulation made by other code never matches a
//! current key.
//!
//! * `UOP_SOURCE_FP` — every crate that shapes the µop stream a kernel
//!   emits, plus `src/runner.rs`, which drives the steady-state protocol
//!   and fills the stored sidecar. It salts every trace key.
//! * `SIM_SOURCE_FP` — the timing model and the isa crate, whose decoder
//!   turns stored trace bytes into the µops `CoreSim` sees. It salts
//!   every sim-result key.
//!
//! Both are 16 hex digits, passed to the crate through `env!`.

use std::path::Path;

#[path = "build/source_hash.rs"]
mod source_hash;

/// Roots relative to `crates/`.
const UOP_SOURCES: &[&str] = &[
    "lang/src",
    "runtime/src",
    "core/src",
    "engine/src",
    "opt/src",
    "isa/src",
    "bench/src/runner.rs",
];
const SIM_SOURCES: &[&str] = &["uarch/src", "isa/src"];

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rerun-if-changed=build/source_hash.rs");
    // A build script runs in its package's directory, `crates/bench`.
    let crates = Path::new("..");
    for (name, roots) in [("UOP_SOURCE_FP", UOP_SOURCES), ("SIM_SOURCE_FP", SIM_SOURCES)] {
        for root in roots {
            println!("cargo:rerun-if-changed=../{root}");
        }
        let fp = source_hash::source_fingerprint(crates, roots)
            .unwrap_or_else(|e| panic!("cannot fingerprint {roots:?}: {e}"));
        println!("cargo:rustc-env={name}={fp:016x}");
    }
}
