//! What the benchmark emits, and `--check`: validation of `BENCHMARK.json`
//! against it.
//!
//! The metric tables below are the single source of truth: the result line
//! is built by walking them (a metric the run failed to produce is an
//! error, not an omission), and `--check` requires `BENCHMARK.json` to list
//! exactly these metrics with these units and directions.

use std::path::Path;

use crate::json::{self, Value};
use crate::workload::Workload;

/// One metric the benchmark emits.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// End-to-end metrics, measured with tracing off (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower"),
    m("cells_ms", "ms", "lower"),
    m("peak_heap_mib", "MiB", "lower"),
];

/// Per-layer metrics, from the separate traced run (`--trace 1`).
pub const PER_LAYER: &[Metric] = &[
    m("lang.parse_ms", "ms", "lower"),
    m("engine.setup_ms", "ms", "lower"),
    m("engine.warmup_ms", "ms", "lower"),
    m("engine.measured_self_ms", "ms", "lower"),
    m("counters.ms", "ms", "lower"),
    m("coresim.ms", "ms", "lower"),
    m("codec.encode_ms", "ms", "lower"),
    m("codec.decode_ms", "ms", "lower"),
    m("store.sha256_ms", "ms", "lower"),
    m("lz.compress_ms", "ms", "lower"),
    m("lz.decompress_ms", "ms", "lower"),
    m("store.put_ms", "ms", "lower"),
    m("store.stat_ms", "ms", "lower"),
    m("store.sim_get_ms", "ms", "lower"),
    m("store.read_ms", "ms", "lower"),
    m("engine.runs", "count", "lower"),
    m("engine.uops_measured", "count", "lower"),
    m("engine.deopts", "count", "lower"),
    m("opt.tier_up_events", "count", "lower"),
    m("opt.regions_compiled", "count", "lower"),
    m("opt.bbv_versions", "count", "lower"),
    m("opt.bbv_cap_fallbacks", "count", "lower"),
    m("coresim.uops", "count", "lower"),
    m("coresim.cycles", "count", "lower"),
    m("coresim.mops", "Mop/s", "higher"),
    m("codec.bytes_per_uop", "B/uop", "lower"),
    m("lz.ratio", "ratio", "higher"),
    m("store.lookups", "count", "lower"),
    m("store.hit_ratio", "ratio", "higher"),
    m("store.sim_lookups", "count", "lower"),
    m("store.sim_hit_ratio", "ratio", "higher"),
    m("store.bytes_read", "B", "lower"),
    m("store.bytes_written", "B", "lower"),
    m("pool.busy_ratio", "ratio", "higher"),
    m("pool.max_cell_ms", "ms", "lower"),
    m("trace.closure", "ratio", "higher"),
    m("trace.overhead", "ratio", "lower"),
    m("host.calib_ms", "ms", "lower"),
];

/// Largest relative bound an end-to-end metric may carry.
const MAX_BOUND: f64 = 0.25;

fn valid_name(s: &str) -> bool {
    let b = s.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.bytes()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'/' | b'%' | b'.' | b'-'))
}

fn valid_path(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 200
        && !s.starts_with('/')
        && !s.split('/').any(|part| part == "..")
        && s.bytes()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-' | b'/'))
}

fn exact_keys(v: &Value, want: &[&str], what: &str, errs: &mut Vec<String>) {
    match v.keys() {
        Some(mut keys) => {
            keys.sort_unstable();
            let mut want = want.to_vec();
            want.sort_unstable();
            if keys != want {
                errs.push(format!("{what}: keys {keys:?}, expected exactly {want:?}"));
            }
        }
        None => errs.push(format!("{what}: not an object")),
    }
}

/// Validate a `BENCHMARK.json` document (at the repository root `root`)
/// against the emitted tables. Returns every problem found (empty when the
/// file is valid).
pub fn validate(text: &str, root: &Path) -> Vec<String> {
    let mut errs = Vec::new();
    if text.len() > 64 * 1024 {
        errs.push(format!("file is {} bytes; the limit is 64 KiB", text.len()));
    }
    let doc = match json::parse(text) {
        Ok(v) => v,
        Err(e) => return vec![format!("not valid JSON: {e}")],
    };
    exact_keys(
        &doc,
        &[
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ],
        "top level",
        &mut errs,
    );

    match doc.get("command").and_then(Value::as_array) {
        Some(cmd) if (1..=32).contains(&cmd.len()) => {
            for arg in cmd {
                match arg.as_str() {
                    Some(s)
                        if s.len() <= 200
                            && !s.starts_with('/')
                            && !s.split('/').any(|p| p == "..") => {}
                    _ => errs.push(format!("command: bad argument {}", arg.to_compact())),
                }
            }
        }
        _ => errs.push("command: must be a list of 1 to 32 strings".into()),
    }

    match doc.get("paths").and_then(Value::as_array) {
        Some(paths) if (1..=16).contains(&paths.len()) => {
            for p in paths {
                match p.as_str() {
                    Some(s) if valid_path(s) => {
                        if !root.join(s).is_dir() {
                            errs.push(format!("paths: {s} is not a directory"));
                        }
                    }
                    _ => errs.push(format!("paths: bad path {}", p.to_compact())),
                }
            }
        }
        _ => errs.push("paths: must be a list of 1 to 16 directories".into()),
    }

    match doc.get("run_seconds").and_then(Value::as_f64) {
        Some(s) if s.fract() == 0.0 && (1.0..=60.0).contains(&s) => {}
        _ => errs.push("run_seconds: must be a whole number from 1 to 60".into()),
    }

    let mut names: Vec<String> = Vec::new();
    match doc.get("workloads").and_then(Value::as_array) {
        Some(ws) if (2..=8).contains(&ws.len()) => {
            let mut listed = Vec::new();
            for w in ws {
                exact_keys(w, &["name", "why"], "workload", &mut errs);
                let name = w.get("name").and_then(Value::as_str).unwrap_or("");
                if !valid_name(name) {
                    errs.push(format!("workload: bad name {name:?}"));
                }
                match w.get("why").and_then(Value::as_str) {
                    Some(why) if !why.is_empty() && why.len() <= 200 && !why.contains('\n') => {}
                    _ => errs.push(format!(
                        "workload {name}: `why` must be one line of at most 200 characters"
                    )),
                }
                names.push(name.to_string());
                listed.push(name);
            }
            let emitted: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            for n in &listed {
                if !emitted.contains(n) {
                    errs.push(format!(
                        "workload {n} is listed but the binary does not run it"
                    ));
                }
            }
            for n in &emitted {
                if !listed.contains(n) {
                    errs.push(format!("workload {n} is run by the binary but not listed"));
                }
            }
        }
        _ => errs.push("workloads: must list 2 to 8 workloads".into()),
    }
    check_unique(&names, "workload", &mut errs);

    let mut metric_names = Vec::new();
    check_metrics(
        &doc,
        "end_to_end",
        END_TO_END,
        16,
        true,
        &mut metric_names,
        &mut errs,
    );
    check_metrics(
        &doc,
        "per_layer",
        PER_LAYER,
        128,
        false,
        &mut metric_names,
        &mut errs,
    );
    check_unique(&metric_names, "metric", &mut errs);

    if let Some(e2e) = doc.get("end_to_end").and_then(Value::as_array) {
        let bound_of = |n: &str| {
            e2e.iter()
                .find(|m| m.get("name").and_then(Value::as_str) == Some(n))
                .and_then(|m| m.get("bound"))
                .and_then(Value::as_f64)
        };
        let setup = bound_of("setup_s").unwrap_or(0.0);
        for m in e2e {
            let b = m.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            if b > setup {
                errs.push(format!(
                    "end_to_end: setup_s must carry the largest bound ({setup} < {b})"
                ));
                break;
            }
        }
    }
    errs
}

fn check_unique(names: &[String], what: &str, errs: &mut Vec<String>) {
    let mut sorted = names.to_vec();
    sorted.sort();
    for pair in sorted.windows(2) {
        if pair[0] == pair[1] {
            errs.push(format!("{what} name {} is used twice", pair[0]));
        }
    }
}

fn check_metrics(
    doc: &Value,
    key: &str,
    table: &[Metric],
    max: usize,
    bounded: bool,
    names: &mut Vec<String>,
    errs: &mut Vec<String>,
) {
    let Some(list) = doc.get(key).and_then(Value::as_array) else {
        errs.push(format!("{key}: missing or not a list"));
        return;
    };
    if list.is_empty() || list.len() > max {
        errs.push(format!(
            "{key}: must list 1 to {max} metrics, found {}",
            list.len()
        ));
    }
    let fields: &[&str] = if bounded {
        &["name", "unit", "better", "bound"]
    } else {
        &["name", "unit", "better"]
    };
    for entry in list {
        exact_keys(entry, fields, key, errs);
        let name = entry.get("name").and_then(Value::as_str).unwrap_or("");
        let unit = entry.get("unit").and_then(Value::as_str).unwrap_or("");
        let better = entry.get("better").and_then(Value::as_str).unwrap_or("");
        if !valid_name(name) {
            errs.push(format!("{key}: bad metric name {name:?}"));
        }
        if !valid_unit(unit) {
            errs.push(format!("{key} {name}: bad unit {unit:?}"));
        }
        if !matches!(better, "lower" | "higher") {
            errs.push(format!("{key} {name}: `better` must be lower or higher"));
        }
        if bounded {
            match entry.get("bound").and_then(Value::as_f64) {
                Some(b) if b > 0.0 && b <= MAX_BOUND => {}
                _ => errs.push(format!("{key} {name}: bound must be in (0, {MAX_BOUND}]")),
            }
        }
        match table.iter().find(|m| m.name == name) {
            Some(m) if m.unit == unit && m.better == better => {}
            Some(m) => errs.push(format!(
                "{key} {name}: listed as {unit}/{better}, emitted as {}/{}",
                m.unit, m.better
            )),
            None => errs.push(format!("{key} {name}: listed but never emitted")),
        }
        names.push(name.to_string());
    }
    for m in table {
        if !list
            .iter()
            .any(|e| e.get("name").and_then(Value::as_str) == Some(m.name))
        {
            errs.push(format!("{key} {}: emitted but not listed", m.name));
        }
    }
    if bounded
        && !list
            .iter()
            .any(|e| e.get("name").and_then(Value::as_str) == Some("setup_s"))
    {
        errs.push(format!("{key}: setup_s is required"));
    }
}

/// `benchmark --check`: validate `./BENCHMARK.json`. Returns the exit code.
pub fn run_check() -> i32 {
    let text = match std::fs::read_to_string("BENCHMARK.json") {
        Ok(t) => t,
        Err(e) => {
            eprintln!("benchmark --check: cannot read BENCHMARK.json: {e}");
            return 1;
        }
    };
    let errs = validate(&text, Path::new("."));
    if errs.is_empty() {
        println!(
            "BENCHMARK.json is valid: {} workloads, {} end-to-end and {} per-layer metrics",
            Workload::ALL.len(),
            END_TO_END.len(),
            PER_LAYER.len()
        );
        0
    } else {
        for e in &errs {
            eprintln!("BENCHMARK.json: {e}");
        }
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_obey_the_naming_rules() {
        let mut names: Vec<String> = Vec::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.unit);
            assert!(matches!(m.better, "lower" | "higher"));
            names.push(m.name.to_string());
        }
        let mut errs = Vec::new();
        check_unique(&names, "metric", &mut errs);
        assert!(errs.is_empty(), "{errs:?}");
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!((2..=8).contains(&Workload::ALL.len()));
    }

    /// The repository root, seen from the package root where `cargo test`
    /// runs.
    const ROOT: &str = "../..";

    fn committed() -> String {
        std::fs::read_to_string(Path::new(ROOT).join("BENCHMARK.json")).expect("BENCHMARK.json")
    }

    #[test]
    fn the_committed_file_is_valid() {
        let errs = validate(&committed(), Path::new(ROOT));
        assert!(errs.is_empty(), "{errs:#?}");
    }

    #[test]
    fn drift_is_reported() {
        let broken = committed().replacen("\"cells_ms\"", "\"cells_s\"", 1);
        let errs = validate(&broken, Path::new(ROOT));
        assert!(
            errs.iter()
                .any(|e| e.contains("cells_s: listed but never emitted")),
            "{errs:?}"
        );
        assert!(
            errs.iter()
                .any(|e| e.contains("cells_ms: emitted but not listed")),
            "{errs:?}"
        );
    }
}
