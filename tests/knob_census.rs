//! Knob census: README's "Environment variables" table must list exactly
//! the `CHECKELIDE_*` variables that non-test code under `crates/*/src`
//! names. A new knob without documentation, or a documented knob the code
//! no longer reads, fails this test. Flags are the settings surface: the
//! one environment read non-test code may make is the fault-injection
//! test hook in `figures.rs`.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

const PREFIX: &str = "\"CHECKELIDE_";

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `text` before its first `#[cfg(test)]` (unit tests sit at the end of
/// each source file).
fn non_test(text: &str) -> &str {
    text.split("#[cfg(test)]").next().unwrap_or("")
}

/// Every `"CHECKELIDE_…"` string literal in the non-test part of `text`.
fn literals_in(text: &str, found: &mut BTreeSet<String>) {
    let code = non_test(text);
    for (at, _) in code.match_indices(PREFIX) {
        let name: String = code[at + 1..]
            .chars()
            .take_while(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || *c == '_')
            .collect();
        found.insert(name);
    }
}

/// Every non-comment, non-test line of `text` that calls into the
/// `std::env::var*` family (`var`, `var_os`, `vars`, `vars_os`), trimmed.
fn env_reads_in(text: &str) -> Vec<String> {
    non_test(text)
        .lines()
        .map(str::trim)
        .filter(|l| !l.starts_with("//") && l.contains("env::var"))
        .map(String::from)
        .collect()
}

/// `(path below crates/, source)` of every `.rs` file under `crates/*/src`.
fn sources(root: &Path) -> Vec<(String, String)> {
    let mut files = Vec::new();
    for krate in fs::read_dir(root.join("crates")).expect("crates/") {
        rust_files(&krate.expect("crate entry").path().join("src"), &mut files);
    }
    assert!(!files.is_empty(), "no sources found under crates/*/src");
    let crates = root.join("crates");
    files
        .into_iter()
        .map(|f| {
            let rel = f.strip_prefix(&crates).expect("under crates/").to_string_lossy();
            (rel.replace('\\', "/"), fs::read_to_string(&f).expect("read source"))
        })
        .collect()
}

fn variables_read_by_code(root: &Path) -> BTreeSet<String> {
    let mut found = BTreeSet::new();
    for (_, text) in sources(root) {
        literals_in(&text, &mut found);
    }
    found
}

/// The first backticked cell of each `| `CHECKELIDE_…` | … |` table row.
fn variables_in_readme(readme: &str) -> BTreeSet<String> {
    readme
        .lines()
        .filter_map(|l| l.strip_prefix("| `CHECKELIDE_"))
        .map(|rest| {
            let name = rest.split('`').next().unwrap_or("");
            format!("CHECKELIDE_{name}")
        })
        .collect()
}

#[test]
fn readme_table_lists_exactly_the_variables_the_code_reads() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let code = variables_read_by_code(root);
    let readme = fs::read_to_string(root.join("README.md")).expect("README.md");
    let documented = variables_in_readme(&readme);
    let undocumented: Vec<_> = code.difference(&documented).collect();
    let stale: Vec<_> = documented.difference(&code).collect();
    assert!(
        undocumented.is_empty() && stale.is_empty(),
        "README environment table out of date: read but not listed {undocumented:?}; \
         listed but not read {stale:?}"
    );
}

#[test]
fn non_test_code_reads_the_environment_at_one_site() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let reads: Vec<(String, String)> = sources(root)
        .into_iter()
        .flat_map(|(file, text)| {
            env_reads_in(&text).into_iter().map(move |line| (file.clone(), line))
        })
        .collect();
    let allowed = [(
        "bench/src/figures.rs".to_string(),
        "let inject = std::env::var(INJECT_PANIC_ENV).ok();".to_string(),
    )];
    assert_eq!(
        reads, allowed,
        "only the fault-injection test hook may read the environment; \
         settings are command-line flags (crates/bench/src/cli.rs)"
    );
}

#[test]
fn census_parsers_find_literals_and_rows() {
    let mut found = BTreeSet::new();
    literals_in(
        "const A: &str = \"CHECKELIDE_ONE\"; var_os(\"CHECKELIDE_TWO_2\")\n\
         #[cfg(test)]\nmod tests { const B: &str = \"CHECKELIDE_TEST_ONLY\"; }",
        &mut found,
    );
    assert_eq!(found, ["CHECKELIDE_ONE", "CHECKELIDE_TWO_2"].map(String::from).into());
    let rows = variables_in_readme(
        "| variable | effect |\n|---|---|\n| `CHECKELIDE_ONE` | x |\nsee `CHECKELIDE_TWO`\n",
    );
    assert_eq!(rows, ["CHECKELIDE_ONE"].map(String::from).into());
    let reads = env_reads_in(
        "use std::env;\nlet a = env::var(\"A\");\n// env::var in a comment\n\
         let b = std::env::var_os(B);\nfor (k, _) in env::vars() {}\n\
         #[cfg(test)]\nmod tests { let c = std::env::var(\"C\"); }",
    );
    assert_eq!(
        reads,
        [
            "let a = env::var(\"A\");",
            "let b = std::env::var_os(B);",
            "for (k, _) in env::vars() {}"
        ]
    );
}
