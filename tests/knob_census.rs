//! Knob census: README's "Environment variables" table must list exactly
//! the `CHECKELIDE_*` variables that non-test code under `crates/*/src`
//! names. A new knob without documentation, or a documented knob the code
//! no longer reads, fails this test.

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

/// Every `"CHECKELIDE_…"` string literal in `text` before its first
/// `#[cfg(test)]` (unit tests sit at the end of each source file).
fn literals_in(text: &str, found: &mut BTreeSet<String>) {
    let code = text.split("#[cfg(test)]").next().unwrap_or("");
    for (at, _) in code.match_indices(PREFIX) {
        let name: String = code[at + 1..]
            .chars()
            .take_while(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || *c == '_')
            .collect();
        found.insert(name);
    }
}

fn variables_read_by_code(root: &Path) -> BTreeSet<String> {
    let mut files = Vec::new();
    for krate in fs::read_dir(root.join("crates")).expect("crates/") {
        rust_files(&krate.expect("crate entry").path().join("src"), &mut files);
    }
    assert!(!files.is_empty(), "no sources found under crates/*/src");
    let mut found = BTreeSet::new();
    for f in files {
        literals_in(&fs::read_to_string(&f).expect("read source"), &mut found);
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
}
