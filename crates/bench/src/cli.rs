//! Shared command-line parsing for the harness binaries.
//!
//! Every `crates/bench/src/bin/*` entry point (and `checkelide-xcheck`'s
//! `xcheck` binary) parses its command line here. Flags are the only
//! settings surface: no environment variable changes the pool width, the
//! trace cache or the sim cache. Parsing is deliberately tiny and
//! dependency-free:
//!
//! * boolean flags: `--quick`;
//! * value flags: `--name V` or `--name=V` (see [`Cli::value_of`]);
//! * `--jobs N` / `-j N` / `--jobs=N`, the worker-pool width (default:
//!   available parallelism);
//! * positionals: the first argument that is neither a flag nor the value
//!   of a known value-taking flag ([`Cli::positional_or`]).
//!
//! Any other `--flag` is rejected: the process exits with status 2,
//! naming it, so a typo cannot silently leave a setting at its default.

/// Flags that consume the following argument as their value. Needed to
/// tell `--jobs 4 foo` (positional `foo`) apart from `--jobs 4` alone.
const VALUE_FLAGS: &[&str] = &[
    "--jobs",
    "-j",
    "--detail",
    "--seed",
    "--count",
    "--dump-dir",
    "--max-shrink",
    "--trace-cache",
    "--trace-compress",
    "--sim-cache",
    "--floor",
    "--floor-mult",
    "--store",
    "--max-store-bytes",
];

/// Parsed command line shared by the harness binaries.
#[derive(Debug, Clone)]
pub struct Cli {
    /// `--quick` — reduced-scale smoke run.
    pub quick: bool,
    /// Worker threads (`--jobs N`, `-j N`, `--jobs=N`; 0 clamps to 1;
    /// default: available parallelism).
    pub jobs: usize,
    args: Vec<String>,
}

impl Cli {
    /// Parse the process's own arguments.
    pub fn parse() -> Cli {
        Cli::from_args(std::env::args().skip(1).collect())
    }

    /// Parse an explicit argument vector (no program name).
    ///
    /// Exits the process with status 2 on an unknown `--flag`.
    pub fn from_args(args: Vec<String>) -> Cli {
        if let Some(flag) = unknown_flag(&args) {
            eprintln!(
                "error: unknown flag `{flag}` (known: --quick, {})",
                VALUE_FLAGS.join(", ")
            );
            std::process::exit(2);
        }
        let quick = args.iter().any(|a| a == "--quick");
        let jobs = jobs(&args);
        Cli { quick, jobs, args }
    }

    /// The raw arguments, for bin-specific handling.
    pub fn args(&self) -> &[String] {
        &self.args
    }

    /// The value of `--flag V` or `--flag=V`, if present.
    pub fn value_of(&self, flag: &str) -> Option<&str> {
        let mut it = self.args.iter();
        while let Some(a) = it.next() {
            if a == flag {
                return it.next().map(String::as_str);
            }
            if let Some(rest) = a.strip_prefix(flag) {
                if let Some(v) = rest.strip_prefix('=') {
                    return Some(v);
                }
            }
        }
        None
    }

    /// A `u64`-valued flag, or `default` when absent.
    ///
    /// # Panics
    ///
    /// Panics with a usage message when the value is not a number.
    pub fn u64_or(&self, flag: &str, default: u64) -> u64 {
        match self.value_of(flag) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| panic!("{flag} expects an unsigned integer, got `{v}`")),
        }
    }

    /// A `usize`-valued flag, or `default` when absent.
    ///
    /// # Panics
    ///
    /// Panics with a usage message when the value is not a number.
    pub fn usize_or(&self, flag: &str, default: usize) -> usize {
        self.u64_or(flag, default as u64) as usize
    }

    /// The first positional argument (not a flag, not the value of a
    /// known value-taking flag), or `default`.
    pub fn positional_or(&self, default: &str) -> String {
        let mut skip_next = false;
        for a in &self.args {
            if skip_next {
                skip_next = false;
                continue;
            }
            if VALUE_FLAGS.contains(&a.as_str()) {
                skip_next = true;
                continue;
            }
            if a.starts_with('-') {
                continue;
            }
            return a.clone();
        }
        default.to_string()
    }
}

/// The first `--flag` (or `--flag=V`) that is neither `--quick` nor in
/// [`VALUE_FLAGS`]; the value after a value flag is never a flag.
fn unknown_flag(args: &[String]) -> Option<&str> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let name = a.split_once('=').map_or(a.as_str(), |(name, _)| name);
        if VALUE_FLAGS.contains(&name) {
            if name == a {
                it.next();
            }
        } else if a.starts_with("--") && a != "--quick" {
            return Some(a);
        }
    }
    None
}

/// The first parsable `--jobs N` / `-j N` / `--jobs=N` value (0 clamps to
/// 1), else the machine's available parallelism, else 1. A value that
/// does not parse warns and is skipped.
fn jobs(args: &[String]) -> usize {
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let value = if a == "--jobs" || a == "-j" {
            it.peek().map(|v| v.as_str())
        } else if let Some(v) = a.strip_prefix("--jobs=") {
            Some(v)
        } else {
            continue;
        };
        match value.and_then(|v| v.parse::<usize>().ok()) {
            Some(n) => return n.max(1),
            None => eprintln!("warning: {a} expects a number; using the default"),
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Cli {
        Cli::from_args(args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn parses_quick_and_jobs() {
        let c = cli(&["--quick", "--jobs", "3"]);
        assert!(c.quick);
        assert_eq!(c.jobs, 3);
        let c = cli(&["--jobs=2"]);
        assert!(!c.quick);
        assert_eq!(c.jobs, 2);
    }

    #[test]
    fn jobs_parsing() {
        assert_eq!(cli(&["--jobs", "5"]).jobs, 5);
        assert_eq!(cli(&["--jobs=3"]).jobs, 3);
        assert_eq!(cli(&["-j", "2"]).jobs, 2);
        assert_eq!(cli(&["--jobs", "0"]).jobs, 1, "0 clamps to 1");
        assert!(cli(&["--quick"]).jobs >= 1);
        // An unparsable value is skipped: a later one still applies.
        assert_eq!(cli(&["--jobs", "x", "-j", "4"]).jobs, 4);
        assert!(cli(&["--jobs=many"]).jobs >= 1);
    }

    #[test]
    fn value_flags_both_spellings() {
        let c = cli(&["--seed", "7", "--count=500"]);
        assert_eq!(c.value_of("--seed"), Some("7"));
        assert_eq!(c.value_of("--count"), Some("500"));
        assert_eq!(c.value_of("--detail"), None);
        assert_eq!(c.u64_or("--seed", 1), 7);
        assert_eq!(c.u64_or("--missing", 42), 42);
    }

    #[test]
    fn positionals_skip_flag_values() {
        let c = cli(&["--jobs", "4", "ai-astar"]);
        assert_eq!(c.positional_or("x"), "ai-astar");
        let c = cli(&["--quick"]);
        assert_eq!(c.positional_or("ai-astar"), "ai-astar");
        let c = cli(&["splay"]);
        assert_eq!(c.positional_or("x"), "splay");
    }

    #[test]
    fn unknown_flags_are_found() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let unknown = |a: &[&str]| unknown_flag(&args(a)).map(str::to_string);
        assert_eq!(unknown(&["--quick", "--jobs", "2", "--store=d", "fig1", "-j", "1"]), None);
        assert_eq!(unknown(&["--store", "--odd-dir-name"]), None, "a flag's value");
        assert_eq!(
            unknown(&["--store", "d", "--max-store-byte", "1"]).as_deref(),
            Some("--max-store-byte")
        );
        assert_eq!(unknown(&["--trace-compres=off"]).as_deref(), Some("--trace-compres=off"));
        assert_eq!(unknown(&["--quick=1"]).as_deref(), Some("--quick=1"));
    }

    #[test]
    #[should_panic(expected = "--seed expects an unsigned integer")]
    fn malformed_numeric_flag_panics() {
        cli(&["--seed", "zap"]).u64_or("--seed", 1);
    }
}
