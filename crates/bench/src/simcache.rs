//! Sim-result cache policy: the single source of truth for the harness's
//! core configuration and its content-addressed memoization key.
//!
//! Every figure in the paper is simulated on one fixed core (Table 2,
//! [`CoreConfig::nehalem`]) with the default [`EnergyParams`]. The trace
//! store gives each recording a SHA-256 content ID; [`CoreSim`] is a pure
//! function of `(trace bytes, core config)` — so its result can be
//! memoized under `(trace CID, config fingerprint, SIM_SCHEMA_REV)` and
//! reused forever, exactly the paper's memoization idiom (pay the
//! expensive observation once, reuse the proven result while the key
//! holds) applied to the simulation layer itself.
//!
//! [`sim_config`] / [`sim_energy`] replace the formerly scattered
//! `CoreConfig::nehalem()` call sites in `runner`, `perfstat`, and the
//! criterion benches: every simulation the harness runs goes through this
//! pair, so the fingerprint provably describes the config that produced
//! every cached result.
//!
//! # Modes
//!
//! * `on` (default) — a sim hit skips trace-body decode and `CoreSim`
//!   entirely; a miss simulates live and publishes the result.
//! * `verify` — a hit *also* re-simulates and asserts the memoized result
//!   is bit-identical (CI's differential mode); mismatches are counted
//!   and the live result wins.
//! * `off` — always simulate live, never read or write sim objects.
//!
//! Resolution order: the `--sim-cache` flag, then [`SIM_CACHE_ENV`], then
//! `on`. Sim objects live next to trace manifests in the local store; a
//! missing or corrupt one degrades to a live simulation.
//!
//! [`CoreSim`]: checkelide_uarch::CoreSim

use std::sync::OnceLock;

use checkelide_uarch::{config_fingerprint, CoreConfig, EnergyParams};

/// Environment variable selecting the sim-cache mode (`off`/`on`/
/// `verify`).
pub const SIM_CACHE_ENV: &str = "CHECKELIDE_SIM_CACHE";

/// Sim-result cache mode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SimCacheMode {
    /// Never read or write sim objects.
    Off,
    /// Serve hits, publish misses (the default).
    #[default]
    On,
    /// Serve hits but re-simulate each one and assert bit-identity.
    Verify,
}

impl SimCacheMode {
    /// Stable label (`off` / `on` / `verify`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SimCacheMode::Off => "off",
            SimCacheMode::On => "on",
            SimCacheMode::Verify => "verify",
        }
    }

    /// Parse a mode spelling. `None` for anything unrecognized.
    #[must_use]
    pub fn parse(spec: &str) -> Option<SimCacheMode> {
        match spec {
            "off" | "0" | "none" => Some(SimCacheMode::Off),
            "on" | "1" | "" => Some(SimCacheMode::On),
            "verify" => Some(SimCacheMode::Verify),
            _ => None,
        }
    }

    /// Resolve from an explicit `--sim-cache` value, the
    /// [`SIM_CACHE_ENV`] variable, or the default (`on`). Unrecognized
    /// spellings warn and fall back to the default so a typo can never
    /// silently disable verification CI asked for.
    #[must_use]
    pub fn resolve(flag: Option<&str>) -> SimCacheMode {
        let spec = flag.map(str::to_string).or_else(|| std::env::var(SIM_CACHE_ENV).ok());
        match spec.as_deref() {
            None => SimCacheMode::default(),
            Some(s) => SimCacheMode::parse(s).unwrap_or_else(|| {
                eprintln!(
                    "warning: unknown sim-cache mode {s:?}; using {}",
                    SimCacheMode::default().label()
                );
                SimCacheMode::default()
            }),
        }
    }
}

/// The one core configuration every harness simulation uses (the paper's
/// Table 2 core). All `CoreSim` construction in the harness must go
/// through this so [`sim_fingerprint`] describes every simulation.
#[must_use]
pub fn sim_config() -> CoreConfig {
    CoreConfig::nehalem()
}

/// The energy model matching [`sim_config`] (what `CoreSim::new`
/// installs).
#[must_use]
pub fn sim_energy() -> EnergyParams {
    EnergyParams::default()
}

/// Fingerprint of `(sim_config, sim_energy)` — the config half of every
/// sim-object key. Computed once per process.
#[must_use]
pub fn sim_fingerprint() -> u64 {
    static FP: OnceLock<u64> = OnceLock::new();
    *FP.get_or_init(|| config_fingerprint(&sim_config(), &sim_energy()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_spellings_parse() {
        assert_eq!(SimCacheMode::parse("off"), Some(SimCacheMode::Off));
        assert_eq!(SimCacheMode::parse("0"), Some(SimCacheMode::Off));
        assert_eq!(SimCacheMode::parse("none"), Some(SimCacheMode::Off));
        assert_eq!(SimCacheMode::parse("on"), Some(SimCacheMode::On));
        assert_eq!(SimCacheMode::parse("1"), Some(SimCacheMode::On));
        assert_eq!(SimCacheMode::parse("verify"), Some(SimCacheMode::Verify));
        assert_eq!(SimCacheMode::parse("bogus"), None);
        assert_eq!(SimCacheMode::resolve(Some("verify")), SimCacheMode::Verify);
        assert_eq!(SimCacheMode::resolve(Some("bogus")), SimCacheMode::On);
    }

    #[test]
    fn fingerprint_is_stable_within_a_process() {
        assert_eq!(sim_fingerprint(), sim_fingerprint());
        assert_eq!(
            sim_fingerprint(),
            config_fingerprint(&sim_config(), &sim_energy())
        );
    }
}
