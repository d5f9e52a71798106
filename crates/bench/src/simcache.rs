//! Sim-result cache policy: the single source of truth for the harness's
//! core configuration and its content-addressed memoization key.
//!
//! Every figure in the paper is simulated on one fixed core (Table 2,
//! [`CoreConfig::nehalem`]) with the default [`EnergyParams`]. The trace
//! store gives each recording a SHA-256 content ID; [`CoreSim`] is a pure
//! function of `(trace bytes, core config, simulator code)` — so its
//! result can be memoized under `(trace CID, sim fingerprint)` and reused
//! forever, exactly the paper's memoization idiom (pay the expensive
//! observation once, reuse the proven result while the key holds) applied
//! to the simulation layer itself.
//!
//! The sim fingerprint ([`sim_fingerprint`]) hashes the config
//! fingerprint together with `SIM_SOURCE_FP`, which `build.rs` computes
//! over `crates/uarch/src` and `crates/isa/src` (the isa decoder turns
//! the same stored bytes into the µops `CoreSim` sees). Any edit there,
//! even to a comment, keys new sim objects: a warm store re-simulates
//! from its stored traces instead of serving results of other code.
//!
//! [`sim_config`] / [`sim_energy`] replace the formerly scattered
//! `CoreConfig::nehalem()` call sites in `runner` and `perfstat`: every
//! simulation the harness runs goes through this pair, so the fingerprint provably describes the config that produced
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
//! The mode is the `--sim-cache` flag, else `on`. Sim objects live next
//! to trace manifests in the local store; a missing or corrupt one
//! degrades to a live simulation.
//!
//! [`CoreSim`]: checkelide_uarch::CoreSim

use std::sync::OnceLock;

use checkelide_uarch::{config_fingerprint, CoreConfig, EnergyParams};

use crate::store::fnv1a64;

/// Hash of the simulator's source, 16 hex digits (see `build.rs`).
const SIM_SOURCE_FP: &str = env!("SIM_SOURCE_FP");

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

    /// Resolve from an explicit `--sim-cache` value, or the default
    /// (`on`). Unrecognized spellings warn and fall back to the default
    /// so a typo can never silently disable verification CI asked for.
    #[must_use]
    pub fn resolve(flag: Option<&str>) -> SimCacheMode {
        match flag {
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

/// Fingerprint of `(sim_config, sim_energy)` and the simulator's source —
/// the second half of every sim-object key. Computed once per process.
#[must_use]
pub fn sim_fingerprint() -> u64 {
    static FP: OnceLock<u64> = OnceLock::new();
    *FP.get_or_init(|| {
        let source = u64::from_str_radix(SIM_SOURCE_FP, 16).expect("build.rs emits hex");
        with_source(config_fingerprint(&sim_config(), &sim_energy()), source)
    })
}

/// FNV-1a 64 over a config fingerprint and a source fingerprint.
fn with_source(config: u64, source: u64) -> u64 {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&config.to_le_bytes());
    bytes[8..].copy_from_slice(&source.to_le_bytes());
    fnv1a64(&bytes)
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
        let config = config_fingerprint(&sim_config(), &sim_energy());
        let source = u64::from_str_radix(SIM_SOURCE_FP, 16).expect("hex");
        assert_eq!(SIM_SOURCE_FP.len(), 16);
        assert_eq!(sim_fingerprint(), with_source(config, source));
        // Either half moves the key: a config change, or any edit to the
        // simulator's source.
        assert_ne!(sim_fingerprint(), with_source(config ^ 1, source));
        assert_ne!(sim_fingerprint(), with_source(config, source ^ 1));
        assert_ne!(sim_fingerprint(), config, "the source is part of the key");
    }
}
