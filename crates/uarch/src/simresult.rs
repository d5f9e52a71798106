//! Exactly-serializable [`SimResult`] objects (`CKSR`) and the
//! core-configuration fingerprint that keys them.
//!
//! A simulation is a pure function of `(µop trace, CoreConfig,
//! EnergyParams, simulator source)`: the trace store already gives every
//! recording a verified SHA-256 content ID, so memoizing [`SimResult`]
//! under the key `(trace CID, fingerprint)` lets every consumer pay
//! CoreSim exactly once per unique trace. The fingerprint is the
//! caller's: the harness folds [`config_fingerprint`] together with a
//! hash of the simulator's own source, so an edit to the timing model
//! keys new results instead of serving old ones. The encoding
//! is bit-exact — `f64` energy fields are stored as raw IEEE-754 bits via
//! `to_bits`/`from_bits` — so a decoded object compares equal (derived
//! `PartialEq`, i.e. bitwise on the floats) to the live simulation it
//! memoizes.
//!
//! Layout (all integers little-endian, fixed [`SIM_OBJECT_LEN`] bytes):
//!
//! ```text
//! "CKSR" | format u32 | trace_cid [32] | fingerprint u64 |
//! payload 34 × u64 | fnv1a64 checksum u64
//! ```
//!
//! The payload is every [`SimResult`] field in declaration order (`f64`s
//! as raw bits). The object is self-describing — magic, trace CID,
//! fingerprint and checksum are all inline — so a garbage collector can
//! classify a sim object (current / other fingerprint / orphaned trace /
//! corrupt) from the file alone.

use crate::caches::CacheStats;
use crate::config::CoreConfig;
use crate::core::{RegionTotals, SimResult};
use crate::energy::EnergyParams;

/// On-disk format revision of the container itself.
const SIM_FORMAT_VERSION: u32 = 2;

/// `SimResult` payload size in 64-bit words (fields in declaration
/// order; `f64`s as raw bits).
const PAYLOAD_WORDS: usize = 34;

/// Exact encoded size of a sim object in bytes.
pub const SIM_OBJECT_LEN: usize = 4 + 4 + 32 + 8 + PAYLOAD_WORDS * 8 + 8;

const MAGIC: &[u8; 4] = b"CKSR";

/// FNV-1a 64-bit hash (local copy; the store's is crate-private).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Stable fingerprint over every [`CoreConfig`] and [`EnergyParams`]
/// field, in declaration order (`usize` widened to `u64`, `f64` as raw
/// bits). Two configurations share a fingerprint iff every field that
/// can influence a [`SimResult`] is identical.
pub fn config_fingerprint(config: &CoreConfig, energy: &EnergyParams) -> u64 {
    let mut bytes = Vec::with_capacity(45 * 8);
    let mut put = |v: u64| bytes.extend_from_slice(&v.to_le_bytes());
    put(config.issue_width);
    put(config.window_size as u64);
    put(config.issue_queue as u64);
    put(config.outstanding_mem as u64);
    put(config.l1_latency);
    put(config.l2_latency);
    put(config.mem_latency);
    for geo in [&config.il1, &config.dl1, &config.l2] {
        put(geo.size as u64);
        put(geo.ways as u64);
        put(geo.line as u64);
    }
    put(config.itlb_entries as u64);
    put(config.dtlb_entries as u64);
    put(config.tlb_miss_penalty);
    put(config.mispredict_penalty);
    put(config.class_cache.entries as u64);
    put(config.class_cache.ways as u64);
    for f in [
        energy.alu,
        energy.mul,
        energy.div,
        energy.fp_add,
        energy.fp_mul,
        energy.fp_div,
        energy.mem_op,
        energy.branch,
        energy.mov,
        energy.pipeline,
        energy.l1_access,
        energy.l2_access,
        energy.mem_access,
        energy.tlb_access,
        energy.class_cache_access,
        energy.leakage_per_cycle,
    ] {
        put(f.to_bits());
    }
    fnv1a64(&bytes)
}

/// A memoized simulation result plus the key material it was computed
/// under, as stored in a `CKSR` object.
#[derive(Debug, Clone, PartialEq)]
pub struct SimObject {
    /// SHA-256 content ID of the µop trace that was simulated.
    pub trace_cid: [u8; 32],
    /// The caller's fingerprint of the configuration (and simulator)
    /// simulated under.
    pub fingerprint: u64,
    /// The memoized result.
    pub result: SimResult,
}

impl SimObject {
    /// Wrap a freshly simulated result.
    pub fn new(trace_cid: [u8; 32], fingerprint: u64, result: SimResult) -> SimObject {
        SimObject { trace_cid, fingerprint, result }
    }

    /// Serialize to the fixed-size `CKSR` byte form.
    pub fn encode(&self) -> Vec<u8> {
        let r = &self.result;
        let mut out = Vec::with_capacity(SIM_OBJECT_LEN);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&SIM_FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.trace_cid);
        out.extend_from_slice(&self.fingerprint.to_le_bytes());
        let mut put = |v: u64| out.extend_from_slice(&v.to_le_bytes());
        put(r.cycles);
        put(r.uops);
        for region in &r.regions {
            put(region.uops);
            put(region.cycles);
            put(region.dynamic_pj.to_bits());
        }
        put(r.energy_pj.to_bits());
        put(r.energy_optimized_pj.to_bits());
        for c in [&r.dl1, &r.il1, &r.l2, &r.dtlb, &r.itlb] {
            put(c.accesses);
            put(c.hits);
            put(c.misses);
        }
        put(r.branch_lookups);
        put(r.branch_mispredicts);
        put(r.fetch_stall);
        put(r.src_wait);
        put(r.window_wait);
        put(r.mem_wait);
        let checksum = fnv1a64(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        debug_assert_eq!(out.len(), SIM_OBJECT_LEN);
        out
    }

    /// Decode a `CKSR` object, rejecting any structural defect: wrong
    /// length, magic, container version, or checksum. An object under
    /// another fingerprint still decodes; the caller compares the
    /// fingerprint with the one it looked up.
    pub fn decode(bytes: &[u8]) -> Option<SimObject> {
        if bytes.len() != SIM_OBJECT_LEN || &bytes[..4] != MAGIC {
            return None;
        }
        let body = &bytes[..SIM_OBJECT_LEN - 8];
        let stored = u64::from_le_bytes(bytes[SIM_OBJECT_LEN - 8..].try_into().ok()?);
        if fnv1a64(body) != stored {
            return None;
        }
        if u32::from_le_bytes(bytes[4..8].try_into().unwrap()) != SIM_FORMAT_VERSION {
            return None;
        }
        let trace_cid: [u8; 32] = bytes[8..40].try_into().unwrap();
        let mut at = 40;
        let mut take = || {
            let v = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
            at += 8;
            v
        };
        let fingerprint = take();
        let cycles = take();
        let uops = take();
        let mut regions = [RegionTotals::default(); 3];
        for region in &mut regions {
            region.uops = take();
            region.cycles = take();
            region.dynamic_pj = f64::from_bits(take());
        }
        let energy_pj = f64::from_bits(take());
        let energy_optimized_pj = f64::from_bits(take());
        let mut caches = [CacheStats::default(); 5];
        for c in &mut caches {
            c.accesses = take();
            c.hits = take();
            c.misses = take();
        }
        let [dl1, il1, l2, dtlb, itlb] = caches;
        let result = SimResult {
            cycles,
            uops,
            regions,
            energy_pj,
            energy_optimized_pj,
            dl1,
            il1,
            l2,
            dtlb,
            itlb,
            branch_lookups: take(),
            branch_mispredicts: take(),
            fetch_stall: take(),
            src_wait: take(),
            window_wait: take(),
            mem_wait: take(),
        };
        debug_assert_eq!(at, SIM_OBJECT_LEN - 8);
        Some(SimObject { trace_cid, fingerprint, result })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result(salt: u64) -> SimResult {
        let f = |x: u64| (x as f64) * 0.1 + salt as f64 * 1e-7;
        SimResult {
            cycles: 1_000 + salt,
            uops: 4_000 + salt,
            regions: [
                RegionTotals { uops: 1, cycles: 2, dynamic_pj: f(3) },
                RegionTotals { uops: 4, cycles: 5, dynamic_pj: f(6) },
                RegionTotals { uops: 7, cycles: 8, dynamic_pj: f(9) },
            ],
            energy_pj: f(100),
            energy_optimized_pj: f(40),
            dl1: CacheStats { accesses: 10, hits: 9, misses: 1 },
            il1: CacheStats { accesses: 20, hits: 19, misses: 1 },
            l2: CacheStats { accesses: 2, hits: 1, misses: 1 },
            dtlb: CacheStats { accesses: 10, hits: 10, misses: 0 },
            itlb: CacheStats { accesses: 20, hits: 20, misses: 0 },
            branch_lookups: 50,
            branch_mispredicts: 5,
            fetch_stall: 30,
            src_wait: 40,
            window_wait: 20,
            mem_wait: 10,
        }
    }

    #[test]
    fn round_trip_is_bit_exact() {
        // Include awkward floats: negative zero, subnormals, huge values.
        let mut r = sample_result(7);
        r.energy_pj = -0.0;
        r.energy_optimized_pj = f64::MIN_POSITIVE / 2.0;
        r.regions[2].dynamic_pj = 1e300;
        let obj = SimObject::new([0xab; 32], 0xdead_beef_1234_5678, r);
        let bytes = obj.encode();
        assert_eq!(bytes.len(), SIM_OBJECT_LEN);
        let back = SimObject::decode(&bytes).expect("decode");
        assert_eq!(back, obj);
        assert_eq!(back.result.energy_pj.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn truncation_and_extension_are_rejected() {
        let bytes = SimObject::new([1; 32], 42, sample_result(0)).encode();
        for len in [0, 4, 8, 40, SIM_OBJECT_LEN - 1] {
            assert!(SimObject::decode(&bytes[..len]).is_none(), "len {len}");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(SimObject::decode(&long).is_none(), "trailing byte accepted");
    }

    #[test]
    fn corruption_anywhere_is_rejected() {
        let bytes = SimObject::new([2; 32], 7, sample_result(3)).encode();
        for at in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x40;
            assert!(SimObject::decode(&bad).is_none(), "flip at byte {at} accepted");
        }
    }

    #[test]
    fn fingerprint_sees_every_field() {
        let base = config_fingerprint(&CoreConfig::nehalem(), &EnergyParams::default());
        assert_eq!(
            base,
            config_fingerprint(&CoreConfig::nehalem(), &EnergyParams::default()),
            "fingerprint must be stable"
        );
        let mut c = CoreConfig::nehalem();
        c.mispredict_penalty += 1;
        assert_ne!(base, config_fingerprint(&c, &EnergyParams::default()));
        let mut c = CoreConfig::nehalem();
        c.dl1.ways *= 2;
        c.dl1.size *= 2;
        assert_ne!(base, config_fingerprint(&c, &EnergyParams::default()));
        let mut e = EnergyParams::default();
        e.leakage_per_cycle += 0.5;
        assert_ne!(base, config_fingerprint(&CoreConfig::nehalem(), &e));
        // A sign flip on a zero-valued field must still register.
        let mut e = EnergyParams::default();
        e.alu = -e.alu;
        assert_ne!(base, config_fingerprint(&CoreConfig::nehalem(), &e));
    }
}
