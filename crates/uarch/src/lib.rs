//! Microarchitecture timing and energy simulation (the MARSS + McPAT /
//! CACTI substitute).
//!
//! [`CoreSim`] consumes a µop trace (it implements
//! [`checkelide_isa::TraceSink`]) through a windowed-dataflow out-of-order
//! core model configured per the paper's Table 2 ([`CoreConfig::nehalem`]):
//! issue width 4, a 128-entry window, a 36-entry issue queue, 10
//! outstanding memory operations, 32 KB IL1/DL1, 256 KB L2, 128/256-entry
//! I/D TLBs, a branch predictor, and the 128-entry 2-way Class Cache.
//!
//! The result ([`SimResult`]) carries total and per-[`Region`] cycles,
//! µops and energy — the inputs to Figures 8 and 9.
//!
//! # Example
//!
//! ```
//! use checkelide_uarch::{CoreSim, CoreConfig};
//! use checkelide_isa::{TraceSink, Uop, Category, Region};
//!
//! let mut sim = CoreSim::new(CoreConfig::nehalem());
//! for i in 0..100 {
//!     sim.emit(&Uop::alu(0x1000 + i * 4, Category::RestOfCode, Region::Baseline));
//! }
//! let r = sim.result();
//! assert_eq!(r.uops, 100);
//! assert!(r.cycles >= 25, "100 µops at width 4");
//! ```

pub mod caches;
pub mod config;
pub mod core;
pub mod energy;
pub mod simresult;

pub use caches::{BranchPredictor, Cache, CacheStats, Tlb};
pub use config::{CacheGeometry, CoreConfig};
pub use core::{CoreSim, RegionTotals, SimResult};
pub use energy::EnergyParams;
pub use simresult::{config_fingerprint, SimObject, SIM_OBJECT_LEN};

use checkelide_isa::uop::Region;

impl SimResult {
    /// Speedup of `self` (baseline) relative to `other` (improved), in
    /// percent — the paper's Figure 8 metric.
    pub fn speedup_pct_over(&self, improved: &SimResult) -> f64 {
        if improved.cycles == 0 {
            return 0.0;
        }
        (self.cycles as f64 / improved.cycles as f64 - 1.0) * 100.0
    }

    /// Same, restricted to optimized-code cycles.
    pub fn speedup_opt_pct_over(&self, improved: &SimResult) -> f64 {
        let base = self.regions[Region::Optimized.index()].cycles;
        let new = improved.regions[Region::Optimized.index()].cycles;
        if new == 0 {
            return 0.0;
        }
        (base as f64 / new as f64 - 1.0) * 100.0
    }

    /// Energy reduction of `improved` relative to `self`, in percent —
    /// the Figure 9 metric.
    pub fn energy_reduction_pct(&self, improved: &SimResult) -> f64 {
        if self.energy_pj == 0.0 {
            return 0.0;
        }
        (1.0 - improved.energy_pj / self.energy_pj) * 100.0
    }

    /// Same, restricted to optimized-code energy.
    pub fn energy_reduction_opt_pct(&self, improved: &SimResult) -> f64 {
        if self.energy_optimized_pj == 0.0 {
            return 0.0;
        }
        (1.0 - improved.energy_optimized_pj / self.energy_optimized_pj) * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use checkelide_isa::uop::Category;
    use checkelide_isa::TraceSink;
    use checkelide_isa::Uop;

    fn run_n(n: u64) -> SimResult {
        let mut sim = CoreSim::new(CoreConfig::nehalem());
        let mut prev = checkelide_isa::uop::Tok(1);
        for i in 0..n {
            let dst = checkelide_isa::uop::Tok(2 + (i as u32 % 60000));
            sim.emit(
                &Uop::alu(0x1000, Category::OtherOptimized, Region::Optimized)
                    .with_srcs(prev, checkelide_isa::uop::Tok::NONE)
                    .with_dst(dst),
            );
            prev = dst;
        }
        sim.result()
    }

    #[test]
    fn speedup_metrics() {
        let base = run_n(2000);
        let improved = run_n(1000);
        let s = base.speedup_pct_over(&improved);
        assert!(s > 80.0 && s < 120.0, "2x fewer serial ops ≈ 100% speedup, got {s}");
        let so = base.speedup_opt_pct_over(&improved);
        assert!(so > 80.0);
        let e = base.energy_reduction_pct(&improved);
        assert!(e > 20.0 && e < 70.0, "energy reduction {e}");
        assert!(base.energy_reduction_opt_pct(&improved) > 0.0);
    }
}
