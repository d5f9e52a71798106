//! Dynamic-instruction accounting.
//!
//! [`CounterSink`] tallies retired µops by [`Category`] and [`Region`], and
//! separately counts the check/untag µops whose subject value was obtained
//! from an object load ([`Provenance`]). These tallies are exactly the data
//! required to regenerate Figures 1 and 2 of the paper.

use crate::trace::TraceSink;
use crate::uop::{Category, Provenance, Region, Uop};

/// Instruction-mix counters for one measured run.
#[derive(Debug, Clone, Default)]
pub struct CounterSink {
    /// `counts[region][category]` = retired µops.
    counts: [[u64; 5]; 3],
    /// Check/untag µops guarding a value obtained from a named-property
    /// load, per region.
    after_property_load: [u64; 3],
    /// Check/untag µops guarding a value obtained from an elements-array
    /// load, per region.
    after_elements_load: [u64; 3],
}

impl CounterSink {
    /// Create zeroed counters.
    pub fn new() -> CounterSink {
        CounterSink::default()
    }

    /// Reset all counters to zero (used at the steady-state boundary).
    pub fn reset(&mut self) {
        *self = CounterSink::default();
    }

    /// Total retired µops across all regions and categories.
    pub fn total(&self) -> u64 {
        self.counts.iter().flatten().sum()
    }

    /// Total retired µops in one region.
    pub fn total_in(&self, region: Region) -> u64 {
        self.counts[region.index()].iter().sum()
    }

    /// Total retired µops inside optimized code.
    pub fn total_optimized(&self) -> u64 {
        self.total_in(Region::Optimized)
    }

    /// Retired µops of `category` summed over all regions.
    pub fn by_category(&self, category: Category) -> u64 {
        self.counts.iter().map(|r| r[category.index()]).sum()
    }

    /// Retired µops of `category` within `region`.
    pub fn count(&self, region: Region, category: Category) -> u64 {
        self.counts[region.index()][category.index()]
    }

    /// Fraction (0..=1) of all retired µops that have `category`.
    pub fn fraction(&self, category: Category) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.by_category(category) as f64 / t as f64
        }
    }

    /// Check/untag µops that guard values obtained from object loads
    /// (property + elements), across all regions. The Figure 2
    /// "whole application" numerator.
    pub fn after_object_load(&self) -> u64 {
        self.after_property_load.iter().sum::<u64>()
            + self.after_elements_load.iter().sum::<u64>()
    }

    /// Same, restricted to optimized code. The Figure 2 "optimized code"
    /// numerator.
    pub fn after_object_load_optimized(&self) -> u64 {
        let i = Region::Optimized.index();
        self.after_property_load[i] + self.after_elements_load[i]
    }

    /// Figure 2, "whole application" series: percentage of all dynamic
    /// instructions that are checks/untag-checks after object loads.
    pub fn fig2_whole_pct(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            100.0 * self.after_object_load() as f64 / t as f64
        }
    }

    /// Figure 2, "optimized code" series: same percentage over optimized
    /// code only.
    pub fn fig2_optimized_pct(&self) -> f64 {
        let t = self.total_optimized();
        if t == 0 {
            0.0
        } else {
            100.0 * self.after_object_load_optimized() as f64 / t as f64
        }
    }

    /// Serialize all counters into a flat word array (row-major `counts`,
    /// then the two provenance arrays). The trace cache stores this sidecar
    /// next to a recorded trace so a warm run can skip the engine entirely.
    pub fn snapshot(&self) -> [u64; 21] {
        let mut s = [0u64; 21];
        for (r, row) in self.counts.iter().enumerate() {
            s[r * 5..r * 5 + 5].copy_from_slice(row);
        }
        s[15..18].copy_from_slice(&self.after_property_load);
        s[18..21].copy_from_slice(&self.after_elements_load);
        s
    }

    /// Rebuild counters from a [`CounterSink::snapshot`] word array.
    pub fn from_snapshot(s: &[u64; 21]) -> CounterSink {
        let mut c = CounterSink::default();
        for (r, row) in c.counts.iter_mut().enumerate() {
            row.copy_from_slice(&s[r * 5..r * 5 + 5]);
        }
        c.after_property_load.copy_from_slice(&s[15..18]);
        c.after_elements_load.copy_from_slice(&s[18..21]);
        c
    }

    /// Figure 1 row: percentage of all dynamic instructions per category,
    /// in [`Category::ALL`] order. Sums to 100 (up to rounding) when any
    /// instructions were retired.
    pub fn fig1_row(&self) -> [f64; 5] {
        let t = self.total();
        let mut row = [0.0; 5];
        if t == 0 {
            return row;
        }
        for c in Category::ALL {
            row[c.index()] = 100.0 * self.by_category(c) as f64 / t as f64;
        }
        row
    }
}

impl TraceSink for CounterSink {
    #[inline]
    fn emit(&mut self, uop: &Uop) {
        self.counts[uop.region.index()][uop.category.index()] += 1;
        match uop.provenance {
            Provenance::None => {}
            Provenance::PropertyLoad => {
                self.after_property_load[uop.region.index()] += 1;
            }
            Provenance::ElementsLoad => {
                self.after_elements_load[uop.region.index()] += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uop::{Provenance, Uop};

    fn check_after_prop(region: Region) -> Uop {
        Uop::alu(0, Category::Check, region).with_provenance(Provenance::PropertyLoad)
    }

    #[test]
    fn totals_and_fractions() {
        let mut c = CounterSink::new();
        for _ in 0..3 {
            c.emit(&Uop::alu(0, Category::RestOfCode, Region::Baseline));
        }
        c.emit(&Uop::alu(0, Category::Check, Region::Optimized));
        assert_eq!(c.total(), 4);
        assert_eq!(c.by_category(Category::Check), 1);
        assert!((c.fraction(Category::Check) - 0.25).abs() < 1e-12);
        assert_eq!(c.total_optimized(), 1);
    }

    #[test]
    fn fig2_percentages() {
        let mut c = CounterSink::new();
        // 2 optimized µops, one of which is a check-after-property-load.
        c.emit(&check_after_prop(Region::Optimized));
        c.emit(&Uop::alu(0, Category::OtherOptimized, Region::Optimized));
        // 2 baseline µops, no relevant checks.
        c.emit(&Uop::alu(0, Category::RestOfCode, Region::Baseline));
        c.emit(&Uop::alu(0, Category::RestOfCode, Region::Baseline));
        assert!((c.fig2_whole_pct() - 25.0).abs() < 1e-9);
        assert!((c.fig2_optimized_pct() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn fig1_row_sums_to_100() {
        let mut c = CounterSink::new();
        c.emit(&Uop::alu(0, Category::Check, Region::Optimized));
        c.emit(&Uop::alu(0, Category::TagUntag, Region::Optimized));
        c.emit(&Uop::alu(0, Category::MathAssume, Region::Optimized));
        c.emit(&Uop::alu(0, Category::OtherOptimized, Region::Optimized));
        c.emit(&Uop::alu(0, Category::RestOfCode, Region::Runtime));
        let row = c.fig1_row();
        let sum: f64 = row.iter().sum();
        assert!((sum - 100.0).abs() < 1e-9);
        assert!(row.iter().all(|&x| (x - 20.0).abs() < 1e-9));
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut c = CounterSink::new();
        c.emit(&check_after_prop(Region::Optimized));
        c.reset();
        assert_eq!(c.total(), 0);
        assert_eq!(c.after_object_load(), 0);
    }

    #[test]
    fn empty_counters_give_zero_percentages() {
        let c = CounterSink::new();
        assert_eq!(c.fig2_whole_pct(), 0.0);
        assert_eq!(c.fig2_optimized_pct(), 0.0);
        assert_eq!(c.fig1_row(), [0.0; 5]);
    }

    #[test]
    fn snapshot_round_trips() {
        let mut c = CounterSink::new();
        c.emit(&check_after_prop(Region::Optimized));
        c.emit(&Uop::alu(0, Category::TagUntag, Region::Baseline));
        c.emit(
            &Uop::alu(0, Category::Check, Region::Runtime)
                .with_provenance(Provenance::ElementsLoad),
        );
        let back = CounterSink::from_snapshot(&c.snapshot());
        assert_eq!(back.total(), c.total());
        for r in [Region::Optimized, Region::Baseline, Region::Runtime] {
            for cat in Category::ALL {
                assert_eq!(back.count(r, cat), c.count(r, cat));
            }
        }
        assert_eq!(back.after_object_load(), c.after_object_load());
        assert_eq!(back.after_object_load_optimized(), c.after_object_load_optimized());
    }

    #[test]
    fn elements_provenance_counted() {
        let mut c = CounterSink::new();
        c.emit(
            &Uop::alu(0, Category::Check, Region::Optimized)
                .with_provenance(Provenance::ElementsLoad),
        );
        assert_eq!(c.after_object_load(), 1);
        assert_eq!(c.after_object_load_optimized(), 1);
    }
}
