//! Quick-scale smoke runs of every experiment driver: each figure/table
//! must produce well-formed rows with the paper's qualitative properties.

use checkelide::bench::figures;

#[test]
fn fig1_rows_sum_to_100() {
    // Use a subset via direct runner calls to keep the smoke test fast.
    for name in ["richards", "ai-astar", "bitops-bits-in-byte"] {
        let b = checkelide::bench::find(name).unwrap();
        let out = checkelide::bench::run_benchmark(
            b,
            checkelide::bench::RunConfig::characterize().with_scale(2).with_iterations(3),
        );
        let row = out.counters.fig1_row();
        let sum: f64 = row.iter().sum();
        assert!((sum - 100.0).abs() < 1e-6, "{name}: breakdown sums to {sum}");
        assert!(row.iter().all(|&x| (0.0..=100.0).contains(&x)));
    }
}

#[test]
fn fig2_object_heavy_beats_scalar_kernels() {
    let pct = |name: &str| {
        let b = checkelide::bench::find(name).unwrap();
        let out = checkelide::bench::run_benchmark(
            b,
            checkelide::bench::RunConfig::characterize().with_scale(2).with_iterations(3),
        );
        out.counters.fig2_optimized_pct()
    };
    let astar = pct("ai-astar");
    let bitops = pct("bitops-bits-in-byte");
    assert!(
        astar > bitops + 1.0,
        "object-heavy ai-astar ({astar:.1}%) must show more check-after-load overhead \
         than scalar bitops ({bitops:.1}%)"
    );
    assert!(bitops < 1.0, "bitops is one of the paper's zero-overhead benchmarks, got {bitops:.1}%");
}

#[test]
fn fig3_object_benchmarks_are_mostly_monomorphic() {
    let b = checkelide::bench::find("ai-astar").unwrap();
    let out = checkelide::bench::run_benchmark(
        b,
        checkelide::bench::RunConfig::characterize().with_scale(2).with_iterations(3),
    );
    assert!(
        out.fig3.mono_total() > 80.0,
        "ai-astar's object loads are overwhelmingly monomorphic, got {:?}",
        out.fig3
    );
}

#[test]
fn fig8_mechanism_wins_on_the_headline_benchmark() {
    let b = checkelide::bench::find("ai-astar").unwrap();
    let (row, ..) = figures::fig89_one_cell(b, true, &checkelide::bench::TraceCache::disabled())
        .expect("cell runs");
    assert!(
        row.speedup_whole > 2.0,
        "ai-astar must show a clear speedup even at quick scale, got {:.1}%",
        row.speedup_whole
    );
    assert!(row.full_uops < row.base_uops, "the mechanism removes dynamic instructions");
    assert!(row.class_cache_hit > 0.99, "paper §5.3.3: hit rate > 99.9%");
    assert!(row.energy_whole > 0.0, "figure 9 direction");
}

#[test]
fn pool_preserves_order_and_isolates_a_panicking_cell() {
    use checkelide::bench::{pool, try_run_benchmark, RunConfig};
    let names = ["richards", "ai-astar", "bitops-bits-in-byte"];
    let cells: Vec<(String, &str)> = names.iter().map(|n| (n.to_string(), *n)).collect();
    let outcomes = pool::run_cells(cells, 2, |name: &&str| {
        if *name == "ai-astar" {
            panic!("deliberate cell failure");
        }
        let b = checkelide::bench::find(name).unwrap();
        try_run_benchmark(b, RunConfig::characterize().with_scale(2).with_iterations(2))
            .map(|o| o.uops)
    });
    // Results come back in input order regardless of scheduling.
    assert_eq!(outcomes.len(), 3);
    for (outcome, name) in outcomes.iter().zip(names) {
        assert_eq!(outcome.label, name);
    }
    // The panicking cell is a reported CellError; its siblings completed.
    assert!(matches!(&outcomes[0].result, Ok(Ok(uops)) if *uops > 0));
    let err = outcomes[1].result.as_ref().expect_err("panic captured");
    assert!(err.message.contains("deliberate cell failure"), "{}", err.message);
    assert!(matches!(&outcomes[2].result, Ok(Ok(uops)) if *uops > 0));
}

#[test]
fn table2_and_hwcost_hold_paper_claims() {
    let cfg = checkelide::uarch::CoreConfig::nehalem();
    assert_eq!(cfg.issue_width, 4);
    assert_eq!(cfg.class_cache.entries, 128);
    let bytes = checkelide::core::hwcost::class_cache_storage_bytes(&cfg.class_cache);
    assert!(bytes < 1536, "§5.4: Class Cache must fit in 1.5 KB, got {bytes}");
}

#[test]
fn overheads_driver_produces_sane_rows() {
    let b = checkelide::bench::find("deltablue").unwrap();
    let out = checkelide::bench::run_benchmark(
        b,
        checkelide::bench::RunConfig::mechanism_timed().with_scale(2).with_iterations(3),
    );
    assert!(out.class_cache.accesses > 0);
    assert!(out.class_cache.hit_rate() > 0.9);
    assert!(out.hidden_classes < 60, "§5.3.1: small class populations");
    assert!(out.obj_stats.objects > 0);
}
