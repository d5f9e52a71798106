//! Differential tests: every program must produce identical results in
//! (a) baseline-only, (b) optimized without the mechanism, and (c) the
//! full Class Cache mechanism with check elision — plus targeted tests of
//! deoptimization and misspeculation behaviour.

use checkelide_engine::{EngineConfig, Mechanism, Vm};
use checkelide_isa::{CounterSink, NullSink};
use checkelide_opt::install_optimizer;

fn run_config(src: &str, cfg: EngineConfig, result_global: &str) -> (Vm, String) {
    let mut vm = Vm::new(cfg);
    if cfg.opt_enabled {
        install_optimizer(&mut vm);
    }
    let mut sink = NullSink::new();
    vm.run_program(src, &mut sink).expect("program runs");
    let v = vm
        .global_value(result_global)
        .unwrap_or_else(|| panic!("global {result_global} missing"));
    let s = vm.rt.to_display_string(v);
    (vm, s)
}

/// Run under all three configurations and assert identical results.
/// Returns the Full-mechanism VM for further inspection.
fn differential(src: &str, result_global: &str) -> (Vm, String) {
    let base_cfg = EngineConfig { opt_enabled: false, ..EngineConfig::default() };
    let opt_cfg = EngineConfig { mechanism: Mechanism::ProfileOnly, ..EngineConfig::default() };
    let full_cfg = EngineConfig { mechanism: Mechanism::Full, ..EngineConfig::default() };
    let (_, a) = run_config(src, base_cfg, result_global);
    let (vm_opt, b) = run_config(src, opt_cfg, result_global);
    let (vm_full, c) = run_config(src, full_cfg, result_global);
    assert_eq!(a, b, "baseline vs optimized diverged");
    assert_eq!(a, c, "baseline vs full mechanism diverged");
    assert!(vm_opt.stats.opt_entries > 0, "optimized tier never entered");
    (vm_full, c)
}

#[test]
fn hot_arithmetic_loop() {
    let (vm, r) = differential(
        "function work(n) {
             var s = 0;
             for (var i = 0; i < n; i++) s = s + i * 3 - (i >> 1);
             return s;
         }
         var r = 0;
         for (var k = 0; k < 20; k++) r = work(500);",
        "r",
    );
    assert_eq!(r, "312000");
    assert!(vm.stats.opt_entries > 0);
}

#[test]
fn property_heavy_loop_elides_checks() {
    let src = "function Node(v, w) { this.v = v; this.w = w; }
         function sum(nodes, n) {
             var s = 0;
             for (var i = 0; i < n; i++) {
                 var nd = nodes[i];
                 s += nd.v + nd.w;
             }
             return s;
         }
         var nodes = [];
         for (var i = 0; i < 200; i++) nodes.push(new Node(i, 2 * i));
         var r = 0;
         for (var k = 0; k < 30; k++) r = sum(nodes, 200);";
    let (vm_full, r) = differential(src, "r");
    assert_eq!(r, format!("{}", (0..200).map(|i| i + 2 * i).sum::<i64>()));

    // Compare optimized-code check µops between ProfileOnly and Full.
    let count_checks = |mech: Mechanism| {
        let mut vm = Vm::new(EngineConfig { mechanism: mech, ..EngineConfig::default() });
        install_optimizer(&mut vm);
        let mut sink = CounterSink::new();
        vm.run_program(src, &mut sink).unwrap();
        (
            sink.count(
                checkelide_isa::uop::Region::Optimized,
                checkelide_isa::uop::Category::Check,
            ),
            sink.total_optimized(),
        )
    };
    let (checks_base, _total_base) = count_checks(Mechanism::ProfileOnly);
    let (checks_full, _total_full) = count_checks(Mechanism::Full);
    assert!(
        checks_full < checks_base,
        "full mechanism must remove checks: base {checks_base}, full {checks_full}"
    );
    // The mechanism registered speculations.
    assert!(vm_full.class_list.iter().any(|(_, _, e)| e.speculate_map != 0)
        || vm_full.stats.misspec_exceptions > 0);
}

#[test]
fn double_heavy_loop() {
    let (_, r) = differential(
        "function Body(x, y) { this.x = x; this.y = y; }
         function energy(bodies, n) {
             var e = 0.0;
             for (var i = 0; i < n; i++) {
                 var b = bodies[i];
                 e += b.x * b.x + b.y * b.y;
             }
             return e;
         }
         var bs = [];
         for (var i = 0; i < 50; i++) bs.push(new Body(i * 0.5, i * 0.25));
         var r = 0;
         for (var k = 0; k < 20; k++) r = energy(bs, 50);",
        "r",
    );
    let expected: f64 = (0..50).map(|i| {
        let x = i as f64 * 0.5;
        let y = i as f64 * 0.25;
        x * x + y * y
    }).sum();
    assert_eq!(r, checkelide_runtime::format_f64(expected));
}

#[test]
fn smi_array_kernel() {
    let (_, r) = differential(
        "function sieve(n) {
             var flags = [];
             for (var i = 0; i <= n; i++) flags[i] = 1;
             var count = 0;
             for (var p = 2; p <= n; p++) {
                 if (flags[p]) {
                     count++;
                     for (var m = p + p; m <= n; m += p) flags[m] = 0;
                 }
             }
             return count;
         }
         var r = 0;
         for (var k = 0; k < 12; k++) r = sieve(300);",
        "r",
    );
    assert_eq!(r, "62");
}

#[test]
fn deopt_on_type_change_preserves_semantics() {
    // `f` is optimized for SMI arithmetic, then suddenly sees doubles.
    let (vm, r) = differential(
        "function f(a, b) { return a + b; }
         var r = 0;
         for (var i = 0; i < 50; i++) r = f(i, 1);
         r = f(0.5, 0.25) + r;",
        "r",
    );
    assert_eq!(r, "50.75");
    // The Full VM must have deoptimized f at least once.
    assert!(vm.stats.deopts > 0, "expected a deopt on the double call");
}

#[test]
fn misspeculation_exception_deoptimizes_and_recovers() {
    let src = "function Holder(v) { this.v = v; }
         function get(h) { return h.v; }
         var hs = [];
         for (var i = 0; i < 100; i++) hs.push(new Holder(i));
         var r = 0;
         for (var k = 0; k < 50; k++)
             for (var i = 0; i < 100; i++) r += get(hs[i]);
         // Break the monomorphism of Holder.v: store a string.
         hs[0].v = 'gotcha';
         var tail = '';
         for (var i = 0; i < 100; i++) tail = get(hs[i]);
         var result = r + ':' + get(hs[0]);";
    let full_cfg = EngineConfig { mechanism: Mechanism::Full, ..EngineConfig::default() };
    let (vm, s) = run_config(src, full_cfg, "result");
    let expected = 50 * (0..100).sum::<i64>();
    assert_eq!(s, format!("{expected}:gotcha"));
    assert!(
        vm.stats.misspec_exceptions > 0,
        "the string store must raise a misspeculation exception"
    );
    // Semantics also match the baseline.
    let base_cfg = EngineConfig { opt_enabled: false, ..EngineConfig::default() };
    let (_, sb) = run_config(src, base_cfg, "result");
    assert_eq!(s, sb);
}

#[test]
fn method_calls_through_properties() {
    let (_, r) = differential(
        "function Vec(x, y) { this.x = x; this.y = y; this.dot = vecDot; }
         function vecDot(o) { return this.x * o.x + this.y * o.y; }
         var a = new Vec(1, 2);
         var b = new Vec(3, 4);
         var r = 0;
         for (var i = 0; i < 100; i++) r = a.dot(b);",
        "r",
    );
    assert_eq!(r, "11");
}

#[test]
fn string_kernel() {
    let (_, r) = differential(
        "function hash(s) {
             var h = 0;
             for (var i = 0; i < s.length; i++) h = (h * 31 + s.charCodeAt(i)) & 0xffffff;
             return h;
         }
         var r = 0;
         for (var k = 0; k < 30; k++) r = hash('the quick brown fox jumps over the lazy dog');",
        "r",
    );
    let mut h: i64 = 0;
    for c in "the quick brown fox jumps over the lazy dog".bytes() {
        h = (h * 31 + c as i64) & 0xffffff;
    }
    assert_eq!(r, format!("{h}"));
}

#[test]
fn array_push_pop_in_hot_code() {
    let (_, r) = differential(
        "function churn(n) {
             var st = [];
             for (var i = 0; i < n; i++) st.push(i * 2);
             var s = 0;
             while (st.length > 0) s += st.pop();
             return s;
         }
         var r = 0;
         for (var k = 0; k < 20; k++) r = churn(100);",
        "r",
    );
    assert_eq!(r, format!("{}", (0..100).map(|i| i * 2).sum::<i64>()));
}

#[test]
fn constructors_in_hot_code() {
    let (_, r) = differential(
        "function P(a, b) { this.a = a; this.b = b; }
         function make(i) { return new P(i, i + 1); }
         var r = 0;
         for (var i = 0; i < 500; i++) { var p = make(i); r += p.a + p.b; }",
        "r",
    );
    assert_eq!(r, format!("{}", (0..500).map(|i| 2 * i + 1).sum::<i64>()));
}

#[test]
fn nested_property_chains() {
    let (_, r) = differential(
        "function Inner(v) { this.v = v; }
         function Outer(i) { this.inner = new Inner(i); }
         var os = [];
         for (var i = 0; i < 60; i++) os.push(new Outer(i));
         function total(list, n) {
             var s = 0;
             for (var i = 0; i < n; i++) s += list[i].inner.v;
             return s;
         }
         var r = 0;
         for (var k = 0; k < 30; k++) r = total(os, 60);",
        "r",
    );
    assert_eq!(r, format!("{}", (0..60).sum::<i64>()));
}

#[test]
fn polymorphic_sites_stay_correct() {
    let (_, r) = differential(
        "function A(v) { this.kind = 1; this.v = v; }
         function B(v) { this.tag = 0; this.v = v; }
         function getv(o) { return o.v; }
         var xs = [];
         for (var i = 0; i < 50; i++) {
             if (i % 2) xs.push(new A(i));
             else xs.push(new B(i));
         }
         var r = 0;
         for (var k = 0; k < 30; k++)
             for (var i = 0; i < 50; i++) r += getv(xs[i]);",
        "r",
    );
    assert_eq!(r, format!("{}", 30 * (0..50).sum::<i64>()));
}

#[test]
fn loop_hoisted_element_stores() {
    let src = "function fill(a, n) {
             for (var i = 0; i < n; i++) a[i] = i;
             return a[n - 1];
         }
         var arr = [];
         var r = 0;
         for (var k = 0; k < 30; k++) r = fill(arr, 100);";
    let (vm, r) = differential(src, "r");
    assert_eq!(r, "99");
    // In Full mode, the hot loop stores must hit the Class Cache.
    assert!(vm.class_cache.stats().accesses > 1000, "hoisted profiled stores expected");
    assert!(vm.class_cache.stats().hit_rate() > 0.99);
}

#[test]
fn deep_recursion_in_optimized_code() {
    let (_, r) = differential(
        "function fib(n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
         var r = 0;
         for (var k = 0; k < 12; k++) r = fib(14);",
        "r",
    );
    assert_eq!(r, "377");
}

#[test]
fn elements_double_arrays() {
    let (_, r) = differential(
        "function norm(v, n) {
             var s = 0.0;
             for (var i = 0; i < n; i++) s += v[i] * v[i];
             return Math.sqrt(s);
         }
         var v = [];
         for (var i = 0; i < 64; i++) v[i] = i * 0.125;
         var r = 0;
         for (var k = 0; k < 25; k++) r = norm(v, 64);",
        "r",
    );
    let s: f64 = (0..64).map(|i| {
        let x = i as f64 * 0.125;
        x * x
    }).sum();
    assert_eq!(r, checkelide_runtime::format_f64(s.sqrt()));
}

#[test]
fn gc_during_optimized_execution() {
    let cfg = EngineConfig {
        mechanism: Mechanism::Full,
        gc_threshold_words: 30_000,
        ..EngineConfig::default()
    };
    let src = "function Pair(a, b) { this.a = a; this.b = b; }
         function spin(n) {
             var s = 0.0;
             for (var i = 0; i < n; i++) {
                 var p = new Pair(i * 0.5, i * 0.25);  // boxes + objects
                 s += p.a + p.b;
             }
             return s;
         }
         var r = 0;
         for (var k = 0; k < 20; k++) r = spin(2000);";
    let (vm, s) = run_config(src, cfg, "r");
    assert!(vm.stats.gc_runs > 0, "GC must run inside optimized code");
    let expected: f64 = (0..2000).map(|i| i as f64 * 0.75).sum();
    assert_eq!(s, checkelide_runtime::format_f64(expected));
}

#[test]
fn optimized_code_emits_movstore_instructions_in_full_mode() {
    use checkelide_isa::trace::VecSink;
    use checkelide_isa::uop::{Region, UopKind};
    let src = "function T(v) { this.v = v; }
         function setv(t, x) { t.v = x; return t.v; }
         var t = new T(0);
         var r = 0;
         for (var i = 0; i < 200; i++) r = setv(t, i);";
    let mut vm = Vm::new(EngineConfig { mechanism: Mechanism::Full, ..EngineConfig::default() });
    install_optimizer(&mut vm);
    let mut sink = VecSink::new();
    vm.run_program(src, &mut sink).unwrap();
    let opt_movstores = sink
        .uops
        .iter()
        .filter(|u| u.region == Region::Optimized && u.kind == UopKind::MovStoreClassCache)
        .count();
    assert!(opt_movstores > 100, "optimized stores verified via the Class Cache: {opt_movstores}");
    assert_eq!(vm.global_value("r").unwrap().as_smi(), 199);
}

/// Regression: a `NewArray` literal whose element stores raise a
/// self-deopt (storing a `Q` breaks the elements-array monomorphism
/// `make` speculated on) must surface the deopt instead of swallowing the
/// flow — the array is fully constructed, then the activation bails after
/// the op (the partial-side-effect rule). Abandoning the remaining stores
/// leaves `a[1]` undefined and the program fails.
#[test]
fn new_array_self_deopt_is_not_swallowed() {
    let src = "function P(v) { this.v = v; }
         function Q(w, v) { this.w = w; this.v = v; }
         function make(o) { var a = [o, o, o]; return a[0].v + a[1].v + a[2].v; }
         var r = 0;
         for (var i = 0; i < 40; i++) r = r + make(new P(i));
         var tail = make(new Q(0, 0.5));";
    let cfg = EngineConfig { mechanism: Mechanism::Full, ..EngineConfig::default() };
    let (vm, tail) = run_config(src, cfg, "tail");
    assert_eq!(tail, "1.5");
    assert!(vm.stats.misspec_exceptions > 0, "the literal's store must misspeculate");
    assert!(vm.stats.deopts > 0, "the misspeculation must deopt the running body");
}
