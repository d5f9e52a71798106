//! Streaming trace consumption.
//!
//! Producers (the execution tiers) push each retired µop into a
//! [`TraceSink`]. Consumers include [`crate::counters::CounterSink`] (for
//! the instruction-mix figures) and the timing model in `checkelide-uarch`
//! (for the cycle/energy figures). [`Tee`] fans one trace out to two sinks,
//! so a single program run can feed both.
//!
//! # Batched emission
//!
//! Replaying billions of µops one `dyn` call at a time makes virtual
//! dispatch the simulation bottleneck. [`TraceSink::emit_batch`] lets a
//! producer hand over a whole slice of retired µops in one virtual call;
//! consumers loop over the slice in monomorphized code with their per-call
//! bookkeeping hoisted out of the loop. [`BatchSink`] is the producer-side
//! adapter: execution tiers push into its concrete, inlined buffer and the
//! `dyn` boundary is crossed once per flush (once per bytecode operation in
//! the interpreters) instead of once per µop. Batching never reorders the
//! trace: there is a single buffer per run, so consumers observe the exact
//! same µop sequence as under per-µop emission.

use crate::uop::Uop;

/// A consumer of retired µops.
pub trait TraceSink {
    /// Consume one retired µop.
    fn emit(&mut self, uop: &Uop);

    /// Consume a batch of retired µops, in order. Equivalent to calling
    /// [`TraceSink::emit`] for each element; implementors override this to
    /// amortize per-call work across the batch. The default loops.
    #[inline]
    fn emit_batch(&mut self, uops: &[Uop]) {
        for u in uops {
            self.emit(u);
        }
    }

    /// Notification that the producer finished (end of measured region).
    /// Consumers may finalize statistics here. Default: no-op.
    fn finish(&mut self) {}

    /// Whether this sink ignores every µop it is handed ([`NullSink`], or a
    /// [`Tee`] of two such sinks). [`BatchSink`] samples this once at
    /// construction and short-circuits its staging copies when true, so
    /// warm-up iterations pay for program execution but not for trace
    /// materialization. Sinks that *consume* µops must leave this `false`
    /// (the default).
    fn discards_all(&self) -> bool {
        false
    }
}

/// Capacity of the [`BatchSink`] staging buffer. Large enough to hold the
/// µop burst of any single bytecode operation (the longest emitters are the
/// class-cache store sequences, well under 64 µops), small enough to stay
/// resident in L1.
///
/// The binary codec also frames traces at this many µops. Batch
/// *boundaries* carry no semantics — every consumer must produce
/// identical results for any chunking of the same stream, an invariant
/// pinned by the uarch equivalence suites.
pub const BATCH_CAPACITY: usize = 256;

/// Producer-side staging buffer that batches µops before crossing the
/// `dyn TraceSink` boundary.
///
/// Execution tiers thread `&mut BatchSink<'_>` (a concrete type) through
/// their hot paths, so pushes monomorphize and inline; the wrapped
/// `&mut dyn TraceSink` only sees [`TraceSink::emit_batch`] calls at flush
/// points. Flushing happens automatically when the buffer fills and on
/// [`BatchSink::flush`]/[`BatchSink::finish`]; producers flush once per
/// bytecode operation (and before any recursive re-entry that could observe
/// sink state), which preserves the exact global µop order.
pub struct BatchSink<'a> {
    inner: &'a mut dyn TraceSink,
    buf: Vec<Uop>,
    /// Cached [`TraceSink::discards_all`] of `inner`: when set, `push` is a
    /// no-op and the staged-µop copy (plus the flush call) is skipped
    /// entirely. Producers may additionally consult
    /// [`BatchSink::discarding`] to skip µop construction and dataflow
    /// token allocation — program semantics (values, profiling state,
    /// GC) never depend on either, so switching a run from a counting
    /// sink to a discarding one cannot change program behaviour.
    discard: bool,
}

impl std::fmt::Debug for BatchSink<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchSink").field("buffered", &self.buf.len()).finish()
    }
}

impl<'a> BatchSink<'a> {
    /// Wrap a dynamic sink in a fresh staging buffer.
    pub fn new(inner: &'a mut dyn TraceSink) -> BatchSink<'a> {
        let discard = inner.discards_all();
        BatchSink { inner, buf: Vec::with_capacity(BATCH_CAPACITY), discard }
    }

    /// Stage one µop. Flushes first when the buffer is full, so the push
    /// itself never reallocates. When the wrapped sink discards everything,
    /// this returns immediately — the branch is on a cached bool, and the
    /// inliner sinks the caller's µop construction into the live path.
    #[inline(always)]
    pub fn push(&mut self, uop: Uop) {
        if self.discard {
            return;
        }
        if self.buf.len() == BATCH_CAPACITY {
            self.flush();
        }
        self.buf.push(uop);
    }

    /// Whether the wrapped sink discards everything (cached
    /// [`TraceSink::discards_all`]). Producers may consult this to skip
    /// *constructing* µops altogether — legal because a discarding run
    /// observes no trace, and the engine's dataflow tokens are pure trace
    /// metadata (the timing model keys on token identity and distance,
    /// both invariant under the global shift that skipped allocations
    /// induce).
    #[inline(always)]
    pub fn discarding(&self) -> bool {
        self.discard
    }

    /// Number of µops currently staged.
    #[inline]
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Hand all staged µops to the wrapped sink in one virtual call.
    #[inline]
    pub fn flush(&mut self) {
        if !self.buf.is_empty() {
            self.inner.emit_batch(&self.buf);
            self.buf.clear();
        }
    }

    /// Flush and forward [`TraceSink::finish`] to the wrapped sink.
    pub fn finish(&mut self) {
        self.flush();
        self.inner.finish();
    }
}

impl Drop for BatchSink<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

/// A sink that discards everything. Used for warm-up iterations, where the
/// paper only keeps profiling state, not statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl NullSink {
    /// Create a new discarding sink.
    pub fn new() -> NullSink {
        NullSink
    }
}

impl TraceSink for NullSink {
    #[inline]
    fn emit(&mut self, _uop: &Uop) {}

    #[inline]
    fn emit_batch(&mut self, _uops: &[Uop]) {}

    fn discards_all(&self) -> bool {
        true
    }
}

/// Fans a trace out to two sinks.
#[derive(Debug)]
pub struct Tee<'a, A: ?Sized, B: ?Sized> {
    a: &'a mut A,
    b: &'a mut B,
}

impl<'a, A: TraceSink + ?Sized, B: TraceSink + ?Sized> Tee<'a, A, B> {
    /// Create a tee over two sinks.
    pub fn new(a: &'a mut A, b: &'a mut B) -> Self {
        Tee { a, b }
    }
}

impl<A: TraceSink + ?Sized, B: TraceSink + ?Sized> TraceSink for Tee<'_, A, B> {
    #[inline]
    fn emit(&mut self, uop: &Uop) {
        self.a.emit(uop);
        self.b.emit(uop);
    }

    /// Forward the whole batch to each side: two virtual calls per batch
    /// instead of two per µop.
    #[inline]
    fn emit_batch(&mut self, uops: &[Uop]) {
        self.a.emit_batch(uops);
        self.b.emit_batch(uops);
    }

    fn finish(&mut self) {
        self.a.finish();
        self.b.finish();
    }

    fn discards_all(&self) -> bool {
        self.a.discards_all() && self.b.discards_all()
    }
}

/// A sink that records every µop into a vector. Intended for tests and for
/// small golden traces, not for full benchmark runs.
#[derive(Debug, Default)]
pub struct VecSink {
    /// The recorded trace.
    pub uops: Vec<Uop>,
}

impl VecSink {
    /// Create an empty recording sink.
    pub fn new() -> VecSink {
        VecSink { uops: Vec::new() }
    }

    /// Number of recorded µops.
    pub fn len(&self) -> usize {
        self.uops.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.uops.is_empty()
    }
}

impl TraceSink for VecSink {
    #[inline]
    fn emit(&mut self, uop: &Uop) {
        self.uops.push(*uop);
    }

    #[inline]
    fn emit_batch(&mut self, uops: &[Uop]) {
        self.uops.extend_from_slice(uops);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uop::{Category, Region, Uop};

    #[test]
    fn tee_duplicates_uops() {
        let mut a = VecSink::new();
        let mut b = VecSink::new();
        {
            let mut tee = Tee::new(&mut a, &mut b);
            tee.emit(&Uop::alu(0, Category::RestOfCode, Region::Baseline));
            tee.emit(&Uop::alu(4, Category::Check, Region::Optimized));
            tee.finish();
        }
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 2);
        assert_eq!(a.uops[1].category, Category::Check);
    }

    #[test]
    fn null_sink_accepts_anything() {
        let mut s = NullSink::new();
        for pc in 0..100 {
            s.emit(&Uop::alu(pc, Category::RestOfCode, Region::Runtime));
        }
    }

    #[test]
    fn vec_sink_records_in_order() {
        let mut s = VecSink::new();
        assert!(s.is_empty());
        s.emit(&Uop::alu(8, Category::MathAssume, Region::Optimized));
        assert_eq!(s.len(), 1);
        assert_eq!(s.uops[0].pc, 8);
    }

    #[test]
    fn emit_batch_default_matches_per_uop() {
        // A sink that only implements `emit` still consumes batches
        // correctly through the default method.
        struct CountOnly(u64);
        impl TraceSink for CountOnly {
            fn emit(&mut self, _uop: &Uop) {
                self.0 += 1;
            }
        }
        let trace: Vec<Uop> = (0..10)
            .map(|pc| Uop::alu(pc * 4, Category::RestOfCode, Region::Baseline))
            .collect();
        let mut s = CountOnly(0);
        s.emit_batch(&trace);
        assert_eq!(s.0, 10);
    }

    #[test]
    fn batch_sink_preserves_order_and_flushes_on_drop() {
        let mut v = VecSink::new();
        {
            let mut b = BatchSink::new(&mut v);
            for pc in 0..5 {
                b.push(Uop::alu(pc, Category::Check, Region::Optimized));
            }
            assert_eq!(b.buffered(), 5);
            b.flush();
            assert_eq!(b.buffered(), 0);
            b.push(Uop::alu(99, Category::RestOfCode, Region::Runtime));
            // Dropped without an explicit flush: the tail must still arrive.
        }
        assert_eq!(v.len(), 6);
        let pcs: Vec<u64> = v.uops.iter().map(|u| u.pc).collect();
        assert_eq!(pcs, vec![0, 1, 2, 3, 4, 99]);
    }

    #[test]
    fn batch_sink_auto_flushes_at_capacity() {
        let mut v = VecSink::new();
        let mut b = BatchSink::new(&mut v);
        let n = BATCH_CAPACITY + 17;
        for pc in 0..n as u64 {
            b.push(Uop::alu(pc, Category::RestOfCode, Region::Baseline));
        }
        // One auto-flush happened; the remainder is still staged.
        assert_eq!(b.buffered(), 17);
        b.finish();
        drop(b);
        assert_eq!(v.len(), n);
        assert!(v.uops.iter().enumerate().all(|(i, u)| u.pc == i as u64));
    }

    #[test]
    fn batch_sink_over_null_sink_discards_without_staging() {
        let mut n = NullSink::new();
        let mut b = BatchSink::new(&mut n);
        for pc in 0..(BATCH_CAPACITY as u64 * 2) {
            b.push(Uop::alu(pc, Category::RestOfCode, Region::Baseline));
        }
        assert_eq!(b.buffered(), 0, "discard mode must never stage µops");
    }

    #[test]
    fn discards_all_propagates_through_tee() {
        let mut n1 = NullSink::new();
        let mut n2 = NullSink::new();
        assert!(Tee::new(&mut n1, &mut n2).discards_all());
        let mut v = VecSink::new();
        let mut n3 = NullSink::new();
        assert!(!Tee::new(&mut v, &mut n3).discards_all());
        assert!(!VecSink::new().discards_all());
    }

    #[test]
    fn tee_batches_to_both_sides() {
        let mut a = VecSink::new();
        let mut b = VecSink::new();
        {
            let mut tee = Tee::new(&mut a, &mut b);
            let trace: Vec<Uop> = (0..4)
                .map(|pc| Uop::alu(pc, Category::TagUntag, Region::Optimized))
                .collect();
            tee.emit_batch(&trace);
        }
        assert_eq!(a.len(), 4);
        assert_eq!(b.len(), 4);
        assert_eq!(a.uops, b.uops);
    }
}
