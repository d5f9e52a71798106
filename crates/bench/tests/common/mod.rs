//! Shared by the memory tests: a counting global allocator and a
//! synthetic trace-like µop stream.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use checkelide_isa::uop::Tok;
use checkelide_isa::{Category, Provenance, Region, Uop};

/// Forwards to [`System`], counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let now = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(now, Relaxed);
}

// SAFETY: every method forwards to `System` unchanged; the counters are
// plain atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // A moving realloc holds both blocks while it copies.
            grew(new_size);
            LIVE.fetch_sub(layout.size(), Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Trace-like synthetic µops, generated on the fly: a 61-µop loop body
/// walking an array, with a data-dependent branch and drifting tokens.
#[allow(dead_code)] // the engine-cell test runs a real kernel instead
pub fn synthetic_uop(i: u64) -> Uop {
    let step = i % 61;
    let iter = i / 61;
    let pc = 0x4000 + step * 4;
    let tok = Tok((i % 4096) as u32 + 1);
    match step % 6 {
        0 => Uop::load(
            pc,
            0x10_0000 + (iter % 50_000) * 8,
            Category::OtherOptimized,
            Region::Optimized,
        )
        .with_dst(tok)
        .with_provenance(Provenance::PropertyLoad),
        1 => Uop::alu(pc, Category::Check, Region::Optimized).with_srcs(tok, Tok::NONE),
        2 => Uop::branch(pc, iter % 7 == step % 7, Category::RestOfCode, Region::Optimized),
        3 => {
            Uop::store(pc, 0x20_0000 + (iter % 9_000) * 16, Category::RestOfCode, Region::Baseline)
                .with_srcs(tok, Tok(tok.0.wrapping_sub(2)))
        }
        4 => Uop::alu(pc, Category::TagUntag, Region::Optimized).with_dst(tok),
        _ => Uop::alu(pc, Category::MathAssume, Region::Runtime).with_srcs(tok, tok),
    }
}

/// Restart the high-water mark at the current live bytes; returns them.
pub fn reset_peak() -> usize {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// Peak live bytes since [`reset_peak`] returned `base`.
pub fn peak_since(base: usize) -> usize {
    PEAK.load(Relaxed) - base
}
