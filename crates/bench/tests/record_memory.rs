//! Recording memory: a trace recorded through `TraceWriter<ObjectWriter>`
//! never holds its raw encoded body.
//!
//! The recorder streams every encoded frame through the content-ID hash
//! and the LZ compressor, so a cold cell's live heap is the compressed
//! object plus a window, not the raw trace. This binary installs its own
//! counting allocator and pins that property: peak live bytes while
//! recording a few MB of synthetic µops stay below half the raw length,
//! which any buffer of the whole body would exceed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use checkelide_bench::store::{sha256, ObjectImage, ObjectWriter, COMPRESS_LZ};
use checkelide_isa::codec::encode_trace;
use checkelide_isa::uop::Tok;
use checkelide_isa::{Category, Provenance, Region, TraceSink, TraceWriter, Uop};

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

/// µops in the synthetic recording (~4 MB encoded).
const UOPS: u64 = 800_000;

/// Trace-like synthetic µops, generated on the fly: a 61-µop loop body
/// walking an array, with a data-dependent branch and drifting tokens.
fn synthetic_uop(i: u64) -> Uop {
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

#[test]
fn recording_never_holds_the_raw_body() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
    let base = LIVE.load(Relaxed);
    let mut writer = TraceWriter::new(ObjectWriter::new(true)).expect("object writer");
    let mut batch = Vec::with_capacity(256);
    for i in 0..UOPS {
        batch.push(synthetic_uop(i));
        if batch.len() == batch.capacity() || i + 1 == UOPS {
            writer.emit_batch(&batch);
            batch.clear();
        }
    }
    let (object, stats) = writer.finish_file().expect("infallible sink");
    let image: ObjectImage = object.finish();
    let peak = PEAK.load(Relaxed) - base;
    drop(batch);

    assert_eq!(stats.uops, UOPS);
    assert_eq!(image.raw_len, stats.bytes);
    assert_eq!(image.compression, COMPRESS_LZ);
    assert!(
        peak < image.raw_len as usize / 2,
        "peak live heap {peak} B while recording a {} B trace ({} B stored)",
        image.raw_len,
        image.bytes.len()
    );

    // The streamed object is the one the one-shot path builds.
    let uops: Vec<Uop> = (0..UOPS).map(synthetic_uop).collect();
    let raw = encode_trace(&uops);
    assert_eq!(raw.len() as u64, image.raw_len);
    assert_eq!(image.cid, sha256(&raw));
    assert_eq!(ObjectImage::decode_verify(&image.bytes, &image.cid).expect("verifies"), raw);
}
