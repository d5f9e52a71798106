//! Recording memory: a trace recorded through `TraceWriter<ObjectWriter>`
//! never holds its raw encoded body.
//!
//! The recorder streams every encoded frame through the content-ID hash
//! and the LZ compressor, so a cold cell's live heap is the compressed
//! object plus a window, not the raw trace. This binary installs the
//! counting allocator of `common` and pins that property: peak live
//! bytes while recording a few MB of synthetic µops stay below half the
//! raw length, which any buffer of the whole body would exceed.

mod common;

use checkelide_bench::store::{sha256, ObjectImage, ObjectWriter, COMPRESS_LZ};
use checkelide_isa::codec::encode_trace;
use checkelide_isa::{TraceSink, TraceWriter, Uop};
use common::{peak_since, reset_peak, synthetic_uop};

/// µops in the synthetic recording (~4 MB encoded).
const UOPS: u64 = 800_000;

#[test]
fn recording_never_holds_the_raw_body() {
    let base = reset_peak();
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
    let peak = peak_since(base);
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
    assert_eq!(image.bytes, ObjectImage::build(&raw, true).bytes);
}
