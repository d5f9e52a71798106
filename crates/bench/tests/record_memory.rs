//! Recording memory: a trace recorded through `TraceWriter<ObjectWriter>`
//! holds neither its raw encoded body nor its stored object.
//!
//! The recorder streams every encoded frame through the content-ID hash
//! and the LZ compressor, and drains the compressed stream (or, with
//! compression off, the raw body) to the object's tmp file in 64 KiB
//! blocks. A cold cell's live heap is then the compressor's window and a
//! block or two, whatever the trace's length. This binary installs the
//! counting allocator of `common` and pins that property with
//! compression on and off: peak live bytes while recording a body whose
//! stored object is several MiB stay below a fixed bound, which a buffer
//! of the whole object would exceed.

mod common;

use std::fs;

use checkelide_bench::store::{
    sha256, TraceStore, COMPRESS_LZ, COMPRESS_NONE, OBJECT_HEADER_LEN, OBJECT_MAGIC,
    OBJECT_VERSION,
};
use checkelide_isa::{lz, TraceSink, TraceWriter, Uop};
use common::{peak_since, reset_peak, synthetic_uop};

/// Peak live heap a recording may reach, whatever the trace length: the
/// encoder's frame buffers, the compressor's hash table and window, and
/// the file's write buffer.
const RECORD_HEAP_BOUND: usize = 1 << 20;

/// µops in the synthetic recording.
const UOPS: u64 = 2_000_000;

/// A trace-like µop with a pseudo-random address, so the stored object
/// stays large with compression on.
fn noisy_uop(i: u64) -> Uop {
    let mut u = synthetic_uop(i);
    if let Some(m) = &mut u.mem {
        m.addr ^= i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40 << 3;
    }
    u
}

/// The object file the one-shot path makes of `raw`: the LZ payload
/// when it is smaller, else the raw one, behind the header.
fn reference_image(raw: &[u8], compress: bool) -> Vec<u8> {
    let packed = lz::compress(raw);
    let (compression, payload) = if compress && packed.len() < raw.len() {
        (COMPRESS_LZ, &packed[..])
    } else {
        (COMPRESS_NONE, raw)
    };
    let mut bytes = OBJECT_MAGIC.to_vec();
    bytes.push(OBJECT_VERSION);
    bytes.push(compression);
    bytes.extend_from_slice(&(raw.len() as u64).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

#[test]
fn recording_never_holds_the_raw_body() {
    let dir = std::env::temp_dir().join(format!("checkelide-record-mem-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let mut one_shot = TraceWriter::new(Vec::new()).expect("trace header");
    (0..UOPS).for_each(|i| one_shot.emit(&noisy_uop(i)));
    let (raw, _) = one_shot.finish_file().expect("in-memory recording");
    for (compress, want) in [(true, COMPRESS_LZ), (false, COMPRESS_NONE)] {
        let store = TraceStore::open(&dir, compress).expect("open store");
        let base = reset_peak();
        let object = store.object_writer().expect("object writer");
        let mut writer = TraceWriter::new(object).expect("trace header");
        let mut batch = Vec::with_capacity(256);
        for i in 0..UOPS {
            batch.push(noisy_uop(i));
            if batch.len() == batch.capacity() || i + 1 == UOPS {
                writer.emit_batch(&batch);
                batch.clear();
            }
        }
        let (object, stats) = writer.finish_file().expect("recording");
        let image = object.finish().expect("object file");
        let peak = peak_since(base);
        drop(batch);

        assert_eq!(stats.uops, UOPS);
        assert_eq!(image.raw_len, stats.bytes);
        assert_eq!(image.compression, want);
        assert!(
            image.stored_len > 3 * RECORD_HEAP_BOUND as u64,
            "a {} B object is too small to tell",
            image.stored_len
        );
        assert!(
            peak < RECORD_HEAP_BOUND,
            "peak live heap {peak} B while recording a {} B trace ({} B stored, compress \
             {compress})",
            image.raw_len,
            image.stored_len
        );

        // The streamed object is the one the one-shot path makes.
        assert_eq!(raw.len() as u64, image.raw_len);
        assert_eq!(image.cid, sha256(&raw));
        let stored = fs::read(image.path()).expect("object file");
        assert_eq!(stored.len() as u64, image.stored_len);
        assert!(stored.len() > OBJECT_HEADER_LEN);
        assert!(stored == reference_image(&raw, compress), "compress {compress}: object bytes");
    }
    let _ = fs::remove_dir_all(&dir);
}
