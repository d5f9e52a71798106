//! Replay memory: a stored trace body is read back through the store's
//! streamed reader without ever being inflated whole.
//!
//! `TraceStore::open_body` reads the object in fixed blocks, decodes LZ
//! in bounded chunks with only its back-reference window, and hashes each
//! chunk as it is handed to `TraceReader`. This binary installs the
//! counting allocator of `common` and pins that property for bodies
//! stored compressed and raw: peak live bytes while replaying a few MB
//! of synthetic µops stay below a quarter of the raw length and below a
//! fixed bound that does not grow with the trace.

mod common;

use std::fs;

use checkelide_bench::store::{Sidecar, TraceStore, COMPRESS_LZ, COMPRESS_NONE, OBJECT_HEADER_LEN};
use checkelide_isa::codec::TraceReader;
use checkelide_isa::{CounterSink, TraceSink, TraceWriter};
use common::{peak_since, reset_peak, synthetic_uop};

/// µops in the synthetic recording (~7 MB encoded).
const UOPS: u64 = 1_600_000;

/// Peak live heap a replay may reach, whatever the trace length: the
/// reader's block and window plus the decoder's frame buffers.
const REPLAY_HEAP_BOUND: usize = 1 << 20;

/// Record the synthetic trace into a store object and its manifest.
fn record(store: &TraceStore, compress: bool) -> Sidecar {
    let object = store.object_writer().expect("object writer");
    let mut writer = TraceWriter::new(object).expect("trace header");
    let mut batch = Vec::with_capacity(256);
    for i in 0..UOPS {
        batch.push(synthetic_uop(i));
        if batch.len() == batch.capacity() || i + 1 == UOPS {
            writer.emit_batch(&batch);
            batch.clear();
        }
    }
    let (object, stats) = writer.finish_file().expect("recording");
    let mut side = Sidecar {
        key: format!("synthetic|compress{compress}"),
        uops: stats.uops,
        ..Sidecar::default()
    };
    store.put_object(&mut side, object.finish().expect("object file")).expect("publish");
    side
}

#[test]
fn replay_streams_stored_bodies_in_bounded_memory() {
    let dir = std::env::temp_dir().join(format!("checkelide-replay-mem-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    for (compress, want) in [(true, COMPRESS_LZ), (false, COMPRESS_NONE)] {
        let store = TraceStore::open(&dir, compress).expect("open store");
        let side = record(&store, compress);
        assert_eq!(side.compression, want);

        let base = reset_peak();
        let mut body = store.open_body(&side).expect("object opens");
        let mut counters = CounterSink::new();
        let replayed = TraceReader::new(&mut body)
            .and_then(|mut r| r.replay(&mut counters))
            .expect("replays");
        body.finish(&side.cid).expect("body verifies");
        let stored_read = body.stored_read();
        drop(body);
        let peak = peak_since(base);

        assert_eq!(replayed, UOPS);
        assert_eq!(counters.total(), UOPS);
        assert_eq!(stored_read, side.stored_bytes, "the whole object was read");
        let raw_len = side.trace_bytes as usize;
        assert!(raw_len > 4 * REPLAY_HEAP_BOUND, "a {raw_len} B trace is too short to tell");
        assert!(
            peak < raw_len / 4 && peak < REPLAY_HEAP_BOUND,
            "peak live heap {peak} B replaying a {raw_len} B trace ({} B stored, compress \
             {compress})",
            side.stored_bytes
        );
        assert!(side.stored_bytes > OBJECT_HEADER_LEN as u64);
    }
    let _ = fs::remove_dir_all(&dir);
}
