//! Content-addressed, sharded on-disk trace store.
//!
//! This is the storage layer behind [`crate::tracecache::TraceCache`] and
//! the `tracegc` maintenance pass, a two-level design borrowed from
//! content-addressed object stores:
//!
//! ```text
//! <root>/
//!   manifest/<bench>-<fnv64(key)>.m    logical key -> Sidecar (incl. CID)
//!   objects/<ab>/<cid-hex>            trace body, addressed by content
//!   sim/<ab>/<cid-hex>-<fp16>.s       memoized SimResult (CKSR) for
//!                                     (trace CID, config fingerprint)
//! ```
//!
//! * A **manifest** maps one logical cache key (benchmark × engine
//!   configuration × source fingerprint) to a [`Sidecar`]: every
//!   statistic the runner measured, plus the content ID of the trace
//!   body. Manifests are small (~400 B) and rewritten atomically (tmp +
//!   rename).
//! * An **object** is one encoded µop trace, stored under the hex SHA-256
//!   of its *raw* encoded bytes, in a 256-way fan-out of shard
//!   directories keyed by the first hex byte (so no directory holds
//!   every object of a large store). Objects are immutable: two logical
//!   keys whose executions emit identical µop streams (geometry sweeps
//!   that only vary the simulated cache, source edits that do not change
//!   emission) share one object.
//! * Object payloads are optionally compressed with the std-only
//!   [`checkelide_isa::lz`] codec ([`COMPRESS_LZ`]); the raw form is kept
//!   when compression does not help. The CID is always the hash of the
//!   **raw** bytes, so the same trace stored compressed and uncompressed
//!   dedups to one identity and every read re-verifies content integrity
//!   end to end (decompress, hash, compare).
//! * Every object is written through an [`ObjectWriter`], which streams
//!   the raw bytes through the hash and the compressor as they arrive
//!   and appends the payload to a `*.tmp.*` file in the store root in
//!   blocks, so neither the raw body nor the object is held in memory.
//!   [`TraceStore::put_object`] renames the finished file into
//!   `objects/`, or removes it when the trace is already stored. Bodies
//!   are read back the same way, through the [`BodyReader`] of
//!   [`TraceStore::open_body`]: file blocks in, decompressed and hashed
//!   chunks out, verified at the end.
//!
//! # Crash safety and reclamation
//!
//! Publishes are ordered object-first, manifest-last, each by a rename
//! of a tmp file (objects from the store root, manifests and sim objects
//! from their own directory), so a crash can never produce a manifest
//! pointing at a missing body. A writer dropped unfinished — a failed or
//! panicking recording — removes its tmp file. [`TraceStore::open`] only
//! creates the store's directories: it reads and deletes nothing, so an
//! open never disturbs another process's recording in progress.
//!
//! [`TraceStore::gc`], which the `tracegc` binary runs, is the one pass
//! that deletes files. It reclaims what crashed processes leave behind
//! (`*.tmp.*` files anywhere in the store, and objects whose manifest
//! was never published), drops manifests whose key carries another
//! source fingerprint and sim objects stored under another sim
//! fingerprint, bounds total store size (LRU by manifest mtime; hits
//! refresh the mtime), and removes objects and sim objects no surviving
//! manifest references. It cannot tell a live tmp file from a dead one:
//! run it while no other process writes the store.
//!
//! Corruption degrades to a miss, never to wrong data or a panic: a size,
//! header, decode, length or hash failure evicts the offending manifest
//! and object, and the caller re-records.

use std::fs::{self, File};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::SystemTime;

use checkelide_core::{loadstats::Fig3Row, ClassCacheStats};
use checkelide_engine::VmStats;
use checkelide_isa::lz;
use checkelide_runtime::runtime::ObjectStats;
use checkelide_uarch::{SimObject, SIM_OBJECT_LEN};

// ---------------------------------------------------------------------------
// SHA-256
// ---------------------------------------------------------------------------

mod sha256;

pub use sha256::{sha256, sha256_backend, Sha256};

/// Lowercase hex rendering of a content ID.
#[must_use]
pub fn cid_hex(cid: &[u8; 32]) -> String {
    let mut s = String::with_capacity(64);
    for b in cid {
        use std::fmt::Write as _;
        let _ = write!(s, "{b:02x}");
    }
    s
}

// ---------------------------------------------------------------------------
// Object image
// ---------------------------------------------------------------------------

/// Object file magic.
pub const OBJECT_MAGIC: [u8; 4] = *b"CKOB";
/// Object file format version.
pub const OBJECT_VERSION: u8 = 1;
/// Object header length (`magic + version + compression + raw_len`).
pub const OBJECT_HEADER_LEN: usize = 4 + 1 + 1 + 8;
/// Payload stored raw.
pub const COMPRESS_NONE: u8 = 0;
/// Payload compressed with [`checkelide_isa::lz`].
pub const COMPRESS_LZ: u8 = 1;
/// Largest raw trace body an object may declare (full-scale timed traces
/// are ~100 MB; this is a corruption guard, not a design limit).
pub const MAX_OBJECT_RAW_LEN: u64 = 1 << 32;

/// The 14-byte header of an object file: `CKOB | version | compression |
/// raw_len:u64le`, so a reader needs no manifest to decode the payload
/// that follows.
fn object_header(compression: u8, raw_len: u64) -> [u8; OBJECT_HEADER_LEN] {
    let mut head = [0u8; OBJECT_HEADER_LEN];
    head[..4].copy_from_slice(&OBJECT_MAGIC);
    head[4] = OBJECT_VERSION;
    head[5] = compression;
    head[6..].copy_from_slice(&raw_len.to_le_bytes());
    head
}

/// A `*.tmp.*` file this process is writing. Dropping it removes the
/// file, unless [`TmpFile::persist`] renamed it into place.
#[derive(Debug)]
struct TmpFile(PathBuf);

impl TmpFile {
    /// Create an empty tmp file beside `base`, named after it and unique
    /// within this process, open for reading and writing.
    fn create(base: &Path) -> io::Result<(TmpFile, File)> {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let mut name = base.file_name().map(|s| s.to_os_string()).unwrap_or_default();
        name.push(format!(".tmp.{}.{n}", std::process::id()));
        let path = base.with_file_name(name);
        let file =
            File::options().read(true).write(true).create(true).truncate(true).open(&path)?;
        Ok((TmpFile(path), file))
    }

    /// Rename the file to `to` (atomic within one file system).
    fn persist(mut self, to: &Path) -> io::Result<()> {
        let path = std::mem::take(&mut self.0);
        fs::rename(&path, to).inspect_err(|_| {
            let _ = fs::remove_file(&path);
        })
    }
}

impl Drop for TmpFile {
    fn drop(&mut self) {
        if !self.0.as_os_str().is_empty() {
            let _ = fs::remove_file(&self.0);
        }
    }
}

/// A finished object file, not yet published: a tmp file in the store
/// root holding the whole object (header and payload), and the location
/// fields a manifest records for it. [`TraceStore::put_object`] renames
/// it into `objects/`; dropping it unpublished removes the file.
#[derive(Debug)]
pub struct ObjectImage {
    /// SHA-256 of the raw (uncompressed) trace bytes.
    pub cid: [u8; 32],
    /// [`COMPRESS_NONE`] or [`COMPRESS_LZ`].
    pub compression: u8,
    /// Raw (uncompressed) payload size.
    pub raw_len: u64,
    /// Object file size, header included.
    pub stored_len: u64,
    file: TmpFile,
}

impl ObjectImage {
    /// The tmp file holding the object until it is published.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.file.0
    }

    /// Fill `side`'s content-store location fields from this image.
    pub(crate) fn locate(&self, side: &mut Sidecar) {
        side.cid = self.cid;
        side.compression = self.compression;
        side.trace_bytes = self.raw_len;
        side.stored_bytes = self.stored_len;
    }
}

/// Streams a raw trace body into an object file as it arrives: every
/// write feeds the content-ID hash and either the LZ compressor, whose
/// stream is drained to the file every [`BODY_BLOCK`], or (compression
/// off) the file itself through one block of buffer. Neither the raw
/// body nor the object is ever held in memory. Made by
/// [`TraceStore::object_writer`]; dropping an unfinished writer removes
/// its tmp file. After a write error the writer is unusable: drop it.
#[derive(Debug)]
pub struct ObjectWriter {
    sha: Sha256,
    raw_len: u64,
    /// The compressor, or `None` when the payload is the raw body.
    lz: Option<lz::Compressor>,
    /// Payload bytes written so far, after the reserved header.
    payload_len: u64,
    out: BufWriter<File>,
    /// The store root, where the raw fallback's file is made.
    root: PathBuf,
    file: TmpFile,
}

impl ObjectWriter {
    /// A writer into a fresh tmp file in the store root `root`,
    /// LZ-compressed when `compress` is set and compression shrinks the
    /// payload.
    fn create(root: &Path, compress: bool) -> io::Result<ObjectWriter> {
        let (file, f) = TmpFile::create(&root.join("object"))?;
        let mut out = BufWriter::with_capacity(BODY_BLOCK, f);
        out.write_all(&[0; OBJECT_HEADER_LEN])?;
        Ok(ObjectWriter {
            sha: Sha256::new(),
            raw_len: 0,
            lz: compress.then(lz::Compressor::new),
            payload_len: 0,
            out,
            root: root.to_path_buf(),
            file,
        })
    }

    /// Seal the object: hash, final LZ sequence and header. A payload LZ
    /// did not shrink is stored raw, recovered by decoding the writer's
    /// own file, in blocks, into a second tmp file.
    ///
    /// # Errors
    ///
    /// Any write or read of the tmp files.
    pub fn finish(mut self) -> io::Result<ObjectImage> {
        let mut compression = COMPRESS_NONE;
        if let Some(c) = self.lz.take() {
            let tail = c.finish();
            self.out.write_all(&tail)?;
            self.payload_len += tail.len() as u64;
            compression = COMPRESS_LZ;
        }
        let mut f = self.out.into_inner().map_err(io::IntoInnerError::into_error)?;
        f.seek(SeekFrom::Start(0))?;
        f.write_all(&object_header(compression, self.raw_len))?;
        let mut image = ObjectImage {
            cid: self.sha.finalize(),
            compression,
            raw_len: self.raw_len,
            stored_len: OBJECT_HEADER_LEN as u64 + self.payload_len,
            file: self.file,
        };
        if compression == COMPRESS_LZ && self.payload_len >= self.raw_len {
            f.seek(SeekFrom::Start(0))?;
            let mut side = Sidecar::default();
            image.locate(&mut side);
            let mut body = BodyReader::new(f, &side)?;
            let (file, f) = TmpFile::create(&self.root.join("object"))?;
            let mut out = BufWriter::with_capacity(BODY_BLOCK, f);
            out.write_all(&object_header(COMPRESS_NONE, self.raw_len))?;
            io::copy(&mut body, &mut out)?;
            body.finish(&image.cid)?;
            out.flush()?;
            image.file = file;
            image.compression = COMPRESS_NONE;
            image.stored_len = OBJECT_HEADER_LEN as u64 + self.raw_len;
        }
        Ok(image)
    }
}

impl Write for ObjectWriter {
    fn write(&mut self, raw: &[u8]) -> io::Result<usize> {
        match &mut self.lz {
            Some(c) => {
                for piece in raw.chunks(BODY_BLOCK) {
                    c.write(piece);
                    self.payload_len += c.drain_to(&mut self.out, BODY_BLOCK)? as u64;
                }
            }
            None => {
                self.out.write_all(raw)?;
                self.payload_len += raw.len() as u64;
            }
        }
        self.sha.update(raw);
        self.raw_len += raw.len() as u64;
        Ok(raw.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Why a stored trace body failed its streamed read.
#[derive(Debug)]
pub enum BodyError {
    /// The object file could not be opened or read.
    Io(io::Error),
    /// The object disagrees with itself or with its manifest, or raw
    /// bytes remain after the consumer stopped reading.
    Corrupt(&'static str),
    /// The LZ payload does not decode.
    Lz(lz::LzError),
    /// The body does not hash to its content ID.
    HashMismatch,
}

impl std::fmt::Display for BodyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BodyError::Io(e) => write!(f, "object read failed: {e}"),
            BodyError::Corrupt(what) => write!(f, "corrupt object: {what}"),
            BodyError::Lz(e) => write!(f, "corrupt object payload: {e}"),
            BodyError::HashMismatch => write!(f, "object body does not match its content ID"),
        }
    }
}

impl std::error::Error for BodyError {}

impl From<io::Error> for BodyError {
    fn from(e: io::Error) -> BodyError {
        BodyError::Io(e)
    }
}

impl From<BodyError> for io::Error {
    fn from(e: BodyError) -> io::Error {
        match e {
            BodyError::Io(e) => e,
            e => io::Error::new(io::ErrorKind::InvalidData, e),
        }
    }
}

/// Bytes per object-file read and per decoded chunk.
const BODY_BLOCK: usize = 1 << 16;

/// The one way a stored trace body is read: the object's payload is read
/// in [`BODY_BLOCK`]s, decompressed in chunks of at most a block through
/// an [`lz::Decompressor`] that keeps only its back-reference window, and
/// every decoded chunk is hashed once as it is handed out through
/// [`Read`]. Memory is a few blocks, whatever the body's length.
///
/// A consumer sees bytes before their hash is known: nothing it computes
/// from them may be used until [`BodyReader::finish`] has passed.
#[derive(Debug)]
pub struct BodyReader<R = File> {
    inp: R,
    /// Payload bytes not yet read from `inp`.
    payload_left: u64,
    /// The last payload block read; `block[at..]` is not yet decoded.
    block: Vec<u8>,
    at: usize,
    /// The decoder, or `None` for a payload stored raw.
    lz: Option<lz::Decompressor>,
    /// Decoded bytes: back-reference history, then `window[unread..]`,
    /// not yet handed out.
    window: Vec<u8>,
    unread: usize,
    sha: Sha256,
    /// Object bytes read so far, header included.
    stored_read: u64,
    /// Set by the first failure; every later read fails too.
    failed: bool,
}

impl<R: Read> BodyReader<R> {
    /// Start reading the object image `inp` that `side` locates: its
    /// header must match the manifest's compression and raw length and
    /// leave a payload of the recorded size. `side.stored_bytes` bounds
    /// what is read from `inp`.
    ///
    /// # Errors
    ///
    /// An unreadable, malformed or manifest-disagreeing header.
    pub fn new(mut inp: R, side: &Sidecar) -> Result<BodyReader<R>, BodyError> {
        let mut head = [0u8; OBJECT_HEADER_LEN];
        inp.read_exact(&mut head)?;
        let raw_len = u64::from_le_bytes(head[6..].try_into().expect("8-byte field"));
        let payload_left = side
            .stored_bytes
            .checked_sub(OBJECT_HEADER_LEN as u64)
            .ok_or(BodyError::Corrupt("object shorter than its header"))?;
        if head[..4] != OBJECT_MAGIC || head[4] != OBJECT_VERSION {
            return Err(BodyError::Corrupt("bad object magic or version"));
        }
        if head[5] != side.compression || raw_len != side.trace_bytes {
            return Err(BodyError::Corrupt("object header disagrees with its manifest"));
        }
        if raw_len > MAX_OBJECT_RAW_LEN {
            return Err(BodyError::Corrupt("implausible raw length"));
        }
        let lz = match head[5] {
            COMPRESS_NONE if payload_left == raw_len => None,
            COMPRESS_LZ => Some(lz::Decompressor::new(raw_len as usize)),
            _ => return Err(BodyError::Corrupt("bad compression or payload length")),
        };
        // The window never outgrows its history, three chunks of dead
        // output and one fresh chunk (see `fill_chunk`).
        let window = if lz.is_some() { lz::MAX_OFFSET + 4 * BODY_BLOCK } else { BODY_BLOCK };
        Ok(BodyReader {
            inp,
            payload_left,
            block: Vec::with_capacity(BODY_BLOCK),
            at: 0,
            lz,
            window: Vec::with_capacity(window),
            unread: 0,
            sha: Sha256::new(),
            stored_read: OBJECT_HEADER_LEN as u64,
            failed: false,
        })
    }

    /// Object bytes read so far (header included): the stored form,
    /// whether or not it is compressed.
    #[must_use]
    pub fn stored_read(&self) -> u64 {
        self.stored_read
    }

    /// Decode the next chunk into `window[unread..]`, hashing it. Leaves
    /// nothing unread only at the end of the payload.
    fn fill(&mut self) -> Result<(), BodyError> {
        if self.failed {
            return Err(BodyError::Corrupt("read after a failed read"));
        }
        let r = self.fill_chunk();
        if r.is_err() {
            // Whatever the failed call decoded is neither hashed nor
            // handed out.
            self.failed = true;
            self.window.truncate(self.unread);
        }
        r
    }

    fn fill_chunk(&mut self) -> Result<(), BodyError> {
        // Output already handed out is dropped, except the LZ
        // back-reference history; that trim waits for three chunks of
        // dead output, so each byte is moved at most once.
        let (keep, slack) =
            if self.lz.is_some() { (lz::MAX_OFFSET, 3 * BODY_BLOCK) } else { (0, 0) };
        if self.window.len() >= keep + slack {
            self.window.drain(..self.window.len() - keep);
        }
        self.unread = self.window.len();
        loop {
            if self.at == self.block.len() {
                if self.payload_left == 0 {
                    return Ok(());
                }
                let n = self.payload_left.min(BODY_BLOCK as u64) as usize;
                self.block.resize(n, 0);
                self.inp.read_exact(&mut self.block)?;
                self.payload_left -= n as u64;
                self.stored_read += n as u64;
                self.at = 0;
            }
            match &mut self.lz {
                None => {
                    // Stored raw: the block is the chunk (the window was
                    // emptied above and becomes the next block buffer).
                    std::mem::swap(&mut self.window, &mut self.block);
                    self.at = 0;
                }
                Some(d) => {
                    let used = d
                        .decode(&self.block[self.at..], &mut self.window, BODY_BLOCK)
                        .map_err(BodyError::Lz)?;
                    self.at += used;
                }
            }
            if self.window.len() > self.unread {
                self.sha.update(&self.window[self.unread..]);
                return Ok(());
            }
        }
    }

    /// Verify the body after its consumer stopped: the rest of the
    /// payload must decode to nothing more — a byte the consumer did not
    /// read lies past its end — and the whole body must be exactly the
    /// manifest's raw length and hash to `cid`.
    ///
    /// # Errors
    ///
    /// Any read, decode, length, trailing-byte or hash failure.
    pub fn finish(&mut self, cid: &[u8; 32]) -> Result<(), BodyError> {
        if self.unread == self.window.len() {
            self.fill()?;
        }
        if self.unread < self.window.len() {
            self.failed = true;
            return Err(BodyError::Corrupt("raw bytes after the end of the trace"));
        }
        if let Some(d) = &self.lz {
            d.finish().map_err(BodyError::Lz)?;
        }
        if std::mem::take(&mut self.sha).finalize() != *cid {
            return Err(BodyError::HashMismatch);
        }
        Ok(())
    }
}

impl<R: Read> Read for BodyReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.unread == self.window.len() {
            self.fill()?;
        }
        let n = buf.len().min(self.window.len() - self.unread);
        buf[..n].copy_from_slice(&self.window[self.unread..self.unread + n]);
        self.unread += n;
        Ok(n)
    }
}

// ---------------------------------------------------------------------------
// Sidecar (manifest payload)
// ---------------------------------------------------------------------------

/// Sidecar magic.
const META_MAGIC: [u8; 4] = *b"CKMT";
/// Sidecar format version. v2 added the BBV fields of [`VmStats`]; v3
/// added the content-store location fields (`cid`, `compression`,
/// `stored_bytes`) when sidecars became manifest payloads; v4 added
/// region-tier fields of [`VmStats`] that v5 dropped again with the
/// tier (decode leaves them at 0).
const META_VERSION: u8 = 5;

/// Everything a [`crate::runner::RunOutput`] needs besides the µop trace
/// itself, plus the trace body's location in the content store. Stored as
/// a small self-describing binary file (the workspace's JSON layer is
/// write-only, so JSON is not an option here).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sidecar {
    /// Canonical cache key (collision guard).
    pub key: String,
    /// [`checkelide_isa::CounterSink::snapshot`] words.
    pub counters: [u64; 21],
    /// Figure 3 classification row.
    pub fig3: Fig3Row,
    /// Class Cache statistics.
    pub class_cache: ClassCacheStats,
    /// VM statistics.
    pub vm_stats: VmStats,
    /// Object allocation statistics.
    pub obj_stats: ObjectStats,
    /// Hidden classes created over the whole run.
    pub hidden_classes: u64,
    /// Measured-iteration µop count (must equal both the counters total
    /// and the trace length).
    pub uops: u64,
    /// Raw encoded size of the trace body (pre-compression).
    pub trace_bytes: u64,
    /// Benchmark checksum string.
    pub checksum: String,
    /// SHA-256 of the raw encoded trace body (the object address).
    pub cid: [u8; 32],
    /// Object payload encoding ([`COMPRESS_NONE`] / [`COMPRESS_LZ`]).
    pub compression: u8,
    /// On-disk object file size (header + possibly-compressed payload).
    pub stored_bytes: u64,
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

struct MetaCur<'a>(&'a [u8]);

impl MetaCur<'_> {
    fn take(&mut self, n: usize) -> Option<&[u8]> {
        if self.0.len() < n {
            return None;
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Some(head)
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }

    fn str(&mut self) -> Option<String> {
        let len = u32::from_le_bytes(self.take(4)?.try_into().ok()?) as usize;
        if len > 1 << 20 {
            return None;
        }
        String::from_utf8(self.take(len)?.to_vec()).ok()
    }
}

impl Sidecar {
    /// Serialize to the binary sidecar image.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(512);
        out.extend_from_slice(&META_MAGIC);
        out.push(META_VERSION);
        put_str(&mut out, &self.key);
        put_str(&mut out, &self.checksum);
        for w in self.counters {
            put_u64(&mut out, w);
        }
        for f in [
            self.fig3.mono_properties,
            self.fig3.mono_elements,
            self.fig3.poly_properties,
            self.fig3.poly_elements,
        ] {
            put_u64(&mut out, f.to_bits());
        }
        for w in [
            self.class_cache.accesses,
            self.class_cache.hits,
            self.class_cache.misses,
            self.class_cache.evictions,
        ] {
            put_u64(&mut out, w);
        }
        let v = &self.vm_stats;
        for w in [
            v.calls,
            v.opt_entries,
            v.deopts,
            v.misspec_exceptions,
            v.ic_hits,
            v.ic_misses,
            v.gc_runs,
            v.line0_accesses,
            v.linen_accesses,
            v.bbv_versions,
            v.bbv_cap_fallbacks,
        ] {
            put_u64(&mut out, w);
        }
        let o = &self.obj_stats;
        for w in [o.objects, o.multi_line_objects, o.object_words, o.extra_header_words] {
            put_u64(&mut out, w);
        }
        put_u64(&mut out, self.hidden_classes);
        put_u64(&mut out, self.uops);
        put_u64(&mut out, self.trace_bytes);
        out.extend_from_slice(&self.cid);
        out.push(self.compression);
        put_u64(&mut out, self.stored_bytes);
        out
    }

    /// Parse a binary sidecar image. `None` on any structural problem.
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Option<Sidecar> {
        let mut c = MetaCur(bytes);
        if c.take(4)? != META_MAGIC {
            return None;
        }
        if *c.take(1)?.first()? != META_VERSION {
            return None;
        }
        let key = c.str()?;
        let checksum = c.str()?;
        let mut counters = [0u64; 21];
        for w in &mut counters {
            *w = c.u64()?;
        }
        let fig3 = Fig3Row {
            mono_properties: c.f64()?,
            mono_elements: c.f64()?,
            poly_properties: c.f64()?,
            poly_elements: c.f64()?,
        };
        let class_cache = ClassCacheStats {
            accesses: c.u64()?,
            hits: c.u64()?,
            misses: c.u64()?,
            evictions: c.u64()?,
        };
        let vm_stats = VmStats {
            calls: c.u64()?,
            opt_entries: c.u64()?,
            deopts: c.u64()?,
            misspec_exceptions: c.u64()?,
            ic_hits: c.u64()?,
            ic_misses: c.u64()?,
            gc_runs: c.u64()?,
            line0_accesses: c.u64()?,
            linen_accesses: c.u64()?,
            bbv_versions: c.u64()?,
            bbv_cap_fallbacks: c.u64()?,
            ..VmStats::default()
        };
        let obj_stats = ObjectStats {
            objects: c.u64()?,
            multi_line_objects: c.u64()?,
            object_words: c.u64()?,
            extra_header_words: c.u64()?,
        };
        let hidden_classes = c.u64()?;
        let uops = c.u64()?;
        let trace_bytes = c.u64()?;
        let cid: [u8; 32] = c.take(32)?.try_into().ok()?;
        let compression = *c.take(1)?.first()?;
        let stored_bytes = c.u64()?;
        if !c.0.is_empty() {
            return None;
        }
        Some(Sidecar {
            key,
            counters,
            fig3,
            class_cache,
            vm_stats,
            obj_stats,
            hidden_classes,
            uops,
            trace_bytes,
            checksum,
            cid,
            compression,
            stored_bytes,
        })
    }

    /// Read + parse a sidecar file, returning the image size too.
    #[must_use]
    pub fn load(path: &Path) -> Option<(Sidecar, u64)> {
        let bytes = fs::read(path).ok()?;
        Some((Sidecar::decode(&bytes)?, bytes.len() as u64))
    }
}

// ---------------------------------------------------------------------------
// TraceStore
// ---------------------------------------------------------------------------

/// Outcome of one [`TraceStore::put`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PutOutcome {
    /// The object body already existed (identical trace under another
    /// key); only the manifest was written.
    pub deduped: bool,
    /// On-disk object size (header + payload).
    pub stored_bytes: u64,
}

/// Totals for a [`TraceStore::gc`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Manifests dropped for a key suffix other than the current one.
    pub stale_entries: u64,
    /// Manifests dropped by the LRU size bound.
    pub lru_entries: u64,
    /// Objects no surviving manifest references.
    pub orphan_objects: u64,
    /// Sim objects dropped for another sim fingerprint or corruption.
    pub stale_sims: u64,
    /// Sim objects whose trace CID no surviving manifest references.
    pub orphan_sims: u64,
    /// Bytes freed (tmp debris, manifests, objects and sim objects).
    pub bytes_freed: u64,
    /// Manifests kept.
    pub entries_kept: u64,
    /// Bytes kept (manifests + referenced objects + sim objects).
    pub bytes_kept: u64,
}

/// The content-addressed trace store. Thread-safe: share by reference.
#[derive(Debug)]
pub struct TraceStore {
    root: PathBuf,
    compress: bool,
}

impl TraceStore {
    /// Open a store rooted at `root`, creating its directories if
    /// needed. Nothing in the store is read or deleted.
    ///
    /// # Errors
    ///
    /// Directory creation failure.
    pub fn open(root: impl Into<PathBuf>, compress: bool) -> io::Result<TraceStore> {
        let root = root.into();
        fs::create_dir_all(root.join("manifest"))?;
        fs::create_dir_all(root.join("objects"))?;
        fs::create_dir_all(root.join("sim"))?;
        Ok(TraceStore { root, compress })
    }

    /// Store root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Whether new objects are LZ-compressed.
    #[must_use]
    pub fn compress(&self) -> bool {
        self.compress
    }

    /// Manifest file stem for a key: a readable benchmark prefix plus the
    /// FNV-1a 64 hash of the whole key (the full key inside the manifest
    /// guards against hash collisions).
    #[must_use]
    pub fn stem(key: &str) -> String {
        let bench: String = key
            .split('|')
            .next()
            .unwrap_or("")
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '-' { c } else { '_' })
            .collect();
        format!("{bench}-{:016x}", fnv1a64(key.as_bytes()))
    }

    /// Path of the manifest file for `key`.
    #[must_use]
    pub fn manifest_path(&self, key: &str) -> PathBuf {
        self.root.join("manifest").join(format!("{}.m", TraceStore::stem(key)))
    }

    /// Path of the object file for `cid` (`objects/<ab>/<cid>`).
    #[must_use]
    pub fn object_path(&self, cid: &[u8; 32]) -> PathBuf {
        let hex = cid_hex(cid);
        self.root.join("objects").join(&hex[..2]).join(hex)
    }

    /// Path of the sim-object file for `(cid, fingerprint)`
    /// (`sim/<ab>/<cid>-<fp16>.s`). Sim objects are keyed purely by trace
    /// *content*, not by logical key: every cell that dedups to one trace
    /// CID shares one memoized simulation.
    #[must_use]
    pub fn sim_path(&self, cid: &[u8; 32], fingerprint: u64) -> PathBuf {
        let hex = cid_hex(cid);
        self.root
            .join("sim")
            .join(&hex[..2])
            .join(format!("{hex}-{fingerprint:016x}.s"))
    }

    /// Load + validate the memoized [`SimObject`] for `(cid, fingerprint)`.
    /// Any failure is a miss; corruption or a file whose content
    /// disagrees with its name evicts the file so the caller re-simulates
    /// and republishes.
    #[must_use]
    pub fn sim_get(&self, cid: &[u8; 32], fingerprint: u64) -> Option<SimObject> {
        let path = self.sim_path(cid, fingerprint);
        let bytes = fs::read(&path).ok()?;
        match SimObject::decode(&bytes) {
            Some(obj) if obj.trace_cid == *cid && obj.fingerprint == fingerprint => Some(obj),
            _ => {
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    /// Publish a memoized simulation result (atomic tmp + rename). A
    /// correctly-sized file already on disk is left alone — sim objects
    /// are a pure function of their key, so identical publishes race
    /// benignly.
    ///
    /// # Errors
    ///
    /// Shard-directory creation or file write failure.
    pub fn sim_put(&self, obj: &SimObject) -> io::Result<()> {
        let path = self.sim_path(&obj.trace_cid, obj.fingerprint);
        if fs::metadata(&path).is_ok_and(|m| m.len() == SIM_OBJECT_LEN as u64) {
            return Ok(());
        }
        if let Some(shard) = path.parent() {
            fs::create_dir_all(shard)?;
        }
        TraceStore::publish(&path, &obj.encode())
    }

    fn publish(base: &Path, bytes: &[u8]) -> io::Result<()> {
        let (tmp, mut f) = TmpFile::create(base)?;
        f.write_all(bytes)?;
        drop(f);
        tmp.persist(base)
    }

    /// Load + validate the manifest for `key` without touching the object
    /// body beyond an existence/size check (and refresh its LRU mtime).
    /// Any failure is a miss; corruption (size-mismatched object) evicts
    /// the entry.
    #[must_use]
    pub fn stat(&self, key: &str) -> Option<Sidecar> {
        let mpath = self.manifest_path(key);
        let bytes = fs::read(&mpath).ok()?;
        let Some(side) = Sidecar::decode(&bytes) else {
            // Corrupt manifest: reclaim it.
            let _ = fs::remove_file(&mpath);
            return None;
        };
        if side.key != key {
            // Hash collision or stale file: the entry legitimately belongs
            // to another key — a miss, but do NOT evict it.
            return None;
        }
        // The manifest records the exact on-disk object size; validate the
        // body before reporting a hit so a truncated or deleted object can
        // never serve stale statistics through the untimed path.
        match fs::metadata(self.object_path(&side.cid)) {
            Ok(m) if m.len() == side.stored_bytes => {
                // Refresh the manifest mtime so the GC's LRU bound tracks
                // use, not publish age.
                let _ = File::options()
                    .write(true)
                    .open(&mpath)
                    .and_then(|f| f.set_modified(SystemTime::now()));
                Some(side)
            }
            Ok(_) => {
                // Wrong size: the object is corrupt for every key that
                // references it.
                self.evict_entry(key, Some(&side.cid));
                None
            }
            Err(_) => {
                // Missing body: reclaim the dangling manifest only.
                self.evict_entry(key, None);
                None
            }
        }
    }

    /// Open the object body `side` locates for one streamed read,
    /// verified at its end ([`BodyReader::finish`]). The file must have
    /// the manifest's recorded size.
    ///
    /// # Errors
    ///
    /// A missing or unreadable file, or one whose size or header
    /// disagrees with `side`.
    pub fn open_body(&self, side: &Sidecar) -> Result<BodyReader, BodyError> {
        let file = File::open(self.object_path(&side.cid))?;
        if file.metadata()?.len() != side.stored_bytes {
            return Err(BodyError::Corrupt("object size disagrees with its manifest"));
        }
        BodyReader::new(file, side)
    }

    /// Drop an entry's manifest (and, when `cid` is given, its object).
    pub fn evict_entry(&self, key: &str, cid: Option<&[u8; 32]>) {
        let _ = fs::remove_file(self.manifest_path(key));
        if let Some(cid) = cid {
            let _ = fs::remove_file(self.object_path(cid));
        }
    }

    /// A writer that streams one recording into an object file in this
    /// store's root, LZ-compressed unless compression is off; publish
    /// what it finishes with [`TraceStore::put_object`].
    ///
    /// # Errors
    ///
    /// The tmp file cannot be created.
    pub fn object_writer(&self) -> io::Result<ObjectWriter> {
        ObjectWriter::create(&self.root, self.compress)
    }

    /// Publish a raw trace body under `key`: stream it through an
    /// [`ObjectWriter`], then [`TraceStore::put_object`].
    ///
    /// # Errors
    ///
    /// Object or manifest write failure (the store is left consistent).
    pub fn put(&self, key: &str, side: &mut Sidecar, raw: &[u8]) -> io::Result<PutOutcome> {
        let mut w = self.object_writer()?;
        w.write_all(raw)?;
        side.key = key.to_string();
        self.put_object(side, w.finish()?)
    }

    /// Publish a finished object under `side.key`. Fills the
    /// store-location fields of `side` (`cid`, `compression`,
    /// `stored_bytes`, `trace_bytes`), renames the object file into
    /// place (or drops it when an identical trace is already stored —
    /// the dedup path), then writes the manifest through tmp + rename.
    ///
    /// # Errors
    ///
    /// Object or manifest write failure (the store is left consistent).
    pub fn put_object(&self, side: &mut Sidecar, object: ObjectImage) -> io::Result<PutOutcome> {
        object.locate(side);
        self.put_with(side, object.stored_len, |opath| object.file.persist(opath))
    }

    /// Publish with an object image held in memory whose location fields
    /// `side` already carries.
    ///
    /// # Errors
    ///
    /// Object or manifest write failure.
    pub fn put_prepared(&self, side: &Sidecar, image: &[u8]) -> io::Result<PutOutcome> {
        self.put_with(side, image.len() as u64, |opath| TraceStore::publish(opath, image))
    }

    /// The publish order behind every put: the object first — `place`
    /// writes it at the path it is given, skipped when an object of
    /// `stored_len` bytes is already there — then the manifest.
    fn put_with(
        &self,
        side: &Sidecar,
        stored_len: u64,
        place: impl FnOnce(&Path) -> io::Result<()>,
    ) -> io::Result<PutOutcome> {
        let opath = self.object_path(&side.cid);
        let deduped = fs::metadata(&opath).is_ok_and(|m| m.len() == stored_len);
        if !deduped {
            if let Some(shard) = opath.parent() {
                fs::create_dir_all(shard)?;
            }
            place(&opath)?;
        }
        TraceStore::publish(&self.manifest_path(&side.key), &side.encode())?;
        Ok(PutOutcome { deduped, stored_bytes: stored_len })
    }

    /// Enumerate all valid manifests: `(path, sidecar, file_size, mtime)`.
    pub fn manifests(&self) -> Vec<(PathBuf, Sidecar, u64, SystemTime)> {
        let mut out = Vec::new();
        let Ok(dir) = fs::read_dir(self.root.join("manifest")) else { return out };
        for entry in dir.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("m") {
                continue;
            }
            let Ok(bytes) = fs::read(&path) else { continue };
            let Some(side) = Sidecar::decode(&bytes) else { continue };
            let mtime = entry
                .metadata()
                .and_then(|m| m.modified())
                .unwrap_or(SystemTime::UNIX_EPOCH);
            out.push((path, side, bytes.len() as u64, mtime));
        }
        out
    }

    /// Sim-cache summary: `(sim_objects, sim_object_bytes)`.
    #[must_use]
    pub fn sim_summary(&self) -> (u64, u64) {
        count_files(&shard_files(&self.root.join("sim")), |n| parse_sim_name(n).is_some())
    }

    /// Store-wide summary: `(entries, objects, object_bytes, raw_bytes)`.
    #[must_use]
    pub fn summary(&self) -> (u64, u64, u64, u64) {
        let manifests = self.manifests();
        let raw: u64 = manifests.iter().map(|(_, s, _, _)| s.trace_bytes).sum();
        let (objects, obytes) =
            count_files(&shard_files(&self.root.join("objects")), |n| parse_cid(n).is_some());
        (manifests.len() as u64, objects, obytes, raw)
    }

    /// Garbage-collect the store, the one pass that deletes files: remove
    /// `*.tmp.*` debris of crashed writers, drop manifests whose key does
    /// not end with `keep_suffix` (the current source fingerprint and
    /// codec version, so any µop-shaping source edit reclaims every old
    /// entry), drop sim objects that are corrupt or stored under a
    /// fingerprint other than `sim_fp`, bound total size to `max_bytes`
    /// evicting least-recently-used manifests first (mtime; refreshed on
    /// every hit; a manifest's cost includes its object *and* sim bytes),
    /// and remove objects and sim objects no surviving manifest
    /// references. Run it while no other process writes the store: a tmp
    /// file being written looks like debris.
    pub fn gc(&self, keep_suffix: &str, sim_fp: u64, max_bytes: Option<u64>) -> GcStats {
        let mut stats = GcStats::default();
        let objects = shard_files(&self.root.join("objects"));
        let sims = shard_files(&self.root.join("sim"));
        let loose = [files_in(&self.root), files_in(&self.root.join("manifest"))];
        for (path, name, size) in loose.iter().flatten().chain(&objects).chain(&sims) {
            if name.contains(".tmp.") {
                stats.free(path, *size);
            }
        }
        let mut survivors = Vec::new();
        for (path, side, size, mtime) in self.manifests() {
            if side.key.ends_with(keep_suffix) {
                survivors.push((path, side, size, mtime));
            } else {
                stats.stale_entries += 1;
                stats.free(&path, size);
            }
        }
        // Validate sim objects up front: files under another fingerprint
        // and corrupt ones go now; valid ones are charged to their trace
        // CID so the LRU bound accounts for the whole footprint of keeping
        // an entry warm.
        let mut live_sims = Vec::new();
        let mut sim_by_cid: std::collections::HashMap<[u8; 32], u64> =
            std::collections::HashMap::new();
        for (path, name, size) in sims {
            let Some((cid, fp)) = parse_sim_name(&name) else { continue };
            let valid = fp == sim_fp
                && fs::read(&path)
                    .ok()
                    .and_then(|b| SimObject::decode(&b))
                    .is_some_and(|o| o.trace_cid == cid && o.fingerprint == fp);
            if valid {
                *sim_by_cid.entry(cid).or_default() += size;
                live_sims.push((path, cid, size));
            } else {
                stats.stale_sims += 1;
                stats.free(&path, size);
            }
        }
        if let Some(cap) = max_bytes {
            // Newest first; charge each object (and its sim objects) the
            // first time its CID appears so shared bodies are not
            // double-counted.
            survivors.sort_by(|a, b| b.3.cmp(&a.3).then_with(|| a.0.cmp(&b.0)));
            let mut kept_cids = std::collections::HashSet::new();
            let mut used = 0u64;
            let mut kept = Vec::new();
            for (path, side, size, mtime) in survivors {
                let mut cost = size;
                if !kept_cids.contains(&side.cid) {
                    cost += side.stored_bytes;
                    cost += sim_by_cid.get(&side.cid).copied().unwrap_or(0);
                }
                if used + cost <= cap {
                    used += cost;
                    kept_cids.insert(side.cid);
                    kept.push((path, side, size, mtime));
                } else {
                    stats.lru_entries += 1;
                    stats.free(&path, size);
                }
            }
            survivors = kept;
        }
        let referenced: std::collections::HashSet<[u8; 32]> =
            survivors.iter().map(|(_, s, _, _)| s.cid).collect();
        let mut object_bytes_kept = 0u64;
        for (path, name, size) in objects {
            let Some(cid) = parse_cid(&name) else { continue };
            if referenced.contains(&cid) {
                object_bytes_kept += size;
            } else {
                stats.orphan_objects += 1;
                stats.free(&path, size);
            }
        }
        for (path, cid, size) in live_sims {
            if referenced.contains(&cid) {
                object_bytes_kept += size;
            } else {
                stats.orphan_sims += 1;
                stats.free(&path, size);
            }
        }
        stats.entries_kept = survivors.len() as u64;
        stats.bytes_kept =
            survivors.iter().map(|(_, _, n, _)| n).sum::<u64>() + object_bytes_kept;
        stats
    }
}

impl GcStats {
    /// Delete `path`, charging its `size` to `bytes_freed`.
    fn free(&mut self, path: &Path, size: u64) {
        self.bytes_freed += size;
        let _ = fs::remove_file(path);
    }
}

/// Every regular file directly in `dir`: `(path, name, size)`.
fn files_in(dir: &Path) -> Vec<(PathBuf, String, u64)> {
    let Ok(entries) = fs::read_dir(dir) else { return Vec::new() };
    entries
        .flatten()
        .filter_map(|entry| {
            let meta = entry.metadata().ok().filter(fs::Metadata::is_file)?;
            let name = entry.file_name().into_string().ok()?;
            Some((entry.path(), name, meta.len()))
        })
        .collect()
}

/// Every regular file in the shard directories of `dir` (`objects/` or
/// `sim/`), listed once.
fn shard_files(dir: &Path) -> Vec<(PathBuf, String, u64)> {
    let Ok(shards) = fs::read_dir(dir) else { return Vec::new() };
    shards.flatten().flat_map(|shard| files_in(&shard.path())).collect()
}

/// `(count, bytes)` of the `files` whose names `keep` accepts.
fn count_files(files: &[(PathBuf, String, u64)], keep: impl Fn(&str) -> bool) -> (u64, u64) {
    files
        .iter()
        .filter(|(_, name, _)| keep(name))
        .fold((0, 0), |(n, bytes), (_, _, size)| (n + 1, bytes + size))
}

fn parse_cid(name: &str) -> Option<[u8; 32]> {
    if name.len() != 64 {
        return None;
    }
    let mut cid = [0u8; 32];
    for (i, byte) in cid.iter_mut().enumerate() {
        *byte = u8::from_str_radix(name.get(2 * i..2 * i + 2)?, 16).ok()?;
    }
    Some(cid)
}

/// Parse a sim-object file name (`<cid64>-<fp16>.s`).
fn parse_sim_name(name: &str) -> Option<([u8; 32], u64)> {
    let stem = name.strip_suffix(".s")?;
    if stem.len() != 64 + 1 + 16 {
        return None;
    }
    let cid = parse_cid(stem.get(..64)?)?;
    if stem.as_bytes().get(64) != Some(&b'-') {
        return None;
    }
    let fp = u64::from_str_radix(stem.get(65..)?, 16).ok()?;
    Some((cid, fp))
}

pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_sidecar(key: &str) -> Sidecar {
        Sidecar {
            key: key.to_string(),
            counters: std::array::from_fn(|i| i as u64 * 3 + 1),
            fig3: Fig3Row {
                mono_properties: 61.25,
                mono_elements: 5.5,
                poly_properties: 30.0,
                poly_elements: 3.25,
            },
            class_cache: ClassCacheStats { accesses: 10, hits: 9, misses: 1, evictions: 0 },
            vm_stats: VmStats {
                calls: 1,
                opt_entries: 2,
                deopts: 3,
                misspec_exceptions: 4,
                ic_hits: 5,
                ic_misses: 6,
                gc_runs: 7,
                line0_accesses: 8,
                linen_accesses: 9,
                bbv_versions: 18,
                bbv_cap_fallbacks: 19,
                ..VmStats::default()
            },
            obj_stats: ObjectStats {
                objects: 11,
                multi_line_objects: 12,
                object_words: 13,
                extra_header_words: 14,
            },
            hidden_classes: 15,
            uops: 16,
            trace_bytes: 17,
            checksum: "42.5".into(),
            cid: [0u8; 32],
            compression: COMPRESS_NONE,
            stored_bytes: 0,
        }
    }

    fn temp_store(tag: &str) -> (PathBuf, TraceStore) {
        temp_store_with(tag, true)
    }

    fn temp_store_with(tag: &str, compress: bool) -> (PathBuf, TraceStore) {
        let dir = std::env::temp_dir()
            .join(format!("checkelide-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = TraceStore::open(&dir, compress).expect("open");
        (dir, store)
    }

    /// Every `*.tmp.*` file anywhere under `dir`.
    fn tmp_files(dir: &Path) -> Vec<PathBuf> {
        let mut out = Vec::new();
        for entry in fs::read_dir(dir).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                out.extend(tmp_files(&path));
            } else if path.to_string_lossy().contains(".tmp.") {
                out.push(path);
            }
        }
        out
    }

    /// Stream `raw` through an object writer in one write, and return
    /// the finished object file and a sidecar locating it.
    fn image(raw: &[u8], compress: bool) -> (Vec<u8>, Sidecar) {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let tag = format!("image-{}", SEQ.fetch_add(1, Ordering::Relaxed));
        let (dir, store) = temp_store_with(&tag, compress);
        let mut w = store.object_writer().expect("writer");
        w.write_all(raw).expect("write");
        let img = w.finish().expect("finish");
        let bytes = fs::read(img.path()).expect("object file");
        assert_eq!(bytes.len() as u64, img.stored_len);
        let mut side = sample_sidecar("k");
        img.locate(&mut side);
        drop(img);
        assert!(tmp_files(&dir).is_empty(), "an unpublished image removes its file");
        let _ = fs::remove_dir_all(&dir);
        (bytes, side)
    }

    /// The verified raw body of `key`'s entry, read the way the cache
    /// reads one: [`TraceStore::stat`], then [`TraceStore::open_body`]
    /// drained and finished.
    fn read_entry(store: &TraceStore, key: &str) -> Result<Vec<u8>, BodyError> {
        let side = store.stat(key).ok_or(BodyError::Corrupt("no entry"))?;
        let mut body = store.open_body(&side)?;
        let mut raw = Vec::new();
        body.read_to_end(&mut raw)?;
        body.finish(&side.cid)?;
        Ok(raw)
    }

    /// Drain an in-memory object image through a [`BodyReader`] in reads
    /// of `step` bytes, verified against `cid`.
    fn read_image(
        image: &[u8],
        side: &Sidecar,
        cid: &[u8; 32],
        step: usize,
    ) -> Result<Vec<u8>, BodyError> {
        let mut body = BodyReader::new(image, side)?;
        let (mut raw, mut buf) = (Vec::new(), vec![0u8; step]);
        loop {
            let n = body.read(&mut buf)?;
            if n == 0 {
                break;
            }
            raw.extend_from_slice(&buf[..n]);
        }
        body.finish(cid)?;
        assert_eq!(body.stored_read(), image.len() as u64, "whole object read");
        Ok(raw)
    }

    #[test]
    fn object_image_round_trips_and_verifies() {
        let raw = b"abcdabcdabcdabcd-trailer".repeat(50);
        let (bytes, side) = image(&raw, true);
        assert_eq!(side.compression, COMPRESS_LZ);
        assert!(bytes.len() < raw.len(), "repetitive payload should shrink");
        assert_eq!(read_image(&bytes, &side, &side.cid, 7).expect("verifies"), raw);
        // Wrong CID is rejected.
        let mut wrong = side.cid;
        wrong[0] ^= 1;
        assert!(matches!(
            read_image(&bytes, &side, &wrong, 7),
            Err(BodyError::HashMismatch)
        ));
        // Corruption at every byte is rejected or detected by the hash.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(read_image(&bad, &side, &side.cid, 7).is_err(), "flip at {i} accepted");
        }
        for len in 0..bytes.len() {
            assert!(read_image(&bytes[..len], &side, &side.cid, 7).is_err());
        }
        // Incompressible payloads are stored raw.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let noise: Vec<u8> = (0..4096)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect();
        let (bytes, side) = image(&noise, true);
        assert_eq!(side.compression, COMPRESS_NONE);
        assert_eq!(read_image(&bytes, &side, &side.cid, 100).expect("verifies"), noise);
    }

    #[test]
    fn body_reader_streams_multi_block_bodies_in_any_read_size() {
        // Several blocks, long matches and a literal-heavy tail, stored
        // both compressed and raw.
        let mut raw = b"frame 0123 | pc +4 | tok +1 | addr +8 ".repeat(9_000);
        let mut state = 0x2545_f491_4f6c_dd1du64;
        raw.extend((0..3 * BODY_BLOCK).map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 5) as u8
        }));
        for compress in [true, false] {
            let (bytes, side) = image(&raw, compress);
            for step in [1, 1000, BODY_BLOCK + 1, 1 << 20] {
                assert_eq!(
                    read_image(&bytes, &side, &side.cid, step).expect("verifies"),
                    raw,
                    "compress {compress}, reads of {step}"
                );
            }
        }
    }

    #[test]
    fn body_reader_rejects_manifest_disagreement_and_unread_bytes() {
        let raw = b"trace body trace body trace body ".repeat(40);
        let (bytes, side) = image(&raw, true);
        let header = |side: &Sidecar| BodyReader::new(&bytes[..], side).map(|_| ());
        for edit in [
            |s: &mut Sidecar| s.trace_bytes += 1,
            |s: &mut Sidecar| s.compression = COMPRESS_NONE,
            |s: &mut Sidecar| s.stored_bytes = 3,
        ] {
            let mut bad = side.clone();
            edit(&mut bad);
            assert!(matches!(header(&bad), Err(BodyError::Corrupt(_))), "{bad:?}");
        }
        // A consumer that stops one byte short leaves a trailing byte.
        let mut body = BodyReader::new(&bytes[..], &side).expect("header");
        let mut head = vec![0u8; raw.len() - 1];
        body.read_exact(&mut head).expect("reads");
        assert!(matches!(body.finish(&side.cid), Err(BodyError::Corrupt(_))));
        // A failed read poisons the reader: nothing unverified leaks out.
        let mut bad = bytes.clone();
        bad[OBJECT_HEADER_LEN] ^= 0xff;
        let mut body = BodyReader::new(&bad[..], &side).expect("header");
        let mut sink = Vec::new();
        if body.read_to_end(&mut sink).is_ok() {
            assert!(body.finish(&side.cid).is_err(), "corrupt body verified");
        } else {
            assert!(body.read(&mut [0u8; 16]).is_err(), "read after a failure");
            assert!(body.finish(&side.cid).is_err());
        }
    }

    /// The object image as the one-shot builder assembled it: hash, then
    /// the LZ payload when it is smaller, else the raw one, behind the
    /// header.
    fn reference_image(raw: &[u8], compress: bool) -> (u8, Vec<u8>) {
        let packed = lz::compress(raw);
        let (compression, payload) = if compress && packed.len() < raw.len() {
            (COMPRESS_LZ, packed)
        } else {
            (COMPRESS_NONE, raw.to_vec())
        };
        let mut bytes = OBJECT_MAGIC.to_vec();
        bytes.push(OBJECT_VERSION);
        bytes.push(compression);
        bytes.extend_from_slice(&(raw.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&payload);
        (compression, bytes)
    }

    #[test]
    fn object_writer_matches_the_one_shot_image_at_any_split() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let noise: Vec<u8> = (0..70_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        let compressible = b"frame 0123 | pc +4 | tok +1 | addr +8 ".repeat(4_000);
        let cases: [(&str, &[u8], bool, u8); 6] = [
            ("compressible", &compressible, true, COMPRESS_LZ),
            ("noise", &noise, true, COMPRESS_NONE),
            ("compression off", &compressible, false, COMPRESS_NONE),
            ("noise, compression off", &noise, false, COMPRESS_NONE),
            ("empty", b"", true, COMPRESS_NONE),
            ("tiny", b"abc", true, COMPRESS_NONE),
        ];
        for (i, (name, raw, compress, want_compression)) in cases.into_iter().enumerate() {
            let (compression, want) = reference_image(raw, compress);
            assert_eq!(compression, want_compression, "{name}");
            let (dir, store) = temp_store_with(&format!("split-{i}"), compress);
            for cuts in [raw.len().max(1), 1, 13, 1_500, 65_536] {
                let mut w = store.object_writer().expect("writer");
                for chunk in raw.chunks(cuts) {
                    w.write_all(chunk).expect("write");
                }
                let img = w.finish().expect("finish");
                let bytes = fs::read(img.path()).expect("object file");
                assert_eq!(bytes, want, "{name}, writes of {cuts}");
                assert_eq!(img.compression, compression, "{name}");
                assert_eq!(img.raw_len, raw.len() as u64, "{name}");
                assert_eq!(img.stored_len, want.len() as u64, "{name}");
                assert_eq!(img.cid, sha256(raw), "{name}");
                assert_eq!(tmp_files(&dir), [img.path()], "{name}: one file per finished object");
            }
            assert!(tmp_files(&dir).is_empty(), "{name}: dropped images leave no file");
            let mut side = sample_sidecar("");
            store.put("k|e1|c1", &mut side, raw).expect("put");
            let stored = fs::read(store.object_path(&side.cid)).expect("object");
            assert_eq!((stored, side.cid), (want, sha256(raw)), "{name}, put");
            assert!(tmp_files(&dir).is_empty(), "{name}: put leaves no tmp file");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn unfinished_and_deduplicated_objects_leave_no_tmp_file() {
        for compress in [true, false] {
            let (dir, store) = temp_store_with(&format!("tmp-{compress}"), compress);
            let raw = b"frame 0123 | pc +4 | tok +1 | addr +8 ".repeat(9_000);
            // A recording dropped before `finish` (a failed or panicking
            // cell) removes its file.
            let mut w = store.object_writer().expect("writer");
            w.write_all(&raw).expect("write");
            assert_eq!(tmp_files(&dir).len(), 1, "the recording streams to a tmp file");
            drop(w);
            assert!(tmp_files(&dir).is_empty(), "compress {compress}: dropped writer");
            let panicked = std::panic::catch_unwind(|| {
                let mut w = store.object_writer().expect("writer");
                w.write_all(&raw).expect("write");
                panic!("a cell panics mid-recording");
            });
            assert!(panicked.is_err());
            assert!(tmp_files(&dir).is_empty(), "compress {compress}: panic mid-recording");
            // A second put of the same body dedups: its file is removed.
            let mut side = sample_sidecar("");
            assert!(!store.put("a|e1|c1", &mut side, &raw).expect("put").deduped);
            assert!(store.put("b|e1|c1", &mut side, &raw).expect("put").deduped);
            assert!(tmp_files(&dir).is_empty(), "compress {compress}: dedup");
            assert_eq!(store.summary().1, 1, "one object");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn sidecar_round_trips() {
        let mut s = sample_sidecar("k|s4|profile|opttrue|it10|cc128x2|e0.1.0+rev1|c1");
        s.cid = sha256(b"body");
        s.compression = COMPRESS_LZ;
        s.stored_bytes = 99;
        let bytes = s.encode();
        assert_eq!(Sidecar::decode(&bytes).expect("decodes"), s);
    }

    #[test]
    fn sidecar_rejects_corruption() {
        let bytes = sample_sidecar("k").encode();
        for len in 0..bytes.len() {
            assert!(Sidecar::decode(&bytes[..len]).is_none(), "prefix {len} decoded");
        }
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(Sidecar::decode(&bad).is_none());
        let mut long = bytes;
        long.push(0);
        assert!(Sidecar::decode(&long).is_none(), "trailing bytes accepted");
    }

    #[test]
    fn put_get_stat_round_trip_with_dedup() {
        let (dir, store) = temp_store("roundtrip");
        let raw = b"trace-body trace-body trace-body".repeat(30);
        let mut side = sample_sidecar("");
        let out = store.put("key-a|e1|c1", &mut side, &raw).expect("put");
        assert!(!out.deduped);
        assert_eq!(side.trace_bytes, raw.len() as u64);
        assert_eq!(side.cid, sha256(&raw));

        let got = store.stat("key-a|e1|c1").expect("stat hit");
        assert_eq!(got, side);
        assert_eq!(read_entry(&store, "key-a|e1|c1").expect("body reads"), raw);
        assert!(store.stat("key-missing").is_none());

        // Identical trace under a second key: manifest only, one object.
        let mut side2 = sample_sidecar("");
        let out2 = store.put("key-b|e1|c1", &mut side2, &raw).expect("put");
        assert!(out2.deduped, "identical body must dedup");
        assert_eq!(side2.cid, side.cid);
        let (entries, objects, _, _) = store.summary();
        assert_eq!((entries, objects), (2, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_or_missing_object_evicts_and_misses() {
        let (dir, store) = temp_store("corrupt");
        let raw = vec![7u8; 500];
        let mut side = sample_sidecar("");
        store.put("k|e1|c1", &mut side, &raw).expect("put");
        let opath = store.object_path(&side.cid);

        // Truncated object: stat's size check evicts manifest + object.
        let image = fs::read(&opath).expect("object exists");
        fs::write(&opath, &image[..image.len() - 1]).expect("truncate");
        assert!(store.stat("k|e1|c1").is_none(), "size mismatch must miss");
        assert!(!opath.exists(), "corrupt object evicted");
        assert!(!store.manifest_path("k|e1|c1").exists(), "manifest evicted");

        // Right size, flipped payload byte: the size check passes, the
        // streamed read fails.
        store.put("k|e1|c1", &mut side, &raw).expect("re-put");
        let mut image = fs::read(&opath).expect("object exists");
        let last = image.len() - 1;
        image[last] ^= 0xff;
        fs::write(&opath, &image).expect("corrupt");
        assert!(store.stat("k|e1|c1").is_some(), "same size: the manifest still hits");
        assert!(read_entry(&store, "k|e1|c1").is_err(), "hash mismatch must fail the read");

        // Missing object: manifest reclaimed, nothing to evict.
        store.put("k|e1|c1", &mut side, &raw).expect("re-put");
        fs::remove_file(&opath).expect("remove object");
        assert!(store.stat("k|e1|c1").is_none(), "missing body must miss");
        assert!(!store.manifest_path("k|e1|c1").exists(), "dangling manifest reclaimed");

        // Corrupt manifest bytes: reclaimed.
        store.put("k|e1|c1", &mut side, &raw).expect("re-put");
        fs::write(store.manifest_path("k|e1|c1"), b"garbage").expect("corrupt manifest");
        assert!(store.stat("k|e1|c1").is_none());
        assert!(!store.manifest_path("k|e1|c1").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_keeps_tmp_files_and_unreferenced_objects_until_gc() {
        let (dir, store) = temp_store("sweep");
        let raw = vec![1u8; 100];
        let mut side = sample_sidecar("");
        store.put("live|e1|c1", &mut side, &raw).expect("put");

        // Crashed-run debris: tmp files at every level, and an object
        // whose manifest publish failed.
        let root_tmp = dir.join("object.tmp.123.0");
        let manifest_tmp = dir.join("manifest").join("a.m.tmp.123.1");
        fs::write(&root_tmp, b"x").expect("tmp");
        fs::write(&manifest_tmp, b"xy").expect("tmp");
        let mut orphan = sample_sidecar("");
        store.put("orphan|e1|c1", &mut orphan, b"orphan body").expect("put");
        fs::remove_file(store.manifest_path("orphan|e1|c1")).expect("drop its manifest");
        let opath = store.object_path(&orphan.cid);
        let shard_tmp = opath.with_file_name(format!("{}.tmp.9.9", cid_hex(&orphan.cid)));
        fs::write(&shard_tmp, b"xyz").expect("tmp");
        let debris = [&root_tmp, &manifest_tmp, &opath, &shard_tmp];

        // An open, which another process may make while this one
        // records, deletes nothing.
        let reopened = TraceStore::open(&dir, true).expect("reopen");
        assert!(debris.iter().all(|p| p.exists()), "open deleted a file");

        let freed: u64 = debris.iter().map(|p| fs::metadata(p).expect("debris").len()).sum();
        let stats = reopened.gc("|e1|c1", 7, None);
        assert!(debris.iter().all(|p| !p.exists()), "gc reclaims every piece of debris");
        assert_eq!(stats.orphan_objects, 1, "the unreferenced object");
        assert_eq!(stats.bytes_freed, freed, "debris bytes are charged to bytes_freed");
        assert_eq!(stats.entries_kept, 1);
        assert_eq!(read_entry(&reopened, "live|e1|c1").expect("live entry untouched"), raw);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_drops_stale_salt_and_bounds_size() {
        let (dir, store) = temp_store("gc");
        let raw_old = vec![9u8; 400];
        let raw_a = vec![1u8; 400];
        let raw_b = vec![2u8; 400];
        let raw_c = vec![3u8; 400];
        let mut side = sample_sidecar("");
        store.put("old|e0.0.9+rev1|c1", &mut side, &raw_old).expect("put stale");
        store.put("a|e1+rev2|c1", &mut side, &raw_a).expect("put");
        std::thread::sleep(std::time::Duration::from_millis(20));
        store.put("b|e1+rev2|c1", &mut side, &raw_b).expect("put");
        std::thread::sleep(std::time::Duration::from_millis(20));
        store.put("c|e1+rev2|c1", &mut side, &raw_c).expect("put");

        // Keep only current-salt entries, bounded so just the two most
        // recent (b, c) fit; a's object becomes unreferenced.
        let keep = store
            .manifests()
            .iter()
            .filter(|(_, s, _, _)| s.key.ends_with("|e1+rev2|c1") && s.key != "a|e1+rev2|c1")
            .map(|(_, s, n, _)| n + s.stored_bytes)
            .sum::<u64>();
        let stats = store.gc("|e1+rev2|c1", 7, Some(keep));
        assert_eq!(stats.stale_entries, 1, "other-fingerprint entry dropped");
        assert_eq!(stats.lru_entries, 1, "oldest current entry LRU-evicted");
        assert_eq!(stats.entries_kept, 2);
        assert!(stats.orphan_objects >= 2, "stale + evicted objects reclaimed");
        assert!(stats.bytes_freed > 0);
        assert!(store.stat("old|e0.0.9+rev1|c1").is_none());
        assert!(store.stat("a|e1+rev2|c1").is_none());
        assert_eq!(read_entry(&store, "b|e1+rev2|c1").expect("b reads"), raw_b);
        assert_eq!(read_entry(&store, "c|e1+rev2|c1").expect("c reads"), raw_c);
        let _ = fs::remove_dir_all(&dir);
    }

    fn sample_sim(cid: [u8; 32], fingerprint: u64) -> SimObject {
        let r = checkelide_uarch::SimResult {
            cycles: 1234,
            uops: 16,
            energy_pj: 0.1 + 0.2, // deliberately non-representable exactly
            energy_optimized_pj: -0.0,
            ..Default::default()
        };
        SimObject::new(cid, fingerprint, r)
    }

    #[test]
    fn sim_put_get_round_trip_and_eviction() {
        let (dir, store) = temp_store("sim");
        let cid = sha256(b"trace body");
        let fp = 0xdead_beef_cafe_f00d;
        assert!(store.sim_get(&cid, fp).is_none(), "cold cache misses");
        let obj = sample_sim(cid, fp);
        store.sim_put(&obj).expect("put");
        let got = store.sim_get(&cid, fp).expect("hit");
        assert_eq!(got.encode(), obj.encode(), "bit-exact round trip");
        assert!(store.sim_get(&cid, fp.wrapping_add(1)).is_none(), "other config misses");

        // Idempotent re-put leaves the file alone.
        store.sim_put(&obj).expect("re-put");
        assert!(store.sim_get(&cid, fp).is_some());

        // Corruption degrades to a miss and evicts the file.
        let path = store.sim_path(&cid, fp);
        let mut bytes = fs::read(&path).expect("sim file");
        bytes[40] ^= 0xff;
        fs::write(&path, &bytes).expect("corrupt");
        assert!(store.sim_get(&cid, fp).is_none(), "corrupt sim must miss");
        assert!(!path.exists(), "corrupt sim evicted");

        // A file whose name disagrees with its content is rejected too.
        let other_cid = sha256(b"other trace");
        store.sim_put(&sample_sim(other_cid, fp)).expect("put");
        fs::rename(store.sim_path(&other_cid, fp), &path).expect("rename");
        assert!(store.sim_get(&cid, fp).is_none(), "mislabeled sim must miss");
        assert!(!path.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_keeps_orphan_sims_and_tmp_files_until_gc() {
        let (dir, store) = temp_store("simsweep");
        let raw = vec![5u8; 200];
        let mut side = sample_sidecar("");
        store.put("live|e1|c1", &mut side, &raw).expect("put");
        store.sim_put(&sample_sim(side.cid, 7)).expect("put sim");

        // An orphan sim (no manifest references its CID) plus tmp debris.
        let orphan_cid = sha256(b"gone trace");
        store.sim_put(&sample_sim(orphan_cid, 7)).expect("put orphan sim");
        let orphan_path = store.sim_path(&orphan_cid, 7);
        let tmp = orphan_path.with_file_name("x.s.tmp.1.2");
        fs::write(&tmp, b"x").expect("tmp");

        let reopened = TraceStore::open(&dir, true).expect("reopen");
        assert!(orphan_path.exists() && tmp.exists(), "open deleted a file");

        let stats = reopened.gc("|e1|c1", 7, None);
        assert!(!orphan_path.exists() && !tmp.exists(), "gc reclaims both");
        assert_eq!((stats.orphan_sims, stats.stale_sims), (1, 0));
        assert_eq!(stats.bytes_freed, SIM_OBJECT_LEN as u64 + 1);
        assert!(reopened.sim_get(&side.cid, 7).is_some(), "referenced sim untouched");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_drops_stale_and_orphan_sims_and_charges_sim_bytes() {
        let (dir, store) = temp_store("simgc");
        let raw_a = vec![1u8; 300];
        let raw_b = vec![2u8; 300];
        let mut side_a = sample_sidecar("");
        let mut side_b = sample_sidecar("");
        store.put("a|e1|c1", &mut side_a, &raw_a).expect("put");
        std::thread::sleep(std::time::Duration::from_millis(20));
        store.put("b|e1|c1", &mut side_b, &raw_b).expect("put");
        store.sim_put(&sample_sim(side_a.cid, 7)).expect("sim a");
        store.sim_put(&sample_sim(side_b.cid, 7)).expect("sim b");

        // A valid sim stored under another sim fingerprint rides along.
        store.sim_put(&sample_sim(side_b.cid, 8)).expect("sim under fp 8");
        let stale_path = store.sim_path(&side_b.cid, 8);

        // Bound to exactly b's footprint *including* its sim object: a is
        // LRU-evicted and its sim becomes an orphan.
        let keep = store
            .manifests()
            .iter()
            .find(|(_, s, _, _)| s.key == "b|e1|c1")
            .map(|(_, s, n, _)| n + s.stored_bytes + SIM_OBJECT_LEN as u64)
            .expect("b present");
        let stats = store.gc("|e1|c1", 7, Some(keep));
        assert_eq!(stats.stale_sims, 1, "other-fingerprint sim dropped");
        assert!(!stale_path.exists());
        assert_eq!(stats.lru_entries, 1, "a evicted under sim-inclusive bound");
        assert_eq!(stats.orphan_sims, 1, "a's sim reclaimed");
        assert!(stats.bytes_kept >= keep, "kept bytes include sim object");
        assert!(store.sim_get(&side_b.cid, 7).is_some(), "b's sim survives");
        assert!(store.stat("a|e1|c1").is_none());

        // Re-running under a bound that ignores sim bytes would have kept
        // both entries — prove the charge matters by checking a tighter
        // bound (without the sim object's bytes) evicts b too.
        let stats2 = store.gc("|e1|c1", 7, Some(keep - SIM_OBJECT_LEN as u64));
        assert_eq!(stats2.lru_entries, 1, "sim bytes count against the cap");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hits_refresh_lru_order() {
        let (dir, store) = temp_store("lru");
        let mut side = sample_sidecar("");
        store.put("a|e1|c1", &mut side, &vec![1u8; 300]).expect("put");
        std::thread::sleep(std::time::Duration::from_millis(20));
        store.put("b|e1|c1", &mut side, &vec![2u8; 300]).expect("put");
        std::thread::sleep(std::time::Duration::from_millis(20));
        // Touch a: it becomes the most recently used.
        assert!(store.stat("a|e1|c1").is_some());
        let keep = store
            .manifests()
            .iter()
            .find(|(_, s, _, _)| s.key == "a|e1|c1")
            .map(|(_, s, n, _)| n + s.stored_bytes)
            .expect("a present");
        let stats = store.gc("|e1|c1", 7, Some(keep));
        assert_eq!(stats.entries_kept, 1);
        assert!(store.stat("a|e1|c1").is_some(), "recently-hit entry survives");
        assert!(store.stat("b|e1|c1").is_none(), "stale entry evicted");
        let _ = fs::remove_dir_all(&dir);
    }
}
