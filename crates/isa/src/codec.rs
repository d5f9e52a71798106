//! Compact binary µop trace format: record once, replay everywhere.
//!
//! The trace-driven methodology of the paper captures one engine execution
//! and feeds it to every microarchitectural configuration. This module
//! provides the on-disk representation: a [`TraceWriter`] that records any
//! µop stream produced through the [`TraceSink`] interface, and a streaming
//! [`TraceReader`] that replays the recorded stream into any sink via
//! [`TraceSink::emit_batch`].
//!
//! # Format
//!
//! ```text
//! header   := magic "CKTR" | u8 version
//! frame    := varint count (1..) | varint byte_len | payload[byte_len]
//! trailer  := varint 0 | varint total_uops | magic "KTRE"
//! ```
//!
//! Frames hold up to [`BATCH_CAPACITY`] µops so a replay pass hands the
//! consumer the same slice granularity the live engine does. Within a
//! frame, each µop is encoded as:
//!
//! * a 1-byte index into a *shape dictionary* (the packed combination of
//!   kind, category, region, provenance, taken, memory flags, operand
//!   presence and access width — see [`Shape`]); the escape byte `0xFF`
//!   is followed by 4 literal shape bytes and appends a new dictionary
//!   entry on both sides,
//! * a zigzag-varint PC delta against the previous µop's PC,
//! * zigzag-varint token deltas for each present operand against a
//!   rolling previous-token value (producers allocate tokens from small
//!   rotating or monotonic namespaces, so deltas are tiny),
//! * a zigzag-varint address delta against the previous memory address,
//!   when the shape says a memory reference is present.
//!
//! Dictionary and delta state persist *across* frames; a reader must
//! consume frames in order (which the replay loop does). Real traces use
//! a few dozen shapes and exhibit strong PC/address locality, compressing
//! to well under `size_of::<Uop>() / 8` per µop.
//!
//! Decoding is paranoid: every frame must consume exactly `byte_len`
//! bytes and produce exactly `count` µops, all enum codes are validated,
//! and any violation surfaces as a typed [`TraceError`] rather than a
//! panic — a requirement for treating cache files as untrusted input.

use crate::trace::{TraceSink, BATCH_CAPACITY};
use crate::uop::{Category, MemRef, Provenance, Region, Tok, Uop, UopKind};
use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, Read, Write};
use std::path::Path;

/// Trace file magic ("ChecKelide TRace").
pub const TRACE_MAGIC: [u8; 4] = *b"CKTR";
/// End-of-trace magic, validated after the trailer.
pub const TRACE_END_MAGIC: [u8; 4] = *b"KTRE";
/// On-disk format version. Bump on any encoding change; readers reject
/// other versions with [`TraceError::BadVersion`].
pub const TRACE_VERSION: u8 = 1;

/// Upper bound on a frame's µop count (sanity cap against corruption).
const MAX_FRAME_COUNT: u64 = BATCH_CAPACITY as u64;
/// Upper bound on a frame's payload size. A worst-case µop (new shape +
/// maximal varints) is < 64 bytes; 256 × 64 = 16 KiB, cap at 1 MiB for
/// slack.
const MAX_FRAME_BYTES: u64 = 1 << 20;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Typed decode/IO failure. Corrupt or truncated trace files must fail
/// with one of these — never a panic.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with [`TRACE_MAGIC`].
    BadMagic,
    /// The file's version byte is not [`TRACE_VERSION`].
    BadVersion(u8),
    /// Structurally invalid data at `offset` bytes into the stream.
    Corrupt {
        /// Byte offset (from the start of the file) of the violation.
        offset: u64,
        /// What was wrong.
        what: &'static str,
    },
    /// The stream ended before the trailer (e.g. a partial write).
    Truncated {
        /// Byte offset at which input ran out.
        offset: u64,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::BadMagic => write!(f, "not a µop trace (bad magic)"),
            TraceError::BadVersion(v) => {
                write!(f, "unsupported trace version {v} (expected {TRACE_VERSION})")
            }
            TraceError::Corrupt { offset, what } => {
                write!(f, "corrupt trace at byte {offset}: {what}")
            }
            TraceError::Truncated { offset } => {
                write!(f, "truncated trace (input ended at byte {offset})")
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            // Reads use read_exact; a short read is a truncation, but we
            // lose the offset here — callers that care track it themselves.
            TraceError::Truncated { offset: 0 }
        } else {
            TraceError::Io(e)
        }
    }
}

// ---------------------------------------------------------------------------
// Enum <-> code tables
// ---------------------------------------------------------------------------

const KIND_TABLE: [UopKind; 15] = [
    UopKind::Alu,
    UopKind::Mul,
    UopKind::Div,
    UopKind::FpAdd,
    UopKind::FpMul,
    UopKind::FpDiv,
    UopKind::Load,
    UopKind::Store,
    UopKind::Branch,
    UopKind::Jump,
    UopKind::Move,
    UopKind::MovClassId,
    UopKind::MovClassIdArray,
    UopKind::MovStoreClassCache,
    UopKind::MovStoreClassCacheArray,
];

#[inline]
fn kind_code(k: UopKind) -> u32 {
    match k {
        UopKind::Alu => 0,
        UopKind::Mul => 1,
        UopKind::Div => 2,
        UopKind::FpAdd => 3,
        UopKind::FpMul => 4,
        UopKind::FpDiv => 5,
        UopKind::Load => 6,
        UopKind::Store => 7,
        UopKind::Branch => 8,
        UopKind::Jump => 9,
        UopKind::Move => 10,
        UopKind::MovClassId => 11,
        UopKind::MovClassIdArray => 12,
        UopKind::MovStoreClassCache => 13,
        UopKind::MovStoreClassCacheArray => 14,
    }
}

const PROV_TABLE: [Provenance; 3] =
    [Provenance::None, Provenance::PropertyLoad, Provenance::ElementsLoad];

#[inline]
fn prov_code(p: Provenance) -> u32 {
    match p {
        Provenance::None => 0,
        Provenance::PropertyLoad => 1,
        Provenance::ElementsLoad => 2,
    }
}

const REGION_TABLE: [Region; 3] = [Region::Optimized, Region::Baseline, Region::Runtime];
const CATEGORY_TABLE: [Category; 5] = [
    Category::Check,
    Category::TagUntag,
    Category::MathAssume,
    Category::OtherOptimized,
    Category::RestOfCode,
];

// ---------------------------------------------------------------------------
// Shape packing
// ---------------------------------------------------------------------------

/// The packed "shape" of a µop: everything except PC, tokens and the
/// memory address. Real traces exercise only a few dozen distinct shapes,
/// so they are dictionary-coded to a single byte.
///
/// Layout (little-endian u32):
///
/// ```text
/// byte 0: kind[3:0] | category[6:4]  | taken[7]
/// byte 1: region[1:0] | prov[3:2] | has_mem[4] | mem_store[5] | src0[6] | src1[7]
/// byte 2: mem_size[5:0] | has_dst[6]  (bit 7 reserved, zero)
/// byte 3: reserved, zero
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Shape(u32);

impl Shape {
    fn pack(u: &Uop) -> Shape {
        let b0 = kind_code(u.kind)
            | (u.category.index() as u32) << 4
            | (u.taken as u32) << 7;
        let (has_mem, mem_store, mem_size) = match u.mem {
            Some(m) => (1u32, m.is_store as u32, m.size as u32),
            None => (0, 0, 0),
        };
        let b1 = u.region.index() as u32
            | prov_code(u.provenance) << 2
            | has_mem << 4
            | mem_store << 5
            | (u.srcs[0].is_some() as u32) << 6
            | (u.srcs[1].is_some() as u32) << 7;
        let b2 = (mem_size & 0x3F) | (u.dst.is_some() as u32) << 6;
        Shape(b0 | b1 << 8 | b2 << 16)
    }

    /// Validate and split into decoded fields. `offset` is only for error
    /// reporting.
    #[allow(clippy::type_complexity)]
    fn unpack(
        self,
        offset: u64,
    ) -> Result<ShapeFields, TraceError> {
        let b0 = self.0 & 0xFF;
        let b1 = (self.0 >> 8) & 0xFF;
        let b2 = (self.0 >> 16) & 0xFF;
        let b3 = (self.0 >> 24) & 0xFF;
        if b3 != 0 || b2 & 0x80 != 0 {
            return Err(TraceError::Corrupt { offset, what: "reserved shape bits set" });
        }
        let kind = *KIND_TABLE
            .get((b0 & 0x0F) as usize)
            .ok_or(TraceError::Corrupt { offset, what: "invalid µop kind" })?;
        let category = *CATEGORY_TABLE
            .get(((b0 >> 4) & 0x7) as usize)
            .ok_or(TraceError::Corrupt { offset, what: "invalid category" })?;
        let taken = b0 >> 7 != 0;
        let region = *REGION_TABLE
            .get((b1 & 0x3) as usize)
            .ok_or(TraceError::Corrupt { offset, what: "invalid region" })?;
        let provenance = *PROV_TABLE
            .get(((b1 >> 2) & 0x3) as usize)
            .ok_or(TraceError::Corrupt { offset, what: "invalid provenance" })?;
        let has_mem = b1 & 0x10 != 0;
        let mem_store = b1 & 0x20 != 0;
        let has_src0 = b1 & 0x40 != 0;
        let has_src1 = b1 & 0x80 != 0;
        let mem_size = (b2 & 0x3F) as u8;
        let has_dst = b2 & 0x40 != 0;
        if !has_mem && (mem_store || mem_size != 0) {
            return Err(TraceError::Corrupt { offset, what: "memory bits without memory ref" });
        }
        Ok(ShapeFields {
            kind,
            category,
            region,
            provenance,
            taken,
            has_mem,
            mem_store,
            mem_size,
            has_src0,
            has_src1,
            has_dst,
        })
    }
}

#[derive(Debug, Clone, Copy)]
struct ShapeFields {
    kind: UopKind,
    category: Category,
    region: Region,
    provenance: Provenance,
    taken: bool,
    has_mem: bool,
    mem_store: bool,
    mem_size: u8,
    has_src0: bool,
    has_src1: bool,
    has_dst: bool,
}

/// Dictionary escape byte: followed by 4 literal shape bytes.
const SHAPE_ESCAPE: u8 = 0xFF;
/// Maximum dictionary size (index `0xFF` is the escape).
const MAX_SHAPES: usize = 255;

/// Slots of the writer's shape table: a power of two with room for
/// [`MAX_SHAPES`] keys at a load factor of at most one quarter.
const SHAPE_SLOT_BITS: u32 = 10;
const SHAPE_SLOTS: usize = 1 << SHAPE_SLOT_BITS;
/// An empty slot. Packed shapes keep byte 3 zero, so no shape equals it.
const NO_SHAPE: u32 = u32::MAX;

/// The writer's shape → dictionary-index map: a fixed open-addressing
/// table with linear probing. Indices are assigned in first-seen order
/// and never removed, exactly the dictionary the reader rebuilds.
struct ShapeTable {
    keys: Box<[u32; SHAPE_SLOTS]>,
    ixs: Box<[u8; SHAPE_SLOTS]>,
    len: usize,
}

impl ShapeTable {
    fn new() -> ShapeTable {
        ShapeTable {
            keys: Box::new([NO_SHAPE; SHAPE_SLOTS]),
            ixs: Box::new([0; SHAPE_SLOTS]),
            len: 0,
        }
    }

    /// The dictionary index of a known `shape`. A shape seen for the
    /// first time returns `None` (it is escaped) and, while the
    /// dictionary has room, takes the next index.
    #[inline]
    fn index(&mut self, shape: u32) -> Option<u8> {
        // Fibonacci hashing onto the top bits of the slot index.
        let mut i = (shape.wrapping_mul(0x9e37_79b1) >> (32 - SHAPE_SLOT_BITS)) as usize;
        loop {
            let k = self.keys[i];
            if k == shape {
                return Some(self.ixs[i]);
            }
            if k == NO_SHAPE {
                if self.len < MAX_SHAPES {
                    self.keys[i] = shape;
                    self.ixs[i] = self.len as u8;
                    self.len += 1;
                }
                return None;
            }
            i = (i + 1) & (SHAPE_SLOTS - 1);
        }
    }
}

// ---------------------------------------------------------------------------
// Varint helpers
// ---------------------------------------------------------------------------

#[inline]
fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(b);
            return;
        }
        buf.push(b | 0x80);
    }
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[inline]
fn put_svarint(buf: &mut Vec<u8>, v: i64) {
    put_varint(buf, zigzag(v));
}

/// Cursor over an in-memory frame payload with offset-aware errors.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
    /// File offset of `buf[0]`, for error reporting.
    base: u64,
}

impl<'a> Cur<'a> {
    #[inline]
    fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    #[inline]
    fn byte(&mut self) -> Result<u8, TraceError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or(TraceError::Corrupt { offset: self.offset(), what: "frame payload underrun" })?;
        self.pos += 1;
        Ok(b)
    }

    #[inline]
    fn varint(&mut self) -> Result<u64, TraceError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift == 63 && b > 1 {
                return Err(TraceError::Corrupt {
                    offset: self.offset(),
                    what: "varint overflows 64 bits",
                });
            }
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(TraceError::Corrupt {
                    offset: self.offset(),
                    what: "varint too long",
                });
            }
        }
    }

    #[inline]
    fn svarint(&mut self) -> Result<i64, TraceError> {
        Ok(unzigzag(self.varint()?))
    }
}

/// Read a varint directly from a reader, tracking the stream offset.
fn read_varint(r: &mut impl Read, offset: &mut u64) -> Result<u64, TraceError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let mut b = [0u8; 1];
        match r.read_exact(&mut b) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                return Err(TraceError::Truncated { offset: *offset });
            }
            Err(e) => return Err(TraceError::Io(e)),
        }
        *offset += 1;
        let b = b[0];
        if shift == 63 && b > 1 {
            return Err(TraceError::Corrupt { offset: *offset, what: "varint overflows 64 bits" });
        }
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(TraceError::Corrupt { offset: *offset, what: "varint too long" });
        }
    }
}

// ---------------------------------------------------------------------------
// Delta state (shared encode/decode)
// ---------------------------------------------------------------------------

/// Rolling prediction state. Persisted across frames on both sides.
#[derive(Debug, Clone, Copy)]
struct DeltaState {
    prev_pc: u64,
    prev_addr: u64,
    prev_tok: u32,
}

impl DeltaState {
    fn new() -> DeltaState {
        DeltaState { prev_pc: 0, prev_addr: 0, prev_tok: 0 }
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Aggregate statistics of a finished recording.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceWriteStats {
    /// Total µops recorded.
    pub uops: u64,
    /// Total encoded bytes (header + frames + trailer).
    pub bytes: u64,
}

/// A [`TraceSink`] that encodes every µop it receives into the compact
/// binary format.
///
/// The sink interface cannot return errors, so I/O failures are latched
/// and surfaced by [`TraceWriter::finish_file`]; once an error is latched
/// all further input is discarded.
pub struct TraceWriter<W: Write> {
    out: Option<W>,
    err: Option<io::Error>,
    /// µops encoded into `payload` since the last frame; a frame is
    /// written per [`BATCH_CAPACITY`] and at every [`TraceSink::finish`].
    staged: usize,
    /// The open frame's payload, reused across frames.
    payload: Vec<u8>,
    /// Scratch frame-header buffer.
    head: Vec<u8>,
    shapes: ShapeTable,
    delta: DeltaState,
    uops: u64,
    bytes: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Start a recording: writes the file header immediately.
    pub fn new(mut out: W) -> io::Result<TraceWriter<W>> {
        out.write_all(&TRACE_MAGIC)?;
        out.write_all(&[TRACE_VERSION])?;
        Ok(TraceWriter {
            out: Some(out),
            err: None,
            staged: 0,
            payload: Vec::with_capacity(4096),
            head: Vec::with_capacity(16),
            shapes: ShapeTable::new(),
            delta: DeltaState::new(),
            uops: 0,
            bytes: 5,
        })
    }

    /// Encode one µop onto the open frame's payload.
    #[inline]
    fn encode(&mut self, u: &Uop) {
        let shape = Shape::pack(u);
        match self.shapes.index(shape.0) {
            Some(ix) => self.payload.push(ix),
            None => {
                self.payload.push(SHAPE_ESCAPE);
                self.payload.extend_from_slice(&shape.0.to_le_bytes());
            }
        }
        put_svarint(&mut self.payload, u.pc.wrapping_sub(self.delta.prev_pc) as i64);
        self.delta.prev_pc = u.pc;
        for t in [u.srcs[0], u.srcs[1], u.dst] {
            if t.is_some() {
                put_svarint(
                    &mut self.payload,
                    i64::from(t.0.wrapping_sub(self.delta.prev_tok) as i32),
                );
                self.delta.prev_tok = t.0;
            }
        }
        if let Some(m) = u.mem {
            put_svarint(&mut self.payload, m.addr.wrapping_sub(self.delta.prev_addr) as i64);
            self.delta.prev_addr = m.addr;
        }
        self.staged += 1;
        if self.staged == BATCH_CAPACITY {
            self.flush_frame();
        }
    }

    /// Write the open frame, if it holds any µops.
    fn flush_frame(&mut self) {
        if self.staged == 0 || self.err.is_some() {
            return;
        }
        self.head.clear();
        put_varint(&mut self.head, self.staged as u64);
        put_varint(&mut self.head, self.payload.len() as u64);
        let out = self.out.as_mut().expect("writer not finished");
        let r = out.write_all(&self.head).and_then(|()| out.write_all(&self.payload));
        if let Err(e) = r {
            self.err = Some(e);
        } else {
            self.uops += self.staged as u64;
            self.bytes += (self.head.len() + self.payload.len()) as u64;
        }
        self.staged = 0;
        self.payload.clear();
    }

    /// Finish the recording: flush the open frame, write the trailer, and
    /// return the underlying writer plus stats. Surfaces any I/O error
    /// latched during recording.
    pub fn finish_file(mut self) -> Result<(W, TraceWriteStats), TraceError> {
        self.flush_frame();
        if let Some(e) = self.err.take() {
            return Err(TraceError::Io(e));
        }
        self.head.clear();
        put_varint(&mut self.head, 0);
        put_varint(&mut self.head, self.uops);
        self.head.extend_from_slice(&TRACE_END_MAGIC);
        let mut out = self.out.take().expect("writer not finished");
        out.write_all(&self.head).map_err(TraceError::Io)?;
        out.flush().map_err(TraceError::Io)?;
        self.bytes += self.head.len() as u64;
        Ok((out, TraceWriteStats { uops: self.uops, bytes: self.bytes }))
    }
}

impl<W: Write> TraceSink for TraceWriter<W> {
    #[inline]
    fn emit(&mut self, uop: &Uop) {
        if self.err.is_none() {
            self.encode(uop);
        }
    }

    fn finish(&mut self) {
        // Frames must not be left open between iterations; flush so the
        // file is frame-complete at every sink boundary. The trailer is
        // only written by `finish_file`.
        self.flush_frame();
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Streaming decoder for the compact trace format.
///
/// Use [`TraceReader::replay`] to feed an entire trace into a sink, or
/// [`TraceReader::next_frame`] to pull decoded µop slices one frame at a
/// time.
pub struct TraceReader<R: Read> {
    inp: R,
    /// Stream offset, for error reporting.
    offset: u64,
    shapes: Vec<ShapeFields>,
    delta: DeltaState,
    /// Reusable payload buffer.
    payload: Vec<u8>,
    /// Reusable decoded-frame buffer.
    frame: Vec<Uop>,
    /// Total µops decoded so far.
    decoded: u64,
    /// Set once the trailer has been consumed and validated.
    done: bool,
}

impl TraceReader<BufReader<File>> {
    /// Open a trace file for replay.
    pub fn open(path: &Path) -> Result<TraceReader<BufReader<File>>, TraceError> {
        let f = File::open(path).map_err(TraceError::Io)?;
        TraceReader::new(BufReader::with_capacity(1 << 16, f))
    }
}

impl<R: Read> TraceReader<R> {
    /// Wrap a reader; validates the header eagerly.
    pub fn new(mut inp: R) -> Result<TraceReader<R>, TraceError> {
        let mut head = [0u8; 5];
        let mut got = 0usize;
        while got < head.len() {
            match inp.read(&mut head[got..]) {
                Ok(0) => return Err(TraceError::Truncated { offset: got as u64 }),
                Ok(n) => got += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(TraceError::Io(e)),
            }
        }
        if head[..4] != TRACE_MAGIC {
            return Err(TraceError::BadMagic);
        }
        if head[4] != TRACE_VERSION {
            return Err(TraceError::BadVersion(head[4]));
        }
        Ok(TraceReader {
            inp,
            offset: 5,
            shapes: Vec::new(),
            delta: DeltaState::new(),
            payload: Vec::with_capacity(4096),
            frame: Vec::with_capacity(BATCH_CAPACITY),
            decoded: 0,
            done: false,
        })
    }

    /// Total µops decoded so far (equals the trace length once
    /// `next_frame` has returned `None`).
    #[inline]
    pub fn uops_decoded(&self) -> u64 {
        self.decoded
    }

    /// Read one frame header + payload into `self.payload`. Returns the
    /// µop count, or `None` after a validated trailer.
    fn read_frame_raw(&mut self) -> Result<Option<u64>, TraceError> {
        if self.done {
            return Ok(None);
        }
        let count = read_varint(&mut self.inp, &mut self.offset)?;
        if count == 0 {
            // Trailer: total count + end magic.
            let total = read_varint(&mut self.inp, &mut self.offset)?;
            if total != self.decoded {
                return Err(TraceError::Corrupt {
                    offset: self.offset,
                    what: "trailer µop count mismatch",
                });
            }
            let mut magic = [0u8; 4];
            match self.inp.read_exact(&mut magic) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                    return Err(TraceError::Truncated { offset: self.offset });
                }
                Err(e) => return Err(TraceError::Io(e)),
            }
            self.offset += 4;
            if magic != TRACE_END_MAGIC {
                return Err(TraceError::Corrupt { offset: self.offset, what: "bad end magic" });
            }
            self.done = true;
            return Ok(None);
        }
        if count > MAX_FRAME_COUNT {
            return Err(TraceError::Corrupt {
                offset: self.offset,
                what: "frame count exceeds capacity",
            });
        }
        let byte_len = read_varint(&mut self.inp, &mut self.offset)?;
        if byte_len == 0 || byte_len > MAX_FRAME_BYTES {
            return Err(TraceError::Corrupt {
                offset: self.offset,
                what: "implausible frame byte length",
            });
        }
        self.payload.clear();
        self.payload.resize(byte_len as usize, 0);
        match self.inp.read_exact(&mut self.payload) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                return Err(TraceError::Truncated { offset: self.offset });
            }
            Err(e) => return Err(TraceError::Io(e)),
        }
        Ok(Some(count))
    }

    /// Decode the payload currently in `self.payload` into `self.frame`.
    fn decode_payload(&mut self, count: u64, base: u64) -> Result<(), TraceError> {
        self.frame.clear();
        let mut cur = Cur { buf: &self.payload, pos: 0, base };
        for _ in 0..count {
            let ix = cur.byte()?;
            let fields = if ix == SHAPE_ESCAPE {
                let off = cur.offset();
                let raw = u32::from_le_bytes([cur.byte()?, cur.byte()?, cur.byte()?, cur.byte()?]);
                let fields = Shape(raw).unpack(off)?;
                if self.shapes.len() < MAX_SHAPES {
                    self.shapes.push(fields);
                }
                fields
            } else {
                *self.shapes.get(ix as usize).ok_or(TraceError::Corrupt {
                    offset: cur.offset(),
                    what: "shape index out of range",
                })?
            };
            let pc = self.delta.prev_pc.wrapping_add(cur.svarint()? as u64);
            self.delta.prev_pc = pc;
            let mut srcs = [Tok::NONE; 2];
            if fields.has_src0 {
                let t = self.delta.prev_tok.wrapping_add(cur.svarint()? as u32);
                if t == 0 {
                    return Err(TraceError::Corrupt {
                        offset: cur.offset(),
                        what: "present operand decodes to Tok::NONE",
                    });
                }
                srcs[0] = Tok(t);
                self.delta.prev_tok = t;
            }
            if fields.has_src1 {
                let t = self.delta.prev_tok.wrapping_add(cur.svarint()? as u32);
                if t == 0 {
                    return Err(TraceError::Corrupt {
                        offset: cur.offset(),
                        what: "present operand decodes to Tok::NONE",
                    });
                }
                srcs[1] = Tok(t);
                self.delta.prev_tok = t;
            }
            let mut dst = Tok::NONE;
            if fields.has_dst {
                let t = self.delta.prev_tok.wrapping_add(cur.svarint()? as u32);
                if t == 0 {
                    return Err(TraceError::Corrupt {
                        offset: cur.offset(),
                        what: "present operand decodes to Tok::NONE",
                    });
                }
                dst = Tok(t);
                self.delta.prev_tok = t;
            }
            let mem = if fields.has_mem {
                let addr = self.delta.prev_addr.wrapping_add(cur.svarint()? as u64);
                self.delta.prev_addr = addr;
                Some(MemRef { addr, size: fields.mem_size, is_store: fields.mem_store })
            } else {
                None
            };
            self.frame.push(Uop {
                kind: fields.kind,
                category: fields.category,
                pc,
                mem,
                srcs,
                dst,
                provenance: fields.provenance,
                region: fields.region,
                taken: fields.taken,
            });
        }
        if cur.pos != self.payload.len() {
            return Err(TraceError::Corrupt {
                offset: cur.offset(),
                what: "frame payload has trailing bytes",
            });
        }
        self.decoded += count;
        Ok(())
    }

    /// Decode the next frame. Returns `None` after the validated trailer.
    pub fn next_frame(&mut self) -> Result<Option<&[Uop]>, TraceError> {
        let base = self.offset;
        match self.read_frame_raw()? {
            None => Ok(None),
            Some(count) => {
                self.offset += self.payload.len() as u64;
                self.decode_payload(count, base)?;
                Ok(Some(&self.frame))
            }
        }
    }

    /// Replay the whole trace into `sink`, one `emit_batch` call per
    /// decoded frame, returning the number of µops replayed.
    ///
    /// When the sink discards everything ([`TraceSink::discards_all`]),
    /// frames are skipped without decoding — replay then runs at I/O
    /// speed, the NullSink-like regime the cache's warm path relies on.
    pub fn replay(&mut self, sink: &mut dyn TraceSink) -> Result<u64, TraceError> {
        if sink.discards_all() {
            // Fast path: count µops without materializing them. Dictionary
            // and delta state don't matter because *every* frame is skipped.
            while let Some(count) = self.read_frame_raw()? {
                self.offset += self.payload.len() as u64;
                self.decoded += count;
            }
            return Ok(self.decoded);
        }
        while let Some(frame) = self.next_frame()? {
            sink.emit_batch(frame);
        }
        Ok(self.decoded)
    }
}

// ---------------------------------------------------------------------------
// Convenience helpers
// ---------------------------------------------------------------------------

/// Encode a µop slice into an in-memory trace file image.
pub fn encode_trace(uops: &[Uop]) -> Vec<u8> {
    let mut w = TraceWriter::new(Vec::new()).expect("Vec write cannot fail");
    w.emit_batch(uops);
    let (buf, _) = w.finish_file().expect("Vec write cannot fail");
    buf
}

/// Decode an in-memory trace file image into a µop vector.
pub fn decode_trace(bytes: &[u8]) -> Result<Vec<Uop>, TraceError> {
    let mut r = TraceReader::new(bytes)?;
    let mut out = Vec::new();
    while let Some(frame) = r.next_frame()? {
        out.extend_from_slice(frame);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{NullSink, VecSink};

    fn sample_trace() -> Vec<Uop> {
        let mut v = Vec::new();
        let mut pc = 0x4000u64;
        let mut tok = 7u32;
        for i in 0..1000u64 {
            pc += 4 + (i % 3) * 4;
            tok += 1;
            let u = match i % 7 {
                0 => Uop::alu(pc, Category::Check, Region::Optimized)
                    .with_srcs(Tok(tok), Tok::NONE)
                    .with_dst(Tok(tok + 1))
                    .with_provenance(Provenance::PropertyLoad),
                1 => Uop::load(pc, 0x10000 + i * 8, Category::OtherOptimized, Region::Optimized)
                    .with_dst(Tok(tok)),
                2 => Uop::store(pc, 0x20000 + i * 16, Category::RestOfCode, Region::Baseline)
                    .with_srcs(Tok(tok), Tok(tok.wrapping_sub(3))),
                3 => Uop::branch(pc, i % 2 == 0, Category::TagUntag, Region::Runtime),
                4 => Uop::new(UopKind::MovClassId, pc, Category::Check, Region::Optimized)
                    .with_srcs(Tok(tok), Tok::NONE)
                    .with_dst(Tok(tok + 2)),
                5 => {
                    let mut u = Uop::new(
                        UopKind::MovStoreClassCacheArray,
                        pc,
                        Category::MathAssume,
                        Region::Optimized,
                    );
                    u.mem = Some(MemRef::store(0x30000 + i * 8));
                    u.provenance = Provenance::ElementsLoad;
                    u
                }
                _ => Uop::new(UopKind::FpMul, pc, Category::OtherOptimized, Region::Optimized)
                    .with_srcs(Tok(tok), Tok(tok + 1))
                    .with_dst(Tok(tok + 2)),
            };
            v.push(u);
        }
        v
    }

    #[test]
    fn round_trip_identity() {
        let trace = sample_trace();
        let bytes = encode_trace(&trace);
        let back = decode_trace(&bytes).expect("decodes");
        assert_eq!(trace, back);
    }

    #[test]
    fn empty_trace_round_trips() {
        let bytes = encode_trace(&[]);
        assert_eq!(decode_trace(&bytes).expect("decodes"), Vec::new());
    }

    #[test]
    fn compression_beats_8x() {
        let trace = sample_trace();
        let bytes = encode_trace(&trace);
        let raw = trace.len() * std::mem::size_of::<Uop>();
        assert!(
            bytes.len() * 8 <= raw,
            "encoded {} bytes vs raw {} ({}x)",
            bytes.len(),
            raw,
            raw as f64 / bytes.len() as f64
        );
    }

    #[test]
    fn replay_matches_decode() {
        let trace = sample_trace();
        let bytes = encode_trace(&trace);
        let mut r = TraceReader::new(&bytes[..]).expect("header ok");
        let mut sink = VecSink::new();
        let n = r.replay(&mut sink).expect("replays");
        assert_eq!(n, trace.len() as u64);
        assert_eq!(sink.uops, trace);
    }

    #[test]
    fn replay_discarding_counts_without_decoding() {
        let trace = sample_trace();
        let bytes = encode_trace(&trace);
        let mut r = TraceReader::new(&bytes[..]).expect("header ok");
        let mut null = NullSink::new();
        assert_eq!(r.replay(&mut null).expect("replays"), trace.len() as u64);
    }

    #[test]
    fn replay_across_short_frames_preserves_stream() {
        // Writer flushes at sink boundaries leave short frames mid-file;
        // replay must hand the consumer every µop in order across them.
        let trace = sample_trace();
        let mut w = TraceWriter::new(Vec::new()).expect("vec");
        for chunk in trace.chunks(100) {
            w.emit_batch(chunk);
            w.finish(); // frame boundary: 100-µop frames mid-file
        }
        let (bytes, stats) = w.finish_file().expect("vec");
        assert_eq!(stats.uops, trace.len() as u64);

        let mut s = VecSink::new();
        let mut r = TraceReader::new(&bytes[..]).expect("header");
        assert_eq!(r.replay(&mut s).expect("replays"), trace.len() as u64);
        assert_eq!(s.uops, trace, "short frames changed the stream");
    }

    /// Record `trace` with a [`TraceSink::finish`] after each prefix
    /// length in `finishes`, feeding it per µop or in `batch`-sized slices.
    fn encode_with_finishes(trace: &[Uop], finishes: &[usize], batch: Option<usize>) -> Vec<u8> {
        let mut w = TraceWriter::new(Vec::new()).expect("vec");
        let mut at = 0;
        for end in finishes.iter().copied().chain([trace.len()]) {
            let seg = &trace[at..end];
            match batch {
                None => seg.iter().for_each(|u| w.emit(u)),
                Some(n) => seg.chunks(n).for_each(|c| w.emit_batch(c)),
            }
            TraceSink::finish(&mut w);
            at = end;
        }
        let (bytes, stats) = w.finish_file().expect("vec");
        assert_eq!(stats.uops, trace.len() as u64);
        assert_eq!(stats.bytes, bytes.len() as u64);
        bytes
    }

    #[test]
    fn writer_emit_matches_emit_batch() {
        let trace = sample_trace();
        let via_batch = encode_trace(&trace);
        let mut w = TraceWriter::new(Vec::new()).expect("vec");
        for u in &trace {
            w.emit(u);
        }
        let (via_emit, stats) = w.finish_file().expect("vec");
        assert_eq!(via_batch, via_emit);
        assert_eq!(stats.uops, trace.len() as u64);
        assert_eq!(stats.bytes, via_emit.len() as u64);
        // Mid-frame `finish` calls (including a repeated one and one on a
        // frame boundary) cut frames at the same places whichever way the
        // µops arrive.
        let finishes = [13, 13, 256, 300, 777];
        let want = reference_encode(&trace, &finishes);
        for batch in [None, Some(1), Some(7), Some(BATCH_CAPACITY), Some(1000)] {
            assert_eq!(encode_with_finishes(&trace, &finishes, batch), want, "batch {batch:?}");
        }
        assert_eq!(decode_trace(&want).expect("decodes"), trace);
    }

    #[test]
    fn mid_stream_finish_flushes_partial_frame() {
        // `finish` between iterations must not lose or duplicate µops.
        let trace = sample_trace();
        let mut w = TraceWriter::new(Vec::new()).expect("vec");
        w.emit_batch(&trace[..13]);
        TraceSink::finish(&mut w);
        w.emit_batch(&trace[13..]);
        let (bytes, _) = w.finish_file().expect("vec");
        assert_eq!(decode_trace(&bytes).expect("decodes"), trace);
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = encode_trace(&sample_trace());
        bytes[0] = b'X';
        assert!(matches!(decode_trace(&bytes), Err(TraceError::BadMagic)));
    }

    #[test]
    fn bad_version_is_typed() {
        let mut bytes = encode_trace(&sample_trace());
        bytes[4] = TRACE_VERSION + 1;
        assert!(matches!(decode_trace(&bytes), Err(TraceError::BadVersion(_))));
    }

    #[test]
    fn every_truncation_is_typed() {
        let bytes = encode_trace(&sample_trace());
        // Every strict prefix must fail with Truncated or Corrupt — never
        // succeed, never panic. (Check a spread of prefixes; checking all
        // ~4k is fine too but slower under the sanitizer-ish profiles.)
        for len in (0..bytes.len()).step_by(7).chain([bytes.len() - 1]) {
            match decode_trace(&bytes[..len]) {
                Err(TraceError::Truncated { .. }) | Err(TraceError::Corrupt { .. }) => {}
                other => panic!("prefix {len}: expected typed failure, got {other:?}"),
            }
        }
    }

    #[test]
    fn corrupt_shape_is_typed() {
        // Small trace: one frame, 1-byte count/len varints, so the payload
        // starts at byte 7 with the 0xFF dictionary escape.
        let trace = &sample_trace()[..4];
        let mut bytes = encode_trace(trace);
        assert_eq!(bytes[5], 4, "frame count");
        assert_eq!(bytes[7], SHAPE_ESCAPE);
        bytes[11] = 0xEE; // byte 3 of the packed shape must be zero
        assert!(matches!(decode_trace(&bytes), Err(TraceError::Corrupt { .. })));
    }

    #[test]
    fn trailer_count_mismatch_is_typed() {
        let trace = sample_trace();
        let mut bytes = encode_trace(&trace[..300]);
        // The trailer total (300) is the varint right after the final
        // count-0 byte; find it from the end: ..., 0x00, varint(300)=AC 02,
        // "KTRE". Flip a bit in the total.
        let n = bytes.len();
        assert_eq!(&bytes[n - 4..], b"KTRE");
        bytes[n - 6] ^= 0x01;
        assert!(matches!(
            decode_trace(&bytes),
            Err(TraceError::Corrupt { what: "trailer µop count mismatch", .. })
        ));
    }

    /// The writer's format encoded with a `HashMap` dictionary: the
    /// reference the open-addressing shape table must match byte for byte.
    /// A frame ends every [`BATCH_CAPACITY`] µops and at each prefix
    /// length in `finishes` (a sink `finish`).
    fn reference_encode(uops: &[Uop], finishes: &[usize]) -> Vec<u8> {
        let mut out = TRACE_MAGIC.to_vec();
        out.push(TRACE_VERSION);
        let mut shapes = std::collections::HashMap::<u32, u8>::new();
        let mut d = DeltaState::new();
        let mut at = 0;
        let segments = finishes.iter().copied().chain([uops.len()]).map(|end| {
            let seg = &uops[at..end];
            at = end;
            seg
        });
        for frame in segments.flat_map(|seg| seg.chunks(BATCH_CAPACITY)) {
            let mut p = Vec::new();
            for u in frame {
                let shape = Shape::pack(u).0;
                match shapes.get(&shape) {
                    Some(&ix) => p.push(ix),
                    None => {
                        p.push(SHAPE_ESCAPE);
                        p.extend_from_slice(&shape.to_le_bytes());
                        if shapes.len() < MAX_SHAPES {
                            let ix = shapes.len() as u8;
                            shapes.insert(shape, ix);
                        }
                    }
                }
                put_svarint(&mut p, u.pc.wrapping_sub(d.prev_pc) as i64);
                d.prev_pc = u.pc;
                for t in [u.srcs[0], u.srcs[1], u.dst].into_iter().filter(|t| t.is_some()) {
                    put_svarint(&mut p, i64::from(t.0.wrapping_sub(d.prev_tok) as i32));
                    d.prev_tok = t.0;
                }
                if let Some(m) = u.mem {
                    put_svarint(&mut p, m.addr.wrapping_sub(d.prev_addr) as i64);
                    d.prev_addr = m.addr;
                }
            }
            put_varint(&mut out, frame.len() as u64);
            put_varint(&mut out, p.len() as u64);
            out.extend_from_slice(&p);
        }
        put_varint(&mut out, 0);
        put_varint(&mut out, uops.len() as u64);
        out.extend_from_slice(&TRACE_END_MAGIC);
        out
    }

    #[test]
    fn shape_table_matches_hashmap_reference_past_dictionary_overflow() {
        // 300 distinct shapes (mixed-radix over kind, category, taken and
        // region): the first 255 enter the dictionary, the other 45 are
        // escaped on every occurrence. Three rounds exercise first sight,
        // dictionary hits and the overflow path across frame boundaries.
        let mut trace = Vec::new();
        for round in 0..3u64 {
            for i in 0..300usize {
                let pc = 0x4000 + (round * 300 + i as u64) * 4;
                let mut u = Uop::new(
                    KIND_TABLE[i % 15],
                    pc,
                    CATEGORY_TABLE[(i / 15) % 5],
                    REGION_TABLE[i / 150],
                );
                u.taken = (i / 75) % 2 == 1;
                u.srcs = [Tok(i as u32 + 1), Tok::NONE];
                if i % 3 == 0 {
                    u.mem = Some(MemRef::load(0x10000 + i as u64 * 8));
                }
                trace.push(u);
            }
        }
        let shapes: std::collections::HashSet<u32> =
            trace.iter().map(|u| Shape::pack(u).0).collect();
        assert_eq!(shapes.len(), 300);
        let bytes = encode_trace(&trace);
        assert_eq!(bytes, reference_encode(&trace, &[]));
        assert_eq!(decode_trace(&bytes).expect("decodes"), trace);
        assert_eq!(encode_trace(&sample_trace()), reference_encode(&sample_trace(), &[]));
        // Mid-frame finishes, one inside the overflow region of each round.
        let finishes = [1, 280, 299, 300, 555, 899];
        let bytes = encode_with_finishes(&trace, &finishes, Some(64));
        assert_eq!(bytes, reference_encode(&trace, &finishes));
        assert_eq!(decode_trace(&bytes).expect("decodes"), trace);
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 12345, -98765] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn shape_pack_unpack_round_trips() {
        for u in sample_trace().iter().take(50) {
            let s = Shape::pack(u);
            let f = s.unpack(0).expect("valid shape");
            assert_eq!(f.kind, u.kind);
            assert_eq!(f.category, u.category);
            assert_eq!(f.region, u.region);
            assert_eq!(f.provenance, u.provenance);
            assert_eq!(f.taken, u.taken);
            assert_eq!(f.has_mem, u.mem.is_some());
        }
    }
}
