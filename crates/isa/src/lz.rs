//! Std-only LZ-style block compression for encoded µop traces.
//!
//! The trace store (crates/bench) persists [`crate::codec`]-encoded trace
//! bodies as content-addressed objects; this module supplies the
//! byte-oriented compression those objects use. The format is the classic
//! LZ77 token scheme (literals + back-references into the already-decoded
//! output, 64 KiB window):
//!
//! ```text
//! sequence := token | [lit-len ext bytes] | literals
//!           | offset:u16le | [match-len ext bytes]
//! token    := (literal_len:4 << 4) | match_len_minus_4:4
//! ```
//!
//! A nibble value of 15 is continued by extension bytes, each adding its
//! value, terminated by the first byte < 255 (so lengths are unbounded).
//! The final sequence of a block is literals-only: after its literals the
//! input simply ends, with no offset field. Matches are at least
//! [`MIN_MATCH`] bytes and may self-overlap (offset < length encodes the
//! usual run-extension idiom).
//!
//! Design constraints, in priority order:
//!
//! 1. **[`decompress`] never panics** on any input — every read is
//!    bounds-checked and failures are typed [`LzError`]s. Trace objects
//!    are read back from disk as untrusted input; a corrupt object must
//!    degrade to a cache miss, not a crash. The [`Decompressor`] core
//!    decodes a stream in bounded chunks with only a [`MAX_OFFSET`]
//!    history, so a stored body is never inflated whole.
//! 2. Exact round-trip: `decompress(&compress(x), x.len()) == x`.
//! 3. Throughput over ratio: a greedy single-pass hash-table matcher, no
//!    entropy stage. Encoded traces are already dense (~5 B/µop) but
//!    highly self-similar (loop bodies repeat), which is exactly what a
//!    long-window LZ exploits.

/// Minimum back-reference length (shorter matches are stored as literals).
pub const MIN_MATCH: usize = 4;

/// Maximum back-reference distance (`u16` offset field; 0 is invalid).
pub const MAX_OFFSET: usize = u16::MAX as usize;

const HASH_BITS: u32 = 15;

/// Typed decompression failure. Every variant reports the compressed-input
/// offset at which decoding stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LzError {
    /// The compressed stream ended inside a token, length, offset or
    /// literal run.
    Truncated {
        /// Compressed-input offset of the failure.
        offset: usize,
    },
    /// A back-reference pointed before the start of the output, or its
    /// offset field was zero.
    BadOffset {
        /// Compressed-input offset of the failure.
        offset: usize,
    },
    /// Decoding would exceed the caller's declared output size.
    TooLong {
        /// Compressed-input offset of the failure.
        offset: usize,
    },
    /// The stream decoded cleanly but produced fewer bytes than declared.
    ShortOutput {
        /// Bytes actually produced.
        produced: usize,
        /// Bytes the caller declared.
        expected: usize,
    },
}

impl std::fmt::Display for LzError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            LzError::Truncated { offset } => {
                write!(f, "compressed stream truncated at byte {offset}")
            }
            LzError::BadOffset { offset } => {
                write!(f, "back-reference out of range at byte {offset}")
            }
            LzError::TooLong { offset } => {
                write!(f, "output exceeds declared size at byte {offset}")
            }
            LzError::ShortOutput { produced, expected } => {
                write!(f, "decoded {produced} bytes, declared {expected}")
            }
        }
    }
}

impl std::error::Error for LzError {}

#[inline]
fn hash4(word: u32) -> usize {
    // Fibonacci hashing on the 4-byte window, top HASH_BITS bits.
    (word.wrapping_mul(0x9e37_79b1) >> (32 - HASH_BITS)) as usize
}

#[inline]
fn read4(src: &[u8], pos: usize) -> u32 {
    // Caller guarantees pos + 4 <= src.len().
    u32::from_le_bytes([src[pos], src[pos + 1], src[pos + 2], src[pos + 3]])
}

#[inline]
fn read8(src: &[u8], pos: usize) -> u64 {
    // Caller guarantees pos + 8 <= src.len().
    u64::from_le_bytes(src[pos..pos + 8].try_into().expect("8-byte slice"))
}

fn put_len(out: &mut Vec<u8>, mut extra: usize) {
    // Emit the 255-continuation extension bytes for a nibble that held 15.
    while extra >= 255 {
        out.push(255);
        extra -= 255;
    }
    out.push(extra as u8);
}

fn put_sequence(out: &mut Vec<u8>, literals: &[u8], m: Option<(usize, usize)>) {
    let len = m.map_or(MIN_MATCH, |(_, len)| len);
    let lit_nib = literals.len().min(15);
    let match_nib = (len - MIN_MATCH).min(15);
    out.push(((lit_nib as u8) << 4) | match_nib as u8);
    if lit_nib == 15 {
        put_len(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
    if let Some((off, _)) = m {
        debug_assert!((1..=MAX_OFFSET).contains(&off));
        out.extend_from_slice(&(off as u16).to_le_bytes());
        if match_nib == 15 {
            put_len(out, len - MIN_MATCH - 15);
        }
    }
}

/// Compress `src`. The output always round-trips through [`decompress`]
/// with `expected = src.len()`; it is not guaranteed to be smaller than
/// the input (incompressible data gains a few header bytes — callers
/// store such payloads raw). One [`Compressor::write`] of the whole
/// input: the same bytes any split of it would produce.
#[must_use]
pub fn compress(src: &[u8]) -> Vec<u8> {
    let mut c = Compressor::new();
    c.out.reserve(src.len() / 2 + 16);
    c.write(src);
    c.finish()
}

/// Streaming form of [`compress`]: feed the input in any number of
/// [`Compressor::write`] calls, then [`Compressor::finish`]. The output
/// is byte-identical to `compress` of the concatenated input, however
/// it was split.
///
/// The greedy matcher only ever looks [`MAX_OFFSET`] bytes back, so the
/// compressor retains just the input from `min(anchor, pos - MAX_OFFSET)`
/// on (`anchor` starts the literal run not yet emitted): memory is the
/// hash table, about one window and the compressed output, not the
/// input; a caller that moves the output out as it goes
/// ([`Compressor::drain_to`]) holds about one block of it. Positions are
/// absolute, and one is matched only once `pos + MIN_MATCH` bytes are
/// available — the bound the one-shot loop applies to the whole input. A match whose extension reaches the end
/// of the input so far is suspended until more arrives or `finish`.
#[derive(Debug, Clone)]
pub struct Compressor {
    /// Last absolute position + 1 of each 4-byte hash; 0 = empty.
    table: Vec<u32>,
    /// Retained input, starting at absolute offset `base`.
    window: Vec<u8>,
    base: usize,
    /// Absolute start of the literal run not yet emitted.
    anchor: usize,
    /// Absolute next position to match.
    pos: usize,
    /// A match at `pos` whose extension reached the end of the input:
    /// `(absolute candidate, length so far)`.
    pending: Option<(usize, usize)>,
    out: Vec<u8>,
}

impl Default for Compressor {
    fn default() -> Compressor {
        Compressor::new()
    }
}

impl Compressor {
    /// A compressor with an empty output buffer.
    #[must_use]
    pub fn new() -> Compressor {
        Compressor {
            table: vec![0; 1 << HASH_BITS],
            window: Vec::new(),
            base: 0,
            anchor: 0,
            pos: 0,
            pending: None,
            out: Vec::new(),
        }
    }

    /// Once at least `min` bytes of output are buffered, write them all
    /// to `sink` and drop them; returns the bytes written (0 below
    /// `min`). A caller that drains after every [`Compressor::write`]
    /// holds about `min` bytes of output, whatever the input's length;
    /// what [`Compressor::finish`] returns then is the rest of the stream.
    ///
    /// # Errors
    ///
    /// The sink's write error; the buffered output is kept.
    pub fn drain_to(
        &mut self,
        sink: &mut impl std::io::Write,
        min: usize,
    ) -> std::io::Result<usize> {
        let n = self.out.len();
        if n < min.max(1) {
            return Ok(0);
        }
        sink.write_all(&self.out)?;
        self.out.clear();
        Ok(n)
    }

    /// Compress the next `data` bytes of the input.
    pub fn write(&mut self, data: &[u8]) {
        if self.window.is_empty() {
            // Nothing retained: match `data` in place and keep only the
            // tail later positions can still reach, so a one-shot
            // `compress` never copies its input.
            self.advance(data, false);
            let keep = self.keep() - self.base;
            self.window.extend_from_slice(&data[keep..]);
            self.base += keep;
        } else {
            self.window.extend_from_slice(data);
            let window = std::mem::take(&mut self.window);
            self.advance(&window, false);
            self.window = window;
            // Drop the dead prefix once it is at least a window long and
            // half the buffer, so each retained byte moves O(1) times.
            let dead = self.keep() - self.base;
            if dead >= MAX_OFFSET.max(self.window.len() / 2) {
                self.window.drain(..dead);
                self.base += dead;
            }
        }
    }

    /// Match the rest of the input, emit the final literal run and
    /// return the output buffer.
    #[must_use]
    pub fn finish(mut self) -> Vec<u8> {
        let window = std::mem::take(&mut self.window);
        self.advance(&window, true);
        put_sequence(&mut self.out, &window[self.anchor - self.base..], None);
        self.out
    }

    /// First absolute input offset any later step can still read.
    fn keep(&self) -> usize {
        self.anchor.min(self.pos.saturating_sub(MAX_OFFSET))
    }

    /// Run the greedy matcher over `src`, the input from absolute offset
    /// `self.base` to its current end. With `fin` the end is final.
    fn advance(&mut self, src: &[u8], fin: bool) {
        let base = self.base;
        let end = src.len();
        let mut pos = self.pos - base;
        let mut anchor = self.anchor - base;
        let mut found = self.pending.take().map(|(cand, len)| (cand - base, len));
        loop {
            if let Some((cand, len)) = found.take() {
                let len = extend_match(src, cand, pos, len);
                if pos + len == end && !fin {
                    self.pending = Some((cand + base, len));
                    break;
                }
                put_sequence(&mut self.out, &src[anchor..pos], Some((pos - cand, len)));
                pos += len;
                anchor = pos;
            }
            // Leave the last MIN_MATCH bytes for the trailing literal run
            // so no 4-byte read passes the end.
            while pos + MIN_MATCH < end {
                let word = read4(src, pos);
                let slot = &mut self.table[hash4(word)];
                let cand = *slot as usize;
                *slot = (base + pos + 1) as u32;
                // An in-window candidate is never before `base`: `keep`
                // retains MAX_OFFSET bytes behind every matched position.
                if cand > 0 && base + pos - (cand - 1) <= MAX_OFFSET {
                    let cand = cand - 1 - base;
                    if read4(src, cand) == word {
                        found = Some((cand, MIN_MATCH));
                        break;
                    }
                }
                pos += 1;
            }
            if found.is_none() {
                break;
            }
        }
        self.pos = base + pos;
        self.anchor = base + anchor;
    }
}

/// Extend a match of `len` bytes at `pos` against `cand < pos` up to the
/// first mismatch or the end of `src`: 8 bytes per step (the lowest set
/// byte of the XOR is the first difference), then byte by byte.
#[inline]
fn extend_match(src: &[u8], cand: usize, pos: usize, mut len: usize) -> usize {
    while pos + len + 8 <= src.len() {
        let x = read8(src, cand + len) ^ read8(src, pos + len);
        if x != 0 {
            return len + (x.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while pos + len < src.len() && src[cand + len] == src[pos + len] {
        len += 1;
    }
    len
}

/// Where a [`Decompressor`] stands in the token grammar between calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// At the token byte of the next sequence.
    Token,
    /// Inside literal-length extension bytes: the length so far and the
    /// sequence's match nibble.
    LitLen { len: usize, nib: u8 },
    /// Copying the `left` remaining literals of a sequence.
    Literals { left: usize, nib: u8 },
    /// After a literal run, at its offset field (`lo` once its first byte
    /// is read; `at` is the field's stream offset). The stream may end
    /// here: that was its final, literals-only sequence.
    Offset { lo: Option<u8>, at: usize, nib: u8 },
    /// Inside match-length extension bytes.
    MatchLen { off: usize, len: usize },
    /// Copying the `left` remaining bytes of a back-reference.
    Match { off: usize, left: usize },
}

/// Resumable decoder core behind [`decompress`]: the compressed stream
/// may arrive split anywhere, and output is produced in chunks of at
/// most the caller's bound, so a body can be decoded in bounded memory.
///
/// Each [`Decompressor::decode`] call appends to an output buffer that
/// must end with this decoder's last `min(produced, MAX_OFFSET)` output
/// bytes — the only bytes a back-reference can reach. A one-shot decode
/// keeps the whole output there; a streaming reader keeps one window.
/// Failures are typed [`LzError`]s, and the decoder never produces more
/// than the declared length.
#[derive(Debug, Clone)]
pub struct Decompressor {
    phase: Phase,
    /// Declared decoded length.
    expected: usize,
    /// Bytes produced so far.
    produced: usize,
    /// Compressed bytes consumed so far (the base of error offsets).
    consumed: usize,
}

impl Decompressor {
    /// A decoder for a stream that declares `expected` decoded bytes.
    #[must_use]
    pub fn new(expected: usize) -> Decompressor {
        Decompressor { phase: Phase::Token, expected, produced: 0, consumed: 0 }
    }

    /// Decode the next part of the stream, `src`, appending to `out`
    /// until `src` is used up or `out` has grown by `max_out` bytes.
    /// Returns how many bytes of `src` were consumed; the rest must be
    /// passed again (before any later input).
    ///
    /// # Errors
    ///
    /// A bad back-reference or an output past the declared length. The
    /// decoder is unusable afterwards.
    pub fn decode(
        &mut self,
        src: &[u8],
        out: &mut Vec<u8>,
        max_out: usize,
    ) -> Result<usize, LzError> {
        let limit = out.len().saturating_add(max_out);
        let mut pos = 0;
        let mut phase = self.phase;
        let base = self.consumed;
        let mut produced = self.produced;
        loop {
            phase = match phase {
                Phase::Token => {
                    let Some(&token) = src.get(pos) else { break };
                    pos += 1;
                    let (lit, nib) = ((token >> 4) as usize, token & 0x0f);
                    if lit == 15 {
                        Phase::LitLen { len: lit, nib }
                    } else if lit > self.expected - produced {
                        return Err(LzError::TooLong { offset: base + pos });
                    } else if lit == 0 {
                        Phase::Offset { lo: None, at: base + pos, nib }
                    } else {
                        Phase::Literals { left: lit, nib }
                    }
                }
                Phase::LitLen { len, nib } => {
                    let (len, done) = self.len_ext(src, &mut pos, len, produced)?;
                    if !done {
                        phase = Phase::LitLen { len, nib };
                        break;
                    }
                    Phase::Literals { left: len, nib }
                }
                Phase::Literals { left, nib } => {
                    let n = left.min(src.len() - pos).min(limit.saturating_sub(out.len()));
                    if n == 0 {
                        break;
                    }
                    out.extend_from_slice(&src[pos..pos + n]);
                    pos += n;
                    produced += n;
                    if n == left {
                        Phase::Offset { lo: None, at: base + pos, nib }
                    } else {
                        Phase::Literals { left: left - n, nib }
                    }
                }
                Phase::Offset { lo, at, nib } => {
                    let Some(&b) = src.get(pos) else { break };
                    pos += 1;
                    let Some(lo) = lo else {
                        phase = Phase::Offset { lo: Some(b), at, nib };
                        continue;
                    };
                    let off = usize::from(u16::from_le_bytes([lo, b]));
                    if off == 0 || off > produced || off > out.len() {
                        return Err(LzError::BadOffset { offset: at });
                    }
                    let len = usize::from(nib) + MIN_MATCH;
                    if nib == 15 {
                        Phase::MatchLen { off, len }
                    } else if len > self.expected - produced {
                        return Err(LzError::TooLong { offset: base + pos });
                    } else {
                        Phase::Match { off, left: len }
                    }
                }
                Phase::MatchLen { off, len } => {
                    let (len, done) = self.len_ext(src, &mut pos, len, produced)?;
                    if !done {
                        phase = Phase::MatchLen { off, len };
                        break;
                    }
                    Phase::Match { off, left: len }
                }
                Phase::Match { off, left } => {
                    let n = left.min(limit.saturating_sub(out.len()));
                    if n == 0 {
                        break;
                    }
                    copy_match(out, off, n);
                    produced += n;
                    if n == left {
                        Phase::Token
                    } else {
                        Phase::Match { off, left: left - n }
                    }
                }
            };
        }
        self.phase = phase;
        self.produced = produced;
        self.consumed += pos;
        Ok(pos)
    }

    /// Continue a length extension from `src[*pos..]`: `(length, done)`.
    /// A length past the output still owed is corrupt, which also stops
    /// a hostile stream from chaining 255-bytes forever.
    fn len_ext(
        &self,
        src: &[u8],
        pos: &mut usize,
        mut len: usize,
        produced: usize,
    ) -> Result<(usize, bool), LzError> {
        while let Some(&b) = src.get(*pos) {
            *pos += 1;
            len += usize::from(b);
            if len > self.expected - produced {
                return Err(LzError::TooLong { offset: self.consumed + *pos });
            }
            if b < 255 {
                return Ok((len, true));
            }
        }
        Ok((len, false))
    }

    /// End of input: the stream must have stopped right after a final
    /// literal run, with exactly the declared length produced.
    ///
    /// # Errors
    ///
    /// [`LzError::Truncated`] when the input stopped anywhere else,
    /// [`LzError::ShortOutput`] when too few bytes were produced.
    pub fn finish(&self) -> Result<(), LzError> {
        match self.phase {
            Phase::Offset { lo: None, .. } if self.produced == self.expected => Ok(()),
            Phase::Offset { lo: None, .. } => {
                Err(LzError::ShortOutput { produced: self.produced, expected: self.expected })
            }
            _ => Err(LzError::Truncated { offset: self.consumed }),
        }
    }
}

/// Decompress a [`compress`]ed stream into exactly `expected` bytes.
///
/// # Errors
///
/// Any structural defect — truncation, bad back-reference, or a decoded
/// size other than `expected` — is a typed [`LzError`]. This function
/// never panics and never allocates more than `expected` output bytes.
pub fn decompress(src: &[u8], expected: usize) -> Result<Vec<u8>, LzError> {
    let mut out: Vec<u8> = Vec::with_capacity(expected);
    let mut d = Decompressor::new(expected);
    d.decode(src, &mut out, usize::MAX)?;
    d.finish()?;
    Ok(out)
}

/// Append the `len`-byte back-reference at distance `off` (checked:
/// `1 <= off <= out.len()`). A reference with `off >= len` is one
/// block copy. An overlapping one (`off < len`) re-reads bytes the copy
/// itself produces, so its output repeats the `off` bytes at `start`
/// with period `off`: it is copied from `start` in chunks that double
/// in length, each written a whole number of periods past `start` and
/// reading only bytes already written.
#[inline]
fn copy_match(out: &mut Vec<u8>, off: usize, len: usize) {
    let start = out.len() - off;
    let mut done = 0;
    while done < len {
        let n = (len - done).min(off + done);
        out.extend_from_within(start..start + n);
        done += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) {
        let packed = compress(data);
        let back = decompress(&packed, data.len()).expect("decompresses");
        assert_eq!(back, data, "round trip of {} bytes", data.len());
    }

    #[test]
    fn round_trips_edge_cases() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"abc");
        round_trip(b"abcd");
        round_trip(b"abcdabcd");
        round_trip(&[0u8; 4096]); // maximally overlapping match
        round_trip(&(0..=255u8).collect::<Vec<_>>()); // pure literals
    }

    #[test]
    fn round_trips_long_runs_and_large_lengths() {
        // > 15 literals (literal-length extension), > 19-byte matches
        // (match-length extension), > 255 extension continuation.
        let mut data = Vec::new();
        for i in 0..600u32 {
            data.extend_from_slice(&i.to_le_bytes());
        }
        data.extend_from_slice(&vec![7u8; 5000]);
        data.extend_from_slice(&data.clone());
        round_trip(&data);
    }

    #[test]
    fn round_trips_pseudorandom_and_trace_like_data() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        // Incompressible noise.
        let noise: Vec<u8> = (0..10_000).map(|_| rng() as u8).collect();
        round_trip(&noise);
        // Trace-like: repeated small records with drifting fields.
        let mut trace = Vec::new();
        for i in 0..5_000u64 {
            trace.push((i % 7) as u8);
            trace.extend_from_slice(&(0x4000 + (i % 13) * 8).to_le_bytes()[..3]);
            trace.push((rng() % 4) as u8);
        }
        let packed = compress(&trace);
        assert!(packed.len() < trace.len() / 2, "trace-like data should compress >2x");
        round_trip(&trace);
    }

    #[test]
    fn compresses_repetitive_data_well() {
        let data = b"the quick brown fox jumps over the lazy dog. ".repeat(200);
        let packed = compress(&data);
        assert!(packed.len() * 10 < data.len(), "ratio {}/{}", packed.len(), data.len());
    }

    #[test]
    fn matches_never_cross_the_window() {
        // Repeat a block at a distance beyond MAX_OFFSET: the second copy
        // cannot reference the first, but the stream must stay valid.
        let block: Vec<u8> = (0..97u8).cycle().take(8_192).collect();
        let mut data = block.clone();
        data.extend_from_slice(&vec![0u8; MAX_OFFSET + 1]);
        data.extend_from_slice(&block);
        round_trip(&data);
    }

    #[test]
    fn decompress_rejects_corruption_without_panicking() {
        let data = b"abcdefgh abcdefgh abcdefgh tail".repeat(20);
        let packed = compress(&data);
        // Every truncation point.
        for len in 0..packed.len() {
            let _ = decompress(&packed[..len], data.len());
        }
        // Every single-byte corruption, at every declared size nearby.
        for i in 0..packed.len() {
            let mut bad = packed.clone();
            bad[i] ^= 0xa5;
            for expected in [0, 1, data.len() - 1, data.len(), data.len() + 1] {
                if let Ok(out) = decompress(&bad, expected) {
                    assert_eq!(out.len(), expected);
                }
            }
        }
        // Pseudorandom garbage.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..200 {
            let n = (x % 300) as usize;
            let junk: Vec<u8> = (0..n)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                })
                .collect();
            let _ = decompress(&junk, 4096);
        }
    }

    /// Byte-at-a-time reference for a back-reference copy.
    fn copy_bytewise(out: &mut Vec<u8>, off: usize, len: usize) {
        for from in out.len() - off..out.len() - off + len {
            let b = out[from];
            out.push(b);
        }
    }

    #[test]
    fn block_copy_matches_bytewise_reference() {
        let prefix: Vec<u8> = (1..=16u8).collect();
        for off in 1..=16 {
            for len in MIN_MATCH..=300 {
                let mut want = prefix.clone();
                copy_bytewise(&mut want, off, len);
                let mut got = prefix.clone();
                copy_match(&mut got, off, len);
                assert_eq!(got, want, "off {off} len {len}");
                // The same match through the stream decoder.
                let mut stream = Vec::new();
                put_sequence(&mut stream, &prefix, Some((off, len)));
                put_sequence(&mut stream, &[], None);
                assert_eq!(decompress(&stream, want.len()).expect("decodes"), want);
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn block_copy_matches_bytewise_on_random_inputs(
            prefix in proptest::collection::vec(0u8..4, 1..80),
            off_pick in proptest::prelude::any::<usize>(),
            len in 0usize..1500,
            runs in proptest::collection::vec((0u8..3, 1usize..40), 1..60),
        ) {
            let off = 1 + off_pick % prefix.len();
            let mut want = prefix.clone();
            copy_bytewise(&mut want, off, len);
            let mut got = prefix.clone();
            copy_match(&mut got, off, len);
            assert_eq!(got, want, "off {off} len {len}");
            // Low-entropy runs: the compressor emits overlapping matches
            // at many offsets, all decoded by block copy.
            let data: Vec<u8> =
                runs.iter().flat_map(|&(b, n)| std::iter::repeat_n(b, n)).collect();
            round_trip(&data);
        }
    }

    /// The one-shot greedy matcher the streaming [`Compressor`] replaced:
    /// the oracle every split of the input must reproduce byte for byte.
    fn compress_reference(src: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(src.len() / 2 + 16);
        if src.len() < MIN_MATCH + 1 {
            put_sequence(&mut out, src, None);
            return out;
        }
        let mut table = vec![0u32; 1 << HASH_BITS];
        let mut anchor = 0usize;
        let mut pos = 0usize;
        let limit = src.len() - MIN_MATCH;
        while pos < limit {
            let word = read4(src, pos);
            let slot = &mut table[hash4(word)];
            let cand = *slot as usize;
            *slot = (pos + 1) as u32;
            if cand > 0 {
                let cand = cand - 1;
                if pos - cand <= MAX_OFFSET && read4(src, cand) == word {
                    let mut len = MIN_MATCH;
                    while pos + len < src.len() && src[cand + len] == src[pos + len] {
                        len += 1;
                    }
                    put_sequence(&mut out, &src[anchor..pos], Some((pos - cand, len)));
                    pos += len;
                    anchor = pos;
                    continue;
                }
            }
            pos += 1;
        }
        put_sequence(&mut out, &src[anchor..], None);
        out
    }

    /// Compress `data` in writes of the `cuts` lengths, cycled; whatever
    /// an empty `cuts` leaves goes in one write.
    fn compress_split(data: &[u8], cuts: &[usize]) -> Vec<u8> {
        let mut c = Compressor::new();
        let mut rest = data;
        for &n in cuts.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let n = n.min(rest.len());
            c.write(&rest[..n]);
            rest = &rest[n..];
        }
        c.write(rest);
        c.finish()
    }

    /// Trace-like bytes: a loop body of `body` records replayed with a
    /// drifting field, so most of the input is long matches.
    fn trace_like(records: usize, body: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        let mut out = Vec::with_capacity(records * 6);
        for i in 0..records {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let r = (i % body) as u64;
            out.push((r % 7) as u8);
            out.extend_from_slice(&(0x4000 + r * 8).to_le_bytes()[..3]);
            out.push(if x & 15 == 0 { (x >> 8) as u8 } else { (i / body % 3) as u8 });
        }
        out
    }

    #[test]
    fn one_shot_matches_the_reference_matcher() {
        let mut inputs: Vec<Vec<u8>> = vec![
            Vec::new(),
            b"a".to_vec(),
            b"abcd".to_vec(),
            b"abcde".to_vec(),
            b"abcdabcd".to_vec(),
            vec![0u8; 4096],
            (0..=255u8).collect(),
            b"the quick brown fox jumps over the lazy dog. ".repeat(200),
            trace_like(40_000, 97, 7),
        ];
        let block: Vec<u8> = (0..97u8).cycle().take(8_192).collect();
        let mut far = block.clone();
        far.extend_from_slice(&vec![0u8; MAX_OFFSET + 1]);
        far.extend_from_slice(&block);
        inputs.push(far);
        for data in &inputs {
            assert_eq!(compress(data), compress_reference(data), "len {}", data.len());
        }
    }

    #[test]
    fn streaming_matches_the_reference_across_window_trims() {
        // 300 KB: several MAX_OFFSET windows, so the retained buffer is
        // trimmed many times while matches and literal runs span writes.
        let mut data = trace_like(50_000, 331, 11);
        data.extend_from_slice(&vec![9u8; 70_000]);
        let noise: Vec<u8> = trace_like(1_000, 1, 3).iter().map(|b| b.wrapping_mul(151)).collect();
        data.extend_from_slice(&noise);
        data.extend_from_slice(&trace_like(4_000, 1_000, 5));
        let want = compress_reference(&data);
        for cuts in [&[1usize][..], &[7, 1, 4093], &[MAX_OFFSET + 1], &[1 << 20], &[3, 65_536]] {
            assert_eq!(compress_split(&data, cuts), want, "cuts {cuts:?}");
        }
    }

    proptest::proptest! {
        #[test]
        fn streaming_matches_the_reference_at_random_splits(
            kind in 0u8..3,
            noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..3000),
            runs in proptest::collection::vec((0u8..3, 1usize..400), 0..60),
            records in 0usize..6000,
            body in 1usize..300,
            cuts in proptest::collection::vec(1usize..2000, 0..8),
            small in proptest::collection::vec(1usize..5, 1..4),
        ) {
            let data: Vec<u8> = match kind {
                0 => noise,
                1 => runs.iter().flat_map(|&(b, n)| std::iter::repeat_n(b, n)).collect(),
                _ => trace_like(records, body, records as u64),
            };
            let want = compress_reference(&data);
            assert_eq!(compress_split(&data, &cuts), want, "cuts {cuts:?}");
            assert_eq!(compress_split(&data, &small), want, "cuts {small:?}");
        }
    }

    #[test]
    fn decoder_keeps_the_prefix_out_of_reach() {
        // Decode appending to `out` behind bytes that are not its output.
        let decode_after = |prefix: &[u8], stream: &[u8], expected: usize| {
            let mut out = prefix.to_vec();
            let mut d = Decompressor::new(expected);
            d.decode(stream, &mut out, usize::MAX).and_then(|_| d.finish()).map(|()| out)
        };
        let data = b"abcabcabcabc tail".repeat(30);
        let out = decode_after(b"HEAD", &compress(&data), data.len()).expect("decodes");
        assert_eq!(&out[..4], b"HEAD");
        assert_eq!(&out[4..], &data[..]);
        // A first back-reference one byte long would read the prefix.
        let mut stream = Vec::new();
        put_sequence(&mut stream, b"", Some((1, MIN_MATCH)));
        put_sequence(&mut stream, b"", None);
        assert_eq!(
            decode_after(b"HEAD", &stream, MIN_MATCH),
            Err(LzError::BadOffset { offset: 1 })
        );
    }

    #[test]
    fn declared_size_is_enforced() {
        let data = vec![3u8; 1000];
        let packed = compress(&data);
        assert!(decompress(&packed, 999).is_err(), "undershoot accepted");
        assert!(decompress(&packed, 1001).is_err(), "overshoot accepted");
        assert_eq!(decompress(&packed, 1000).expect("exact"), data);
    }

    /// Decode `src` through a [`Decompressor`] fed in pieces of the `cuts`
    /// lengths (cycled; an empty `cuts` feeds one piece), taking at most
    /// `chunk` bytes of output per call and keeping only a [`MAX_OFFSET`]
    /// history between calls, as a streaming reader does.
    fn decompress_split(
        src: &[u8],
        expected: usize,
        cuts: &[usize],
        chunk: usize,
    ) -> Result<Vec<u8>, LzError> {
        let mut d = Decompressor::new(expected);
        let (mut window, mut out) = (Vec::new(), Vec::new());
        let mut pieces = Vec::new();
        let mut rest = src;
        for &n in cuts.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (head, tail) = rest.split_at(n.min(rest.len()));
            pieces.push(head);
            rest = tail;
        }
        pieces.push(rest);
        for mut piece in pieces {
            loop {
                let before = window.len();
                let used = d.decode(piece, &mut window, chunk)?;
                let made = window.len() - before;
                assert!(made <= chunk, "{made} bytes out of a {chunk}-byte call");
                out.extend_from_slice(&window[before..]);
                piece = &piece[used..];
                if window.len() > MAX_OFFSET {
                    window.drain(..window.len() - MAX_OFFSET);
                }
                if made < chunk && piece.is_empty() {
                    break;
                }
            }
        }
        d.finish()?;
        Ok(out)
    }

    proptest::proptest! {
        #[test]
        fn streamed_decode_matches_one_shot_at_any_split_and_chunk(
            kind in 0u8..3,
            noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..3000),
            runs in proptest::collection::vec((0u8..3, 1usize..3000), 0..60),
            records in 0usize..6000,
            body in 1usize..300,
            cuts in proptest::collection::vec(1usize..2000, 0..8),
            chunk in 1usize..5000,
            flip_at in proptest::prelude::any::<usize>(),
            flip_bits in proptest::prelude::any::<u8>(),
        ) {
            let data: Vec<u8> = match kind {
                0 => noise,
                1 => runs.iter().flat_map(|&(b, n)| std::iter::repeat_n(b, n)).collect(),
                _ => trace_like(records, body, records as u64),
            };
            let mut packed = compress(&data);
            let want = decompress(&packed, data.len());
            assert_eq!(want.as_ref(), Ok(&data));
            assert_eq!(decompress_split(&packed, data.len(), &cuts, chunk), want);
            assert_eq!(decompress_split(&packed, data.len(), &[1], chunk), want);
            // A corrupted stream fails (or decodes) identically.
            let at = flip_at % packed.len();
            packed[at] ^= flip_bits | 1;
            let want = decompress(&packed, data.len());
            assert_eq!(decompress_split(&packed, data.len(), &cuts, chunk), want);
        }
    }

    #[test]
    fn streamed_decode_keeps_a_window_across_long_matches() {
        // Far repeats, long runs and literal runs longer than a chunk.
        let block: Vec<u8> = trace_like(3_000, 97, 5);
        let mut data = block.clone();
        data.extend_from_slice(&vec![4u8; 200_000]);
        data.extend_from_slice(&trace_like(20_000, 1, 9).iter().map(|b| b.wrapping_mul(31)).collect::<Vec<_>>());
        data.extend_from_slice(&block);
        let packed = compress(&data);
        for (cuts, chunk) in [(&[1usize][..], 1usize), (&[7, 4093], 100), (&[], 1 << 16), (&[65_536], 3)] {
            assert_eq!(
                decompress_split(&packed, data.len(), cuts, chunk).expect("decodes"),
                data,
                "cuts {cuts:?}, chunk {chunk}"
            );
        }
    }

    #[test]
    fn streamed_decode_types_every_truncation_bad_offset_and_overrun() {
        let data = b"abcdefgh abcdefgh abcdefgh tail".repeat(20);
        let packed = compress(&data);
        // Every truncation: the input stops before the stream's end.
        for len in 0..packed.len() {
            let got = decompress_split(&packed[..len], data.len(), &[3], 7);
            assert!(
                matches!(got, Err(LzError::Truncated { .. } | LzError::ShortOutput { .. })),
                "prefix {len}: {got:?}"
            );
            assert_eq!(got, decompress(&packed[..len], data.len()), "prefix {len}");
        }
        // A back-reference before the start, and a zero offset.
        for off in [0usize, 1, 9] {
            let mut stream = Vec::new();
            put_sequence(&mut stream, b"abcdefgh", Some((8, MIN_MATCH)));
            stream.extend_from_slice(&[0x00, off as u8, 0]);
            put_sequence(&mut stream, b"", None);
            let got = decompress_split(&stream, 100, &[1], 1);
            if off == 0 || off > 12 {
                assert!(matches!(got, Err(LzError::BadOffset { .. })), "off {off}: {got:?}");
            }
            assert_eq!(got, decompress(&stream, 100), "off {off}");
        }
        let mut stream = Vec::new();
        put_sequence(&mut stream, b"", Some((1, MIN_MATCH)));
        assert_eq!(decompress_split(&stream, 4, &[1], 1), Err(LzError::BadOffset { offset: 1 }));
        // Too long: a declared size one short, and bytes after the end.
        assert!(matches!(
            decompress_split(&packed, data.len() - 1, &[5], 64),
            Err(LzError::TooLong { .. })
        ));
        let mut longer = packed.clone();
        longer.extend_from_slice(&packed);
        let got = decompress_split(&longer, data.len(), &[5], 64);
        assert!(matches!(got, Err(LzError::TooLong { .. } | LzError::BadOffset { .. })), "{got:?}");
        // A hostile 255-chain stops at the declared size, not at its end.
        let mut chain = vec![0xf0];
        chain.extend(std::iter::repeat_n(255u8, 10_000));
        assert!(matches!(decompress_split(&chain, 1_000, &[2], 9), Err(LzError::TooLong { .. })));
    }
}
