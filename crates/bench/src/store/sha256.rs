//! SHA-256, the store's content-ID function (std-only).
//!
//! One padding routine feeds whole 64-byte blocks to a block function
//! chosen at run time: the x86 SHA extensions when the CPU has them,
//! otherwise the portable scalar rounds. Both compute the same function,
//! so a content ID never depends on the host that computed it.

const SHA_K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2,
];

const SHA_H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
    0x5be0cd19,
];

/// A block function: folds `blocks` (a whole number of 64-byte blocks)
/// into the chaining state `h`.
type Compress = fn(&mut [u32; 8], &[u8]);

/// SHA-256 of `data` (the store's content-ID function): one
/// [`Sha256::update`] of the whole input.
#[must_use]
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Name of the block function [`sha256`] uses on this host: `"sha-ni"`
/// (x86 SHA extensions) or `"scalar"`.
#[must_use]
pub fn sha256_backend() -> &'static str {
    backend().0
}

/// The one run-time switch: CPU feature detection, nothing else.
fn backend() -> (&'static str, Compress) {
    #[cfg(target_arch = "x86_64")]
    if has_sha_ni() {
        return ("sha-ni", compress_sha_ni);
    }
    ("scalar", compress_scalar)
}

/// Incremental SHA-256: [`Sha256::update`] any number of times, then
/// [`Sha256::finalize`]. The digest equals [`sha256`] of the
/// concatenated input however it was split. Whole blocks are hashed in
/// place; only a partial block is buffered between updates.
#[derive(Clone, Debug)]
pub struct Sha256 {
    h: [u32; 8],
    /// The partial block not yet hashed (`buf_len` bytes).
    buf: [u8; 64],
    buf_len: usize,
    /// Total bytes fed.
    len: u64,
    compress: Compress,
}

impl Default for Sha256 {
    fn default() -> Sha256 {
        Sha256::new()
    }
}

impl Sha256 {
    /// A fresh hash on this host's block function.
    #[must_use]
    pub fn new() -> Sha256 {
        Sha256::with_block_fn(backend().1)
    }

    fn with_block_fn(compress: Compress) -> Sha256 {
        Sha256 { h: SHA_H0, buf: [0; 64], buf_len: 0, len: 0, compress }
    }

    /// Hash the next `data` bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len += data.len() as u64;
        if self.buf_len > 0 {
            let n = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + n].copy_from_slice(&data[..n]);
            self.buf_len += n;
            data = &data[n..];
            if self.buf_len < 64 {
                return;
            }
            (self.compress)(&mut self.h, &self.buf);
            self.buf_len = 0;
        }
        let bulk = data.len() - data.len() % 64;
        (self.compress)(&mut self.h, &data[..bulk]);
        let rem = &data[bulk..];
        self.buf[..rem.len()].copy_from_slice(rem);
        self.buf_len = rem.len();
    }

    /// Pad, hash the final one or two blocks and return the digest.
    #[must_use]
    pub fn finalize(mut self) -> [u8; 32] {
        let rem = self.buf_len;
        let mut tail = [0u8; 128];
        tail[..rem].copy_from_slice(&self.buf[..rem]);
        tail[rem] = 0x80;
        let tail_len = if rem >= 56 { 128 } else { 64 };
        tail[tail_len - 8..tail_len].copy_from_slice(&(self.len * 8).to_be_bytes());
        (self.compress)(&mut self.h, &tail[..tail_len]);
        let mut out = [0u8; 32];
        for (i, word) in self.h.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

fn compress_scalar(h: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        sha_block(h, block.try_into().expect("exact chunk"));
    }
}

fn sha_block(h: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, word) in w.iter_mut().take(16).enumerate() {
        *word = u32::from_be_bytes([
            block[4 * i],
            block[4 * i + 1],
            block[4 * i + 2],
            block[4 * i + 3],
        ]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *h;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = hh
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(SHA_K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        hh = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
        *s = s.wrapping_add(v);
    }
}

/// Whether this CPU has every feature [`compress_sha_ni_unchecked`] is
/// compiled for. `std` caches the CPUID probe, so this is a few loads.
#[cfg(target_arch = "x86_64")]
fn has_sha_ni() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse2")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

#[cfg(target_arch = "x86_64")]
fn compress_sha_ni(h: &mut [u32; 8], blocks: &[u8]) {
    assert!(has_sha_ni(), "SHA-NI block function on a CPU without SHA extensions");
    // SAFETY: the assertion above checked at run time that this CPU
    // supports every target feature the callee enables.
    unsafe { compress_sha_ni_unchecked(h, blocks) }
}

/// The SHA-256 block function on the x86 SHA extensions. The state is
/// kept in the ABEF/CDGH lane order `sha256rnds2` expects; each loop
/// step runs four rounds and, from the fifth step on, derives the next
/// four schedule words with `sha256msg1` / `sha256msg2`.
///
/// # Safety
///
/// The CPU must support `sha`, `sse2`, `ssse3` and `sse4.1`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
unsafe fn compress_sha_ni_unchecked(h: &mut [u32; 8], blocks: &[u8]) {
    use std::arch::x86_64::*;

    // Byte-swaps each 32-bit lane: message words are big-endian.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    // SAFETY (all `loadu`/`storeu` below): the unaligned forms have no
    // alignment requirement, and every 16-byte access lies inside its
    // source: `h` is 32 bytes, `SHA_K` 256 bytes, and each `block` is
    // exactly 64 bytes from `chunks_exact(64)`.
    let dcba = _mm_loadu_si128(h.as_ptr().cast());
    let hgfe = _mm_loadu_si128(h.as_ptr().add(4).cast());
    let cdab = _mm_shuffle_epi32(dcba, 0xb1);
    let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let p = block.as_ptr();
        let mut w = [
            _mm_shuffle_epi8(_mm_loadu_si128(p.cast()), bswap),
            _mm_shuffle_epi8(_mm_loadu_si128(p.add(16).cast()), bswap),
            _mm_shuffle_epi8(_mm_loadu_si128(p.add(32).cast()), bswap),
            _mm_shuffle_epi8(_mm_loadu_si128(p.add(48).cast()), bswap),
        ];
        for i in 0..16 {
            if i >= 4 {
                // W[4i..4i+4] from the previous four groups; `w[i % 4]`
                // still holds group i-4 until it is overwritten here.
                let (w0, w1, w2, w3) = (w[i % 4], w[(i + 1) % 4], w[(i + 2) % 4], w[(i + 3) % 4]);
                let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
                w[i % 4] = _mm_sha256msg2_epu32(t, w3);
            }
            let wk = _mm_add_epi32(w[i % 4], _mm_loadu_si128(SHA_K.as_ptr().add(4 * i).cast()));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32(abef, 0x1b);
    let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    _mm_storeu_si128(h.as_mut_ptr().cast(), _mm_blend_epi16(feba, dchg, 0xf0));
    _mm_storeu_si128(h.as_mut_ptr().add(4).cast(), _mm_alignr_epi8(dchg, feba, 8));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::cid_hex;
    use proptest::prelude::*;

    /// Every block function this host can run, by name. The scalar one is
    /// always present, so it stays tested on SHA-capable hosts too.
    fn backends() -> Vec<(&'static str, Compress)> {
        let mut out: Vec<(&'static str, Compress)> = vec![("scalar", compress_scalar)];
        #[cfg(target_arch = "x86_64")]
        if has_sha_ni() {
            out.push(("sha-ni", compress_sha_ni));
        }
        out
    }

    /// One-update digest on a given block function.
    fn digest(data: &[u8], compress: Compress) -> [u8; 32] {
        let mut h = Sha256::with_block_fn(compress);
        h.update(data);
        h.finalize()
    }

    fn scalar(data: &[u8]) -> [u8; 32] {
        digest(data, compress_scalar)
    }

    /// Digest of `data` fed in updates of the `cuts` lengths, cycled;
    /// whatever an empty `cuts` leaves goes in one update.
    fn split_digest(data: &[u8], cuts: &[usize], compress: Compress) -> [u8; 32] {
        let mut h = Sha256::with_block_fn(compress);
        let mut rest = data;
        for &n in cuts.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let n = n.min(rest.len());
            h.update(&rest[..n]);
            rest = &rest[n..];
        }
        h.update(rest);
        h.finalize()
    }

    /// Deterministic non-repeating test bytes.
    fn bytes(n: usize) -> Vec<u8> {
        let mut rng = TestRng::from_name("sha256");
        (0..n).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn sha256_matches_nist_vectors() {
        let million_a = vec![0x61u8; 1_000_000];
        let vectors: [(&[u8], &str); 4] = [
            (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (&million_a, "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"),
        ];
        for (name, compress) in backends() {
            for (input, want) in vectors {
                assert_eq!(cid_hex(&digest(input, compress)), want, "{name}, len {}", input.len());
            }
        }
        for (input, want) in vectors {
            assert_eq!(cid_hex(&sha256(input)), want, "dispatched, len {}", input.len());
        }
    }

    #[test]
    fn incremental_matches_nist_vectors_at_any_update_sizes() {
        let million_a = vec![0x61u8; 1_000_000];
        let vectors: [(&[u8], &str); 3] = [
            (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (&million_a, "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"),
        ];
        for (name, compress) in backends() {
            for (input, want) in vectors {
                for cuts in [&[1usize][..], &[63], &[64], &[65], &[7, 1, 200, 4096]] {
                    assert_eq!(
                        cid_hex(&split_digest(input, cuts, compress)),
                        want,
                        "{name}, len {}, cuts {cuts:?}",
                        input.len()
                    );
                }
            }
        }
    }

    #[test]
    fn incremental_matches_one_shot_at_every_split_to_1024() {
        let buf = bytes(1024);
        for (name, compress) in backends() {
            for n in [0, 1, 55, 56, 63, 64, 65, 119, 120, 128, 1000, 1024] {
                let want = digest(&buf[..n], compress);
                for k in 0..=n {
                    let mut h = Sha256::with_block_fn(compress);
                    h.update(&buf[..k]);
                    h.update(&buf[k..n]);
                    assert_eq!(h.finalize(), want, "{name}, len {n}, split at {k}");
                }
            }
            for n in 0..=1024 {
                assert_eq!(
                    split_digest(&buf[..n], &[1], compress),
                    digest(&buf[..n], compress),
                    "{name}, len {n}, byte at a time"
                );
            }
        }
    }

    #[test]
    fn dispatch_uses_the_hardware_path_when_the_cpu_has_it() {
        let want = backends().last().expect("scalar is always present").0;
        assert_eq!(sha256_backend(), want);
    }

    #[test]
    fn dispatched_matches_scalar_at_every_length_to_1024() {
        let buf = bytes(1024);
        for n in 0..=1024 {
            assert_eq!(sha256(&buf[..n]), scalar(&buf[..n]), "len {n}");
        }
    }

    #[test]
    fn dispatched_matches_scalar_at_every_start_offset() {
        let buf = bytes(64 + 4096 + 63);
        for start in 0..64 {
            for len in [0, 1, 55, 56, 64, 100, 4096 + 63] {
                let s = &buf[start..start + len];
                assert_eq!(sha256(s), scalar(s), "offset {start}, len {len}");
            }
        }
    }

    proptest! {
        #[test]
        fn dispatched_matches_scalar_on_random_buffers(
            data in proptest::collection::vec(any::<u8>(), 0..64 * 1024 + 1)
        ) {
            prop_assert_eq!(sha256(&data), scalar(&data));
        }
    }
}
