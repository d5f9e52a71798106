//! Property-based coverage of the `CKSR` sim-object codec.
//!
//! The unit tests in `simresult.rs` pin hand-picked corners (negative
//! zero, subnormals, a stale revision). This file widens the net to
//! arbitrary payloads: every `SimResult` whose 34 payload words are
//! arbitrary 64-bit patterns — so the `f64` fields include NaNs with
//! arbitrary payload bits, infinities, and every other representable
//! value — must survive `encode → decode` bit-exactly, every strict
//! truncation must be rejected, and every single-byte corruption must be
//! rejected (the trailing FNV-1a checksum covers the whole body, so no
//! flip can go unnoticed).
//!
//! Equality is asserted on the re-encoded byte image, not the derived
//! `PartialEq`: `NaN != NaN` and `-0.0 == 0.0` under IEEE comparison,
//! and the memoization contract is *bitwise* identity.

use checkelide_uarch::{CacheStats, RegionTotals, SimObject, SimResult, SIM_OBJECT_LEN};
use proptest::prelude::*;

/// Build a `SimResult` from 34 arbitrary payload words (declaration
/// order, `f64`s from raw bits) — the exact inverse of the encoder's
/// payload walk, so every representable object is reachable.
fn result_from_words(w: &[u64; 34]) -> SimResult {
    let cache = |at: usize| CacheStats { accesses: w[at], hits: w[at + 1], misses: w[at + 2] };
    SimResult {
        cycles: w[0],
        uops: w[1],
        regions: [
            RegionTotals { uops: w[2], cycles: w[3], dynamic_pj: f64::from_bits(w[4]) },
            RegionTotals { uops: w[5], cycles: w[6], dynamic_pj: f64::from_bits(w[7]) },
            RegionTotals { uops: w[8], cycles: w[9], dynamic_pj: f64::from_bits(w[10]) },
        ],
        energy_pj: f64::from_bits(w[11]),
        energy_optimized_pj: f64::from_bits(w[12]),
        dl1: cache(13),
        il1: cache(16),
        l2: cache(19),
        dtlb: cache(22),
        itlb: cache(25),
        branch_lookups: w[28],
        branch_mispredicts: w[29],
        fetch_stall: w[30],
        src_wait: w[31],
        window_wait: w[32],
        mem_wait: w[33],
    }
}

fn arb_object() -> BoxedStrategy<SimObject> {
    (
        proptest::collection::vec(any::<u64>(), 34..35),
        proptest::collection::vec(any::<u64>(), 4..5),
        any::<u64>(),
    )
        .prop_map(|(words, cid_words, fp)| {
            let w: [u64; 34] = words.try_into().expect("exact length requested");
            let mut cid = [0u8; 32];
            for (chunk, word) in cid.chunks_mut(8).zip(&cid_words) {
                chunk.copy_from_slice(&word.to_le_bytes());
            }
            SimObject::new(cid, fp, result_from_words(&w))
        })
        .boxed()
}

proptest! {
    #[test]
    fn round_trip_is_bitwise_for_arbitrary_payloads(obj in arb_object()) {
        let bytes = obj.encode();
        prop_assert_eq!(bytes.len(), SIM_OBJECT_LEN);
        let back = SimObject::decode(&bytes).expect("valid object must decode");
        prop_assert_eq!(back.trace_cid, obj.trace_cid);
        prop_assert_eq!(back.fingerprint, obj.fingerprint);
        // Bitwise contract: re-encoding reproduces the exact image, NaN
        // payloads and signed zeros included.
        prop_assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn truncation_is_rejected_at_every_length(
        obj in arb_object(),
        len in 0usize..SIM_OBJECT_LEN,
    ) {
        let bytes = obj.encode();
        prop_assert!(SimObject::decode(&bytes[..len]).is_none(), "prefix of {len} accepted");
    }

    #[test]
    fn single_byte_corruption_is_rejected_everywhere(
        obj in arb_object(),
        at in 0usize..SIM_OBJECT_LEN,
        flip in 1u8..=255,
    ) {
        let mut bytes = obj.encode();
        bytes[at] ^= flip;
        prop_assert!(
            SimObject::decode(&bytes).is_none(),
            "flip of {flip:#04x} at byte {at} accepted"
        );
    }
}
