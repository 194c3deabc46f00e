//! Fixtures shared by the integration tests of the sealed formats: an
//! independent copy of the documented seal, re-sealing, the corruption
//! sweeps, and the representative plan-serving request batch.

#![allow(dead_code)]

use hidwa_core::partition::Objective;
use hidwa_core::serve::codec::{
    ModelId, PlanRequest, ProjectionRequest, Request, WireContext, WireLink,
};
use hidwa_eqs::body::BodySite;
use hidwa_phy::RadioTechnology;

/// Every objective, in wire order.
pub const OBJECTIVES: [Objective; 3] = [
    Objective::LeafEnergy,
    Objective::Latency,
    Objective::EnergyDelayProduct,
];

/// A request batch exercising every query kind, link kind and flag state.
pub fn representative_requests() -> Vec<Request> {
    let mut requests = Vec::new();
    for (i, model) in ModelId::ALL.into_iter().enumerate() {
        requests.push(Request::Plan(PlanRequest {
            model,
            context: WireContext::of(WireLink::WiR),
            objective: OBJECTIVES[i % 3],
        }));
    }
    requests.push(Request::Plan(PlanRequest {
        model: ModelId::KeywordSpotting,
        context: WireContext::of(WireLink::Ble).without_quantization(),
        objective: Objective::Latency,
    }));
    requests.push(Request::Plan(PlanRequest {
        model: ModelId::EcgArrhythmia,
        context: WireContext::of(WireLink::Site(RadioTechnology::WiR, BodySite::Ankle))
            .with_energy_per_bit_pj(37.5)
            .with_goodput_bps(1.25e6),
        objective: Objective::EnergyDelayProduct,
    }));
    requests.push(Request::Projection(ProjectionRequest { rate_bps: 4000.0 }));
    requests
}

/// Re-implementation of the documented FNV-1a 64 seal (ARCHITECTURE.md,
/// "Sealed envelope"), deliberately not the crate's own, so tests can mint
/// structurally valid blobs with chosen fields.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Recomputes the trailing seal after a mutation, so the tampering under
/// test — not the seal — decides whether the blob decodes.
pub fn reseal(blob: &mut [u8]) {
    let body_len = blob.len() - 8;
    let seal = fnv1a64(&blob[..body_len]);
    blob[body_len..].copy_from_slice(&seal.to_be_bytes());
}

/// Asserts that `decode` rejects every proper prefix of `blob` (a `what`).
pub fn assert_every_prefix_rejected<T, E>(
    blob: &[u8],
    what: &str,
    decode: impl Fn(&[u8]) -> Result<T, E>,
) {
    for cut in 0..blob.len() {
        assert!(
            decode(&blob[..cut]).is_err(),
            "a {cut}-byte prefix of a {}-byte {what} decoded",
            blob.len()
        );
    }
}

/// Asserts that `decode` rejects `blob` (a `what`) with one bit flipped, for
/// every byte position.  The flipped bit rotates with the position so all
/// eight bit lanes are exercised: the FNV seal catches every single-bit flip
/// by construction, and the sweep proves no decode path panics or accepts.
pub fn assert_every_bit_flip_rejected<T, E>(
    blob: &[u8],
    what: &str,
    decode: impl Fn(&[u8]) -> Result<T, E>,
) {
    for position in 0..blob.len() {
        let bit = position % 8;
        let mut tampered = blob.to_vec();
        tampered[position] ^= 1 << bit;
        assert!(
            decode(&tampered).is_err(),
            "bit {bit} of byte {position} of a {what} flipped and it still decoded"
        );
    }
}
