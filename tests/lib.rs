//! Shared helpers for the cross-crate integration tests.
//!
//! The actual tests live in this package's `tests/` directory; this
//! library only hosts small fixtures they share.

use vod_net::topologies::grnet::Grnet;

/// Builds the paper's GRNET case-study backbone.
pub fn grnet() -> Grnet {
    Grnet::new()
}

/// Default deterministic seed used across integration tests.
pub const TEST_SEED: u64 = 0xB0A5_1999;

/// FNV-1a 64 over `bytes` — cheap, dependency-free, and stable across
/// platforms; the golden pins hash byte-deterministic traces and series
/// exports with it.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}
