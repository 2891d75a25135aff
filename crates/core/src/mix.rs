//! The workspace's two non-cryptographic mixing primitives: SplitMix64 for
//! deriving seeds and schedules, FNV-1a for stable content fingerprints.
//!
//! Both are pinned by committed outputs — per-index sample streams, fault
//! and fuzz case schedules, the instance-generator golden corpus, wire
//! golden frames and the bench fingerprints — so their definitions must
//! never change.

/// The SplitMix64 increment, `⌊2^64 / φ⌋` rounded to odd.
pub const SPLITMIX64_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The SplitMix64 output finalizer (Stafford's "Mix13" variant): a
/// bijective avalanche of all 64 bits.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One SplitMix64 step from state `x`: advances by [`SPLITMIX64_GAMMA`] and
/// finalizes. Feeding the previous output back in gives a seed stream
/// (`splitmix64(splitmix64(i))`); stepping a counter by the gamma between
/// calls gives the classic stateful generator.
///
/// The workspace derives seeds with this instead of the vendored RNG so
/// seeded schedules never drift with the RNG implementation.
///
/// ```
/// // The reference stateful generator seeded with 0.
/// let mut state = 0u64;
/// let mut next = || {
///     let out = unigen::splitmix64(state);
///     state = state.wrapping_add(unigen::SPLITMIX64_GAMMA);
///     out
/// };
/// assert_eq!(next(), 0xe220_a839_7b1d_cdaf);
/// assert_eq!(next(), 0x6e78_9e6a_a1b9_65f4);
/// assert_eq!(next(), 0x06c4_5d18_8009_454f);
/// ```
pub fn splitmix64(x: u64) -> u64 {
    mix64(x.wrapping_add(SPLITMIX64_GAMMA))
}

/// The 64-bit FNV-1a offset basis: the hash of the empty string.
const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The 64-bit FNV-1a prime.
const FNV1A_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over `bytes`: the stable fingerprint behind instance
/// generators and the wire protocol's formula registry.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV1A_OFFSET, bytes)
}

/// Continues an FNV-1a hash `hash` over more `bytes`, so
/// `fnv1a_extend(fnv1a(a), b) == fnv1a(a ++ b)`.
pub fn fnv1a_extend(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(FNV1A_PRIME)
    })
}
