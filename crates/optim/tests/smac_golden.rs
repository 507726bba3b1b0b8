//! SMAC's suggestion stream, pinned bit for bit.
//!
//! `snapshot_restore.rs` and the unit tests hold SMAC to "deterministic
//! given seed"; this file holds it to *the* stream: the first 40
//! suggestions under a fixed objective, each folded (FNV-1a over the
//! coordinates' `f64::to_bits`) into one `u64`. The expected digests were
//! captured from the commit before the forest's split search was
//! rewritten, so any change to the surrogate that moves a single bit of a
//! single threshold, leaf value or RNG draw fails here. A legitimate
//! change of the stream re-captures the arrays from the assertion message.

mod common;

use common::{assert_stream, bucketized_16, digest, mixed_90, objective};
use llamatune_optim::{Observation, Optimizer, SearchSpec, Smac};

fn stream(spec: SearchSpec, seed: u64) -> Vec<u64> {
    let mut smac = Smac::new(spec, seed);
    (0..40)
        .map(|_| {
            let x = smac.suggest();
            let d = digest(&x);
            let y = objective(&x);
            smac.observe(Observation { x, y, metrics: Vec::new() });
            d
        })
        .collect()
}

#[test]
fn bucketized_16_dim_stream_is_pinned() {
    assert_stream("bucketized-16", &stream(bucketized_16(), 42), &BUCKETIZED_16);
}

#[test]
fn mixed_90_dim_stream_is_pinned() {
    assert_stream("mixed-90", &stream(mixed_90(), 7), &MIXED_90);
}

const BUCKETIZED_16: [u64; 40] = [
    0xdfebc87c9a784d0e,
    0x4a7a05b93442f95a,
    0xfb2eaa9132ed8443,
    0x6fa27cf2569b75a7,
    0x1535a92e802d67f5,
    0xe67bb9e877e55fd3,
    0xe4c333b0190fec0e,
    0xa78f9dd6d7228999,
    0x731023e6a734bd8f,
    0x731023e6a734bd8f,
    0x7b1ce31b3542129b,
    0x6320b24db37f613d,
    0x300f309eeae96dfb,
    0xd2cb37731148ba24,
    0x6c4aa36e424301f9,
    0x316bac2881d2459f,
    0x5659f4ed2f4a65dc,
    0xfa045e2ac217c6c0,
    0x0bda5c6bd9cbd5b3,
    0xabbe637ec999c5f9,
    0x858e31b312ba5461,
    0x1862af9049ac7dd6,
    0x3bbe8dfffb7498d1,
    0x698c5ea1f60dc1b1,
    0x5665a31d617a87aa,
    0xcdc87a6269fb72b5,
    0x454b6bcc4eb5d364,
    0x572e99bde6e62322,
    0xc68ac014b4688234,
    0xb1cd4f9ec795cb97,
    0x31c7aabea9a9d258,
    0xe47ca100b84013ae,
    0xc79d89378535bd7d,
    0xabd4284eced6f952,
    0xc86fab4899e6c4bf,
    0x362a558ce767ccb8,
    0xd75144f6f66942a1,
    0x5479e94dac143f43,
    0x6c8b60fe94ac8582,
    0x4e7860ad0ae6ea19,
];

const MIXED_90: [u64; 40] = [
    0xb497ac352c74dcd0,
    0x614ca8320c3bb985,
    0x69e00a4e1237cc7f,
    0xa8d43449a84d4de1,
    0x0e90942c4eeb07d8,
    0xb0efa2f0a184eaf6,
    0x9f2f29a4dd382ee1,
    0x918c9253ec6e9bb5,
    0x1b3f27093791da7f,
    0xbf7121e18f6b0f28,
    0x253a39287f57e0ab,
    0x9f2f29a4dd382ee1,
    0x5de2c49b5958eb43,
    0x3586ffa4759c9f76,
    0x60c0222d012b0b6d,
    0x08dce12ebe4f1ce6,
    0x507e608b9554c9c7,
    0x6a63d299749f27ca,
    0x2bc07684a3fb6c46,
    0xd8e0134a377536cc,
    0xeb2f1803587193f6,
    0x9ad3b66b522907ff,
    0x938dbec620d5a2a3,
    0xc7fba6783e7a44e0,
    0x6bae9493e5e48703,
    0xf90da6cca4e7b972,
    0x0256b8724eecbc6d,
    0x1fecb564f34846c6,
    0x040340c2bf53cacf,
    0xf90da6cca4e7b972,
    0x2246602af52a7893,
    0xd1c3b876e642688c,
    0xcc7f2ad55d5466d0,
    0xc2d27dd95b0e2a30,
    0x47e8b0f6c2c123d2,
    0xf55f4603eecbf0ab,
    0xda7f5952f2e140c2,
    0xd6539c9ba9ba867a,
    0x72fd183af7c7e3ad,
    0x961ad7768b57e47b,
];
