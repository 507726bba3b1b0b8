//! DDPG's suggestion stream, pinned bit for bit.
//!
//! The unit tests hold DDPG to "deterministic given seed"; this file
//! holds it to *the* stream, as `smac_golden.rs` does for SMAC: every
//! suggestion under a fixed environment is folded into one `u64`. The
//! expected digests were captured from the commit before the minibatch
//! step became a batch kernel (`nn.rs`), so a change that moves one bit of
//! one weight, Adam moment, target parameter or RNG draw fails here — the
//! policy's output is a function of all of them. A legitimate change of
//! the stream re-captures the arrays from the assertion message.

mod common;

use common::{assert_stream, bucketized_16, digest, mixed_90, objective};
use llamatune_optim::{Ddpg, Observation, Optimizer, SearchSpec, DEFAULT_METRIC_DIM};

/// Performance of an action: positive (CDBTune's reward divides by it),
/// smooth, peaked off-centre.
fn performance(x: &[f64]) -> f64 {
    100.0 * (objective(x) / x.len() as f64).exp()
}

/// The DBMS's 27 internal metrics as a pure function of the action, on
/// scales four decades apart so the running normalization matters.
fn metrics(x: &[f64]) -> Vec<f64> {
    (0..DEFAULT_METRIC_DIM)
        .map(|m| {
            let wave: f64 = x
                .iter()
                .enumerate()
                .map(|(i, v)| ((1 + m % 5) as f64 * v + 0.37 * m as f64 + 0.11 * i as f64).sin())
                .sum();
            10f64.powi(m as i32 % 4) * wave / x.len() as f64
        })
        .collect()
}

fn stream(spec: SearchSpec, seed: u64, len: usize) -> Vec<u64> {
    let mut ddpg = Ddpg::new(spec, seed);
    (0..len)
        .map(|_| {
            let x = ddpg.suggest();
            let d = digest(&x);
            let (y, metrics) = (performance(&x), metrics(&x));
            ddpg.observe(Observation { x, y, metrics });
            d
        })
        .collect()
}

#[test]
fn bucketized_16_dim_stream_is_pinned() {
    assert_stream("bucketized-16", &stream(bucketized_16(), 42, 120), &BUCKETIZED_16);
}

#[test]
fn mixed_90_dim_stream_is_pinned() {
    assert_stream("mixed-90", &stream(mixed_90(), 7, 80), &MIXED_90);
}

const BUCKETIZED_16: [u64; 120] = [
    0xaeb5c64b829a75ae,
    0xe6e16a3239f8624c,
    0x7abdbd598a6f8f90,
    0xd5cb13adf4e104aa,
    0x6592998824ba01a3,
    0xaa3258415748a938,
    0x7497a627723b399d,
    0x4c89826d9598bf46,
    0x14fe176a7d5b303c,
    0xbdfbb852cc7d7fb5,
    0xd64a1cf0dd1b5c21,
    0xd672c99003db61a9,
    0x871e230d289e3a84,
    0x51a830f983115843,
    0xb9b19065e4a68c75,
    0x69c9a69d2812ea89,
    0xcfad0b5dc9f71c4d,
    0x790dc54a7eec55b6,
    0x454f30e1250c1e69,
    0xbfd7d57c64421e2e,
    0x0814bf068aae1b81,
    0x04554e83ff9e7e1d,
    0xd22f2affbc9fac84,
    0xe5b779387e836745,
    0x7ce4b194ba76775c,
    0x0380900c83df9a1b,
    0x13c96103cc14039f,
    0x1cbcdc7654073345,
    0x924ab24650a6e3bb,
    0x2c8ace5f990763b3,
    0x2ea1f3bd1b8e54fb,
    0x3e174d737b8ca8a2,
    0x1bb25cad6770228b,
    0x76bfb662daabe633,
    0xf4a8ee2afa0eaf89,
    0xd36b1efd194d7eaa,
    0x7827aab1906e0201,
    0x079c2e397021805c,
    0xc030ddd832eee9d8,
    0xa43c9f63253e9bcc,
    0x4fd9b604ac5f620b,
    0xa3ef1e0efd9cbe67,
    0x095f654aead54e1c,
    0xf77e889b5c5ebcef,
    0x102f80ad5d9b90f8,
    0xbe5157f2c50bcb85,
    0xb52ebbca3bfe13e6,
    0x4e096f05b4554661,
    0x1ffe54c62c24cbb9,
    0xb39b0384b501d1de,
    0x966edce712c5c6c2,
    0x9e9f7d2151278479,
    0xd2949f2df58f729b,
    0x04ef5f633f4f3ad7,
    0x6e33e047bb49a5c1,
    0x5100717f7d0b6e40,
    0x9a46e7c6216cd57f,
    0xaa2e4488b64458a7,
    0xb08f5202140d7323,
    0xc228852c8b4c7e0e,
    0xadaa4f4a0232b5aa,
    0x0fb5f9f0a21df427,
    0xb3809c4ebf436f24,
    0x6e8f86a81466f3af,
    0x9d65bad51b10d213,
    0x7ac49f327f1e1517,
    0x418ce6072e60c443,
    0xd6f8f89c63142bd8,
    0xa0c1737d86d450dc,
    0xc5a72932e60cbbb8,
    0xf60a9516de1e2c3c,
    0x79ca32ff7cc5ba12,
    0xbbad4b9f479a6fef,
    0x988c2d3a5e3d379b,
    0xce4908163d64aecf,
    0xe9f2b3faa347711a,
    0xa5e77e45bdd74399,
    0x7b1806206c9c1830,
    0x1cbd262c17e816d7,
    0x49483e9839700ae2,
    0x535c12b586fe6eac,
    0x376f74b051055f95,
    0x3400a689a0d98579,
    0xb21faa9316fcbbdc,
    0x507a45a8e5ac75ea,
    0xfee44c56bdf59827,
    0xa1c0c325f6cccf31,
    0x613d033386cf2537,
    0x7e640c2437c4c526,
    0x6bd38814302ee9bb,
    0xf6d5a2d684a8feac,
    0x7b2f0d971ddefb27,
    0x5313e74351145779,
    0xfa0cf7070dde8cb4,
    0x8a82a0458c4a9ccc,
    0x64fb540285c2819e,
    0x5787fff860a72843,
    0x7c180d94e4d5c9d7,
    0x556ef201d9fe5412,
    0xd6d1d89263bb1b8a,
    0x4f9712833a53b078,
    0xa337fb6240f93836,
    0x675aedfd0e2c8124,
    0x5487614666f46699,
    0xe373c64bbba610fa,
    0xcabed942debdda2d,
    0xf39ce55fbad86bb9,
    0xaaa7eb5af740280f,
    0x153739e966db8a43,
    0xc997a0abb1bc0cc5,
    0x44c0a0c0ffa4949e,
    0x33d425b2be0740a3,
    0x007e2eb2a5bf6dbf,
    0x3b496dd135390013,
    0x14861c612cd2b38e,
    0xf6529e256bdfe795,
    0xe1ba353755ea1799,
    0x6263af336f763629,
    0x3b9e419106f67690,
    0x28055ebe5758c921,
];

const MIXED_90: [u64; 80] = [
    0x7df819b9c3e3bd2c,
    0x2bcf7193c479bd74,
    0x4f262ec00b253141,
    0x3e0aae92b1ac0c56,
    0x9320ef54a58f5231,
    0xfd6c45a94a21d020,
    0xd1c699193d3890ce,
    0xc5d67006806e5b52,
    0xe548ced1aed3b2a4,
    0xf404a657e9e4662f,
    0xa39ca780b55065b4,
    0xb50d2787dfe91d93,
    0x51bd491c98562fab,
    0xc4cbff54dd8818b8,
    0xc58df710ea2da609,
    0x28604655543da0b1,
    0xd701fa0fb558c716,
    0x75bb05b11fbefc29,
    0x7dee973ac5fd7860,
    0x908d06e87009ba6d,
    0x0be83dbf18357e4e,
    0xb7f9ab29c239a9b9,
    0x4c1e2e8575179318,
    0x47dfdc3aca0699c0,
    0x0871957ef5ef1d3e,
    0x08d5aa4c368ea59a,
    0x52acfa3718bec4c5,
    0x6b232d8221cc59aa,
    0xb3509f8502e5574e,
    0x3c010eff554f3a65,
    0x14a42c4054c81619,
    0xe9257906a54f98bd,
    0xe6b60df88fe90ef3,
    0x6966fef1e675be9a,
    0x614817ee5ef92126,
    0x6d0456e770cc147b,
    0x3ff01e4741f7fbf8,
    0x863460b1a3e2cee5,
    0xc47e11b8a0bce57e,
    0x9031df64d22903db,
    0x3e104f42b28f2574,
    0x1ae40d2eed32529f,
    0x5bf8c447fd1bf35a,
    0x17266cceafb50310,
    0xc59211a5a67395e0,
    0x32a91945b690a3c3,
    0x9a4ee24aa54f91eb,
    0x22125736b00e0950,
    0xfd78ace547e7a842,
    0xd1b1a9a7f863370b,
    0x1bef656b4f354792,
    0xf5c9115506241d78,
    0x0d5bde2c14416463,
    0x262becde3ad910da,
    0x740c746eefd2fe29,
    0xacc551fa81c4797d,
    0x3e380f7a887986f5,
    0x35f890a273960684,
    0xab6d8a846db86301,
    0x16796e0367a9ded5,
    0x76cddcb1789dccbb,
    0x60cbc6a4b8de933e,
    0x276e7cf8a0e949ab,
    0x4640bde368fb0a82,
    0x00785ccca4a9dc80,
    0x7a20160b79157329,
    0x7d02b1d08b76b797,
    0x2d9672a9a409f8d9,
    0xf005bd7422c158a6,
    0x3f683fa2bdcaf531,
    0x5e6da0d421fae9d9,
    0x113150a9206e01da,
    0x40f9bf3fb6c147fb,
    0x59b315b4ba368c1b,
    0xe578b6d693e4e396,
    0xa4e49b09ce750e84,
    0x8fa8beafdae3de7b,
    0xf1d5ec1e0460799f,
    0xb5aae57e19218ded,
    0x398ecc55de1f4824,
];
