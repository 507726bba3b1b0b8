//! What the pinned-stream tests (`smac_golden.rs`, `ddpg_golden.rs`, the
//! GP goldens in `gp_golden.rs`) share: the two search-space shapes the
//! benchmark runs, SMAC's and DDPG's objective, the per-suggestion
//! digest, and the assertion that prints a re-capturable array when a
//! stream moves.

// Each test binary compiles this module and uses its own subset.
#![allow(dead_code)]

use llamatune_optim::{ParamKind, SearchSpec};

/// The LlamaTune shape: a 16-dim projected space, every dimension
/// bucketized to K = 10 000 values.
pub fn bucketized_16() -> SearchSpec {
    SearchSpec { params: vec![ParamKind::Continuous { buckets: Some(10_000) }; 16] }
}

/// The vanilla shape: 90 knobs, every fifth categorical (2–5 choices),
/// every fifth bucketized, the rest continuous.
pub fn mixed_90() -> SearchSpec {
    let params = (0..90)
        .map(|i| match i % 5 {
            0 => ParamKind::Categorical { n: 2 + i % 4 },
            1 => ParamKind::Continuous { buckets: Some(100) },
            _ => ParamKind::Continuous { buckets: None },
        })
        .collect();
    SearchSpec { params }
}

/// A deterministic multi-modal objective over the unit cube.
pub fn objective(x: &[f64]) -> f64 {
    x.iter()
        .enumerate()
        .map(|(i, v)| {
            let target = (i % 7) as f64 / 7.0 + 0.05;
            -(v - target) * (v - target) + 0.05 * (9.0 * v + i as f64).sin()
        })
        .sum()
}

/// FNV-1a over the coordinates' `f64::to_bits`: one `u64` per suggestion.
pub fn digest(x: &[f64]) -> u64 {
    x.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
        v.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3))
    })
}

pub fn assert_stream(name: &str, got: &[u64], want: &[u64]) {
    let first = got.iter().zip(want).position(|(g, w)| g != w);
    assert!(
        got == want,
        "{name}: suggestion stream moved (first difference at suggestion {first:?}); got\n{got:#018x?}"
    );
}
