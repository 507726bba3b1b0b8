//! The simulated DBMS, pinned bit for bit — the first test that pins the
//! engine itself rather than a history three layers above it.
//!
//! Every suite runs at its default windows on both catalogs under six
//! configurations: the default; the default with `backend_flush_after`
//! set (every foreground flush is a `BufferPool::clean_dirty`); the
//! default with `bgwriter_lru_maxpages` = 0 (no background writer); three
//! seeded uniform draws that do not crash, the last of them open-loop at
//! 1 500 tps. A [`RunResult`] is folded into one `u64` over the bits of
//! `throughput_tps`, the three latencies, `committed`, `aborted` and the
//! 27 metrics; `committed` is pinned beside it so a failure says how far
//! off a run is. The expected values were captured from the commit before
//! the buffer pool's dirty bitmap and the engine's integer hasher, so a
//! change that moves one RNG draw, one evicted frame, one cleaned page or
//! one floating-point operation fails here. A legitimate change of the
//! model re-captures the table from the assertion message.

use llamatune_engine::RunResult;
use llamatune_space::catalog::{postgres_v13_6, postgres_v9_6};
use llamatune_space::{Config, ConfigSpace, KnobValue};
use llamatune_workloads::{workload_by_name, Objective, WorkloadRunner, WORKLOAD_NAMES};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const CONFIGS: usize = 6;
const EVAL_SEED: u64 = 7;

/// FNV-1a over the result's fields, floats by `to_bits`.
fn digest(r: &RunResult) -> u64 {
    let floats = [r.throughput_tps, r.p50_latency_ms, r.p95_latency_ms, r.p99_latency_ms];
    assert_eq!(r.metrics.len(), 27);
    floats.iter().chain(&r.metrics).map(|v| v.to_bits()).chain([r.committed, r.aborted]).fold(
        0xcbf2_9ce4_8422_2325u64,
        |h, word| {
            word.to_le_bytes()
                .iter()
                .fold(h, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3))
        },
    )
}

fn with_knob(catalog: &ConfigSpace, name: &str, value: i64) -> Config {
    let mut cfg = catalog.default_config();
    cfg.values_mut()[catalog.index_of(name).expect("knob in catalog")] = KnobValue::Int(value);
    cfg
}

/// `(committed, digest)` of the six runs of one suite on one catalog.
fn cell(suite: &str, catalog: &ConfigSpace, draw_seed: u64) -> [(u64, u64); CONFIGS] {
    let closed = WorkloadRunner::new(workload_by_name(suite).unwrap(), catalog.clone());
    let open = closed.clone().with_objective(Objective::TailLatency95 { rate_tps: 1_500.0 });
    let run = |runner: &WorkloadRunner, cfg: &Config| {
        let r = runner.run(catalog, cfg, EVAL_SEED);
        (!r.crashed).then(|| (r.committed, digest(&r)))
    };
    let pin = |cfg: &Config| run(&closed, cfg).expect("a pinned configuration crashed");
    // Uniform draws over the whole catalog, skipping the ones that crash
    // the server (`shared_buffers` alone can overcommit the box).
    let mut rng = StdRng::seed_from_u64(draw_seed);
    let mut draw = |runner: &WorkloadRunner| loop {
        let point: Vec<f64> = (0..catalog.len()).map(|_| rng.random()).collect();
        if let Some(pinned) = run(runner, &catalog.config_from_unit(&point)) {
            return pinned;
        }
    };
    [
        pin(&catalog.default_config()),
        pin(&with_knob(catalog, "backend_flush_after", 38)),
        pin(&with_knob(catalog, "bgwriter_lru_maxpages", 0)),
        draw(&closed),
        draw(&closed),
        draw(&open),
    ]
}

fn assert_pinned(catalog_name: &str, catalog: &ConfigSpace, want: &[[(u64, u64); CONFIGS]; 7]) {
    let got: Vec<[(u64, u64); CONFIGS]> = WORKLOAD_NAMES
        .iter()
        .enumerate()
        .map(|(i, suite)| cell(suite, catalog, 100 + i as u64))
        .collect();
    let first = got.iter().zip(want).position(|(g, w)| g != w).map(|i| WORKLOAD_NAMES[i]);
    // One re-capturable line per run.
    let table: String = got
        .iter()
        .zip(WORKLOAD_NAMES)
        .map(|(runs, suite)| {
            let runs: String =
                runs.iter().map(|(c, d)| format!("        ({c}, {d:#018x}),\n")).collect();
            format!("    // {suite}\n    [\n{runs}    ],\n")
        })
        .collect();
    assert!(
        got == want,
        "{catalog_name}: the engine moved (first suite that differs: {first:?}); got\n[\n{table}]"
    );
}

#[test]
fn postgres_v9_6_results_are_pinned() {
    assert_pinned("postgres_v9_6", &postgres_v9_6(), &V9_6);
}

#[test]
fn postgres_v13_6_results_are_pinned() {
    assert_pinned("postgres_v13_6", &postgres_v13_6(), &V13_6);
}

const V9_6: [[(u64, u64); CONFIGS]; 7] = [
    // ycsb_a
    [
        (25028, 0x3ff911aea7c2e2d3),
        (24143, 0xc715f6f521f9be2f),
        (24789, 0x4d2f2e6cb9631a9f),
        (41669, 0x15828626cfbe065b),
        (34166, 0x5ef1a3841aa20d52),
        (2382, 0xc60d3d435b0f1d54),
    ],
    // ycsb_b
    [
        (22518, 0x77f49c12671e4a7d),
        (23693, 0xb15d0ea02a3ecfe1),
        (22450, 0xd9a778ccc9a2fde6),
        (20783, 0xb7032e3fe1ef0a5e),
        (37953, 0x4a71399c004003d6),
        (1177, 0x2cb56a8cff5b5f3d),
    ],
    // tpcc
    [
        (4547, 0x3fb083760eb4ac5e),
        (5885, 0x660a1998109f049c),
        (4502, 0xb5b0152b6514e795),
        (7008, 0x7a1ce62b3f09fa67),
        (366, 0x6a8211909e6eb7c5),
        (3844, 0xfe1a53ec6e43a636),
    ],
    // seats
    [
        (6935, 0x5640a5c406ac6d9d),
        (7728, 0xf0afad835cb894d4),
        (6920, 0x001ca0563e7d1101),
        (9566, 0xddb7bdfd7bfe1854),
        (6151, 0xe4d516d154bf7568),
        (2381, 0x5b25a1b7dd7260e9),
    ],
    // twitter
    [
        (7008, 0x2f1ff8abc607a4ce),
        (7384, 0x096629cd44698413),
        (7025, 0x0b86b94bb0dd0622),
        (2708, 0x4d7a635a5def3e3f),
        (21531, 0x479d0da510f6fd59),
        (755, 0x4e6a9b15dfc45be5),
    ],
    // resource_stresser
    [
        (12781, 0xd28a56e8956f5d22),
        (12792, 0x0f69104a9557baf8),
        (12580, 0xb4500755e8e485ce),
        (14971, 0x836ed193714099ea),
        (13127, 0x3b6924dbf3e221dc),
        (2383, 0xd160e191d0c6c11c),
    ],
    // ycsb_f
    [
        (17432, 0xd2d400fa876298c7),
        (16752, 0xb17bb5b300e0bc84),
        (17034, 0x52ad757c57b9fa53),
        (18745, 0xed6f9669086da965),
        (13373, 0x3f41641ff1ab39e9),
        (2080, 0x940de10a9dae15c7),
    ],
];

const V13_6: [[(u64, u64); CONFIGS]; 7] = [
    // ycsb_a
    [
        (25028, 0x3ff911aea7c2e2d3),
        (24143, 0xc715f6f521f9be2f),
        (24789, 0x4d2f2e6cb9631a9f),
        (41669, 0x15828626cfbe065b),
        (28856, 0xb5183a87c33a84bf),
        (2382, 0x21ec8873d39a1709),
    ],
    // ycsb_b
    [
        (22518, 0x77f49c12671e4a7d),
        (23693, 0xb15d0ea02a3ecfe1),
        (22450, 0xd9a778ccc9a2fde6),
        (20783, 0xb7032e3fe1ef0a5e),
        (18714, 0x8392bf150364a346),
        (1177, 0x12b240b401dadbf5),
    ],
    // tpcc
    [
        (4547, 0x3fb083760eb4ac5e),
        (5885, 0x660a1998109f049c),
        (4502, 0xb5b0152b6514e795),
        (7248, 0xd6cabdb14b3e46b1),
        (6965, 0xd4bf9331f935d327),
        (3850, 0x87df74744e2b61ec),
    ],
    // seats
    [
        (6935, 0x5640a5c406ac6d9d),
        (7728, 0xf0afad835cb894d4),
        (6920, 0x001ca0563e7d1101),
        (9566, 0xddb7bdfd7bfe1854),
        (917, 0x15610048a38fce73),
        (2382, 0x0f73bc2ee5da465c),
    ],
    // twitter
    [
        (7008, 0x2f1ff8abc607a4ce),
        (7384, 0x096629cd44698413),
        (7025, 0x0b86b94bb0dd0622),
        (33833, 0xb43bab10499347f7),
        (33806, 0x3a2e07f3f25ba2c2),
        (751, 0x243bcd8cdc326613),
    ],
    // resource_stresser
    [
        (12781, 0xd28a56e8956f5d22),
        (12792, 0x0f69104a9557baf8),
        (12580, 0xb4500755e8e485ce),
        (16628, 0x19c9913efd0fe166),
        (39017, 0xff1f3bf10d265939),
        (2383, 0x98e274d4358e682a),
    ],
    // ycsb_f
    [
        (17432, 0xd2d400fa876298c7),
        (16752, 0xb17bb5b300e0bc84),
        (17034, 0x52ad757c57b9fa53),
        (17821, 0x21e3cce026751d5b),
        (43136, 0xe8c1130db7d1ea9d),
        (2081, 0xaadb42328d82f373),
    ],
];
