//! Cross-crate integration tests: full tuning sessions against the
//! simulated DBMS, exercising the public API the way the paper's
//! experiments do. Simulation windows are shortened to keep the suite
//! fast; the qualitative assertions mirror the paper's claims.

use llamatune::pipeline::{
    IdentityAdapter, LlamaTuneConfig, LlamaTunePipeline, ProjectionKind, SearchSpaceAdapter,
};
use llamatune::report::final_improvement_pct;
use llamatune::session::{run_session, EvalResult, SessionHistory, SessionOptions};
use llamatune_engine::RunOptions;
use llamatune_optim::{Ddpg, DdpgConfig, GpBo, Optimizer, Smac, SmacConfig, DEFAULT_METRIC_DIM};
use llamatune_space::catalog::{postgres_v13_6, postgres_v9_6};
use llamatune_space::ConfigSpace;
use llamatune_workloads::{suggested_options, workload_by_name, Objective, WorkloadRunner};

fn quick_runner(workload: &str, catalog: ConfigSpace) -> WorkloadRunner {
    let spec = workload_by_name(workload).expect("workload");
    let mut opts = suggested_options(workload);
    opts.duration_s = 0.25;
    opts.warmup_s = 0.06;
    opts.max_txns = 25_000;
    WorkloadRunner::new(spec, catalog).with_options(opts)
}

fn tune(
    adapter: &dyn SearchSpaceAdapter,
    optimizer: Box<dyn Optimizer>,
    runner: &WorkloadRunner,
    iterations: usize,
    seed: u64,
) -> SessionHistory {
    run_session(
        adapter,
        optimizer,
        |config| {
            let out = runner.evaluate(adapter.space(), config, seed);
            EvalResult { score: out.score, metrics: out.result.metrics, ..Default::default() }
        },
        &SessionOptions { iterations, seed, ..Default::default() },
    )
}

#[test]
fn llamatune_smac_improves_over_default_on_ycsb_a() {
    let catalog = postgres_v9_6();
    let runner = quick_runner("ycsb_a", catalog.clone());
    let pipeline = LlamaTunePipeline::new(&catalog, &LlamaTuneConfig::default(), 1);
    let smac = Smac::new(pipeline.optimizer_spec().clone(), SmacConfig::default(), 1);
    let h = tune(&pipeline, Box::new(smac), &runner, 25, 1);
    let default = h.default_score();
    let best = h.best_score().unwrap();
    assert!(
        best > default * 1.1,
        "25 iterations should beat the default by >10%: {default:.0} -> {best:.0}"
    );
}

#[test]
fn llamatune_outperforms_baseline_smac_early() {
    // The paper's core claim: at a small iteration budget, the projected
    // space reaches better configurations than the 90-dimensional one.
    let catalog = postgres_v9_6();
    let runner = quick_runner("tpcc", catalog.clone());
    let budget = 20;
    let mut llama_wins = 0;
    for seed in 0..3 {
        let base_adapter = IdentityAdapter::new(&catalog);
        let base = tune(
            &base_adapter,
            Box::new(Smac::new(base_adapter.optimizer_spec().clone(), SmacConfig::default(), seed)),
            &runner,
            budget,
            seed,
        );
        let pipeline = LlamaTunePipeline::new(&catalog, &LlamaTuneConfig::default(), seed);
        let llama = tune(
            &pipeline,
            Box::new(Smac::new(pipeline.optimizer_spec().clone(), SmacConfig::default(), seed)),
            &runner,
            budget,
            seed,
        );
        if llama.best_score().unwrap() >= base.best_score().unwrap() {
            llama_wins += 1;
        }
    }
    assert!(
        llama_wins >= 2,
        "LlamaTune should win at a 20-iteration budget on most seeds ({llama_wins}/3)"
    );
}

#[test]
fn hesbo_beats_rembo_on_average() {
    // Section 3.4: REMBO's clipping pushes optimization onto the facets.
    let catalog = postgres_v9_6();
    let runner = quick_runner("ycsb_a", catalog.clone());
    let mut hesbo_total = 0.0;
    let mut rembo_total = 0.0;
    for seed in 0..3 {
        for (kind, total) in
            [(ProjectionKind::Hesbo, &mut hesbo_total), (ProjectionKind::Rembo, &mut rembo_total)]
        {
            let cfg = LlamaTuneConfig {
                projection: kind,
                special_value_bias: None,
                bucket_count: None,
                target_dim: 16,
            };
            let pipeline = LlamaTunePipeline::new(&catalog, &cfg, seed);
            let smac = Smac::new(pipeline.optimizer_spec().clone(), SmacConfig::default(), seed);
            let h = tune(&pipeline, Box::new(smac), &runner, 20, seed);
            *total += h.best_score().unwrap();
        }
    }
    assert!(
        hesbo_total > rembo_total,
        "HeSBO ({hesbo_total:.0}) should beat REMBO ({rembo_total:.0}) across seeds"
    );
}

#[test]
fn all_optimizers_run_through_the_pipeline() {
    let catalog = postgres_v9_6();
    let runner = quick_runner("ycsb_b", catalog.clone());
    let pipeline = LlamaTunePipeline::new(&catalog, &LlamaTuneConfig::default(), 9);
    let spec = pipeline.optimizer_spec().clone();
    let optimizers: Vec<Box<dyn Optimizer>> = vec![
        Box::new(Smac::new(spec.clone(), SmacConfig::default(), 9)),
        Box::new(GpBo::new(spec.clone(), 9)),
        Box::new(Ddpg::new(spec, DEFAULT_METRIC_DIM, DdpgConfig::default(), 9)),
    ];
    for opt in optimizers {
        let name = opt.name();
        let h = tune(&pipeline, opt, &runner, 15, 9);
        assert_eq!(h.best_curve.len(), 16, "{name} session truncated");
        assert!(h.best_score().unwrap() > 0.0, "{name} produced no valid result");
    }
}

#[test]
fn tail_latency_objective_improves_p95() {
    let catalog = postgres_v9_6();
    let spec = workload_by_name("seats").unwrap();
    let mut opts = suggested_options("seats");
    opts.duration_s = 0.25;
    opts.warmup_s = 0.06;
    let probe = WorkloadRunner::new(spec.clone(), catalog.clone()).with_options(opts.clone());
    let default_tput = probe.evaluate(&catalog, &catalog.default_config(), 0).score.unwrap();
    let runner = WorkloadRunner::new(spec, catalog.clone())
        .with_options(opts)
        .with_objective(Objective::TailLatency95 { rate_tps: default_tput * 0.5 });
    let pipeline = LlamaTunePipeline::new(&catalog, &LlamaTuneConfig::default(), 4);
    let smac = Smac::new(pipeline.optimizer_spec().clone(), SmacConfig::default(), 4);
    let h = tune(&pipeline, Box::new(smac), &runner, 20, 4);
    // Scores are negated p95 latencies: tuned must be no worse than default.
    assert!(
        h.best_score().unwrap() >= h.default_score(),
        "tuning should not end worse than the default"
    );
}

#[test]
fn pg13_catalog_tunes_end_to_end() {
    let catalog = postgres_v13_6();
    let runner = quick_runner("seats", catalog.clone());
    let pipeline = LlamaTunePipeline::new(&catalog, &LlamaTuneConfig::default(), 6);
    let smac = Smac::new(pipeline.optimizer_spec().clone(), SmacConfig::default(), 6);
    let h = tune(&pipeline, Box::new(smac), &runner, 20, 6);
    assert!(h.best_score().unwrap() > h.default_score() * 0.95);
    // All configs valid in the 112-knob space.
    for cfg in &h.configs {
        assert!(catalog.validate(cfg).is_ok());
    }
}

#[test]
fn crashed_configs_do_not_derail_sessions() {
    // Force frequent crashes by tuning only the riskiest memory knobs with
    // a random-ish optimizer; the session must finish and keep a sane best.
    let catalog = postgres_v9_6();
    let sub = catalog.subspace(&["shared_buffers", "work_mem", "max_connections"]);
    let runner = quick_runner("ycsb_a", catalog.clone());
    let adapter = IdentityAdapter::new(&sub);
    let smac = Smac::new(adapter.optimizer_spec().clone(), SmacConfig::default(), 3);
    let h = run_session(
        &adapter,
        Box::new(smac),
        |config| {
            let out = runner.evaluate(&sub, config, 3);
            EvalResult { score: out.score, metrics: out.result.metrics, ..Default::default() }
        },
        &SessionOptions { iterations: 25, seed: 3, ..Default::default() },
    );
    let crashes = h.raw_scores.iter().filter(|s| s.is_none()).count();
    assert!(h.best_score().unwrap() > 0.0);
    // Crash penalties must never be the best score.
    if crashes > 0 {
        let best = h.best_score().unwrap();
        let worst_valid = h.raw_scores.iter().flatten().cloned().fold(f64::INFINITY, f64::min);
        assert!(best >= worst_valid);
    }
}

#[test]
fn sessions_are_reproducible() {
    let catalog = postgres_v9_6();
    let runner = quick_runner("twitter", catalog.clone());
    let mut finals = Vec::new();
    for _ in 0..2 {
        let pipeline = LlamaTunePipeline::new(&catalog, &LlamaTuneConfig::default(), 17);
        let smac = Smac::new(pipeline.optimizer_spec().clone(), SmacConfig::default(), 17);
        let h = tune(&pipeline, Box::new(smac), &runner, 12, 17);
        finals.push(h.best_curve);
    }
    assert_eq!(finals[0], finals[1], "same seeds must reproduce bit-for-bit");
}

#[test]
fn improvement_metric_matches_direct_computation() {
    let catalog = postgres_v9_6();
    let runner = quick_runner("resource_stresser", catalog.clone());
    let adapter = IdentityAdapter::new(&catalog);
    let smac = Smac::new(adapter.optimizer_spec().clone(), SmacConfig::default(), 2);
    let h = tune(&adapter, Box::new(smac), &runner, 15, 2);
    let best = h.best_score().unwrap();
    let imp = final_improvement_pct(h.default_score(), best);
    assert!(((h.default_score() * (1.0 + imp / 100.0)) - best).abs() < 1e-6);
}

#[test]
fn engine_run_options_are_respected_through_the_stack() {
    // Sanity: a longer window simulates more transactions.
    let catalog = postgres_v9_6();
    let spec = workload_by_name("ycsb_a").unwrap();
    let short = WorkloadRunner::new(spec.clone(), catalog.clone()).with_options(RunOptions {
        duration_s: 0.15,
        warmup_s: 0.05,
        ..RunOptions::default()
    });
    let long = WorkloadRunner::new(spec, catalog.clone()).with_options(RunOptions {
        duration_s: 0.6,
        warmup_s: 0.05,
        ..RunOptions::default()
    });
    let cfg = catalog.default_config();
    let a = short.run(&catalog, &cfg, 1);
    let b = long.run(&catalog, &cfg, 1);
    assert!(b.committed > a.committed * 2);
}
