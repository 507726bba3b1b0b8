//! Shared experiment machinery: arm runners (parallel over seeds),
//! aggregation, and the paper's summary statistics. Sessions evaluate
//! through the runtime's `WorkloadExecutor`, like every other session.

use llamatune::par::ordered_map;
use llamatune::pipeline::SearchSpaceAdapter;
use llamatune::report::{final_improvement_pct, time_to_optimal, time_to_optimal_speedup};
use llamatune::session::{run_session_resumable, SessionHistory, SessionOptions};
use llamatune_math::Summary;
use llamatune_runtime::{eval_seed, WorkloadExecutor};
use llamatune_space::ConfigSpace;
use llamatune_workloads::WorkloadRunner;
use std::sync::Arc;

/// Experiment scale, read from the environment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpScale {
    pub seeds: u64,
    pub iterations: usize,
    pub quick: bool,
}

impl ExpScale {
    /// 3 seeds × 50 iterations and fewer SHAP samples: what CI runs.
    pub const QUICK: ExpScale = ExpScale { seeds: 3, iterations: 50, quick: true };
    /// The paper's 5 seeds × 100 iterations.
    pub const PAPER: ExpScale = ExpScale { seeds: 5, iterations: 100, quick: false };

    /// Reads `LLAMATUNE_SEEDS` / `LLAMATUNE_ITERS` / `LLAMATUNE_QUICK`.
    pub fn from_env() -> Self {
        Self::from_lookup(|name| std::env::var(name).ok())
    }

    /// [`Self::from_env`] over any name → value lookup. An unparsable
    /// value counts as unset.
    pub(crate) fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Self {
        let quick = lookup("LLAMATUNE_QUICK").is_some_and(|v| v == "1");
        let named = if quick { Self::QUICK } else { Self::PAPER };
        let seeds = lookup("LLAMATUNE_SEEDS").and_then(|v| v.parse().ok()).unwrap_or(named.seeds);
        let iterations =
            lookup("LLAMATUNE_ITERS").and_then(|v| v.parse().ok()).unwrap_or(named.iterations);
        ExpScale { seeds, iterations, quick }
    }

    /// The paper artifact a run at this scale records: one per named
    /// scale, none for any other (such a run gates but records nothing).
    pub fn artifact(self) -> Option<&'static str> {
        match self {
            s if s == Self::QUICK => Some("BENCH_paper.json"),
            s if s == Self::PAPER => Some("BENCH_paper_full.json"),
            _ => None,
        }
    }
}

pub use llamatune_optim::OptimizerKind;

/// All sessions of one experiment arm (one per seed).
#[derive(Debug, Clone)]
pub(crate) struct ArmResult {
    pub histories: Vec<SessionHistory>,
}

impl ArmResult {
    /// Best final score per seed.
    pub(crate) fn final_bests(&self) -> Vec<f64> {
        self.histories.iter().filter_map(SessionHistory::best_score).collect()
    }

    /// Mean final best across seeds.
    pub(crate) fn mean_final_best(&self) -> f64 {
        llamatune_math::mean(&self.final_bests())
    }

    /// Mean best-so-far curve across seeds.
    pub(crate) fn mean_curve(&self) -> Vec<f64> {
        aggregate_curves(&self.histories)
    }
}

/// Runs one tuning arm: `seeds` sessions of `iterations` each, in parallel
/// across seeds. The `adapter_for` factory receives the seed, and the
/// optimizer is built from it, so that projections and optimizers vary per
/// session (the paper repeats each experiment "five times with different
/// random seeds"). Each session runs one trial per round on a one-worker
/// [`WorkloadExecutor`] at [`eval_seed`]`(seed)`: the evaluator, cache and
/// crash handling of an in-process campaign or a served client.
pub(crate) fn run_tuning_arm(
    runner: &WorkloadRunner,
    tuned_space: &ConfigSpace,
    adapter_for: impl Fn(u64) -> Box<dyn SearchSpaceAdapter> + Sync,
    optimizer: OptimizerKind,
    scale: ExpScale,
) -> ArmResult {
    let session = |seed: u64| {
        let adapter = adapter_for(seed);
        let opt = optimizer.build(adapter.optimizer_spec(), seed ^ 0x0BB5);
        let opts = SessionOptions {
            iterations: scale.iterations,
            n_init: 10.min(scale.iterations / 2).max(1),
            seed,
            ..Default::default()
        };
        let mut executor = WorkloadExecutor::from_trial_runner(
            Arc::new(runner.clone()),
            tuned_space.clone(),
            eval_seed(seed),
            1,
        );
        run_session_resumable(adapter.as_ref(), opt, &mut executor, &opts, 1, &[], None)
            .unwrap_or_else(|e| panic!("{e}"))
    };
    let seeds: Vec<u64> = (0..scale.seeds).collect();
    ArmResult { histories: ordered_map(seeds.len(), &seeds, |&seed| session(seed)) }
}

/// Mean best-so-far curve across sessions (curves may differ in length
/// when early stopping fires; shorter curves extend with their last value).
pub(crate) fn aggregate_curves(histories: &[SessionHistory]) -> Vec<f64> {
    let len = histories.iter().map(|h| h.best_curve.len()).max().unwrap_or(0);
    let mut out = vec![0.0; len];
    for h in histories {
        for (i, slot) in out.iter_mut().enumerate() {
            let v = h.best_curve.get(i).or(h.best_curve.last()).copied().unwrap_or(0.0);
            *slot += v;
        }
    }
    for v in out.iter_mut() {
        *v /= histories.len().max(1) as f64;
    }
    out
}

/// One row of a Table 5/6/7/8/9-style comparison.
#[derive(Debug, Clone)]
pub(crate) struct PairedRow {
    pub workload: String,
    /// Final-improvement % of candidate over baseline: mean and CI.
    pub improvement: Summary,
    /// Time-to-optimal speedup (candidate vs baseline-final): mean and CI,
    /// plus the candidate iteration at which the mean curve catches up.
    pub speedup: Summary,
    pub catch_up_iter: Option<usize>,
}

/// Builds the paired comparison row between a baseline arm and a candidate
/// arm, seed-by-seed (matching seeds are paired). Time-to-optimal is
/// measured against the baseline arm's *mean* curve — its length and its
/// final value — and a seed that never catches up counts as 1.0x.
pub(crate) fn paired_rows(
    workload: &str,
    baseline: &ArmResult,
    candidate: &ArmResult,
) -> PairedRow {
    let improvements: Vec<f64> = candidate
        .final_bests()
        .iter()
        .zip(&baseline.final_bests())
        .map(|(c, b)| final_improvement_pct(*b, *c))
        .collect();

    // Every curve opens with the iteration-0 default entry: skipped.
    let base_curve = &baseline.mean_curve()[1..];
    let speedups: Vec<f64> = candidate
        .histories
        .iter()
        .map(|h| time_to_optimal_speedup(&h.best_curve[1..], base_curve).unwrap_or(1.0))
        .collect();
    let catch_up_iter = base_curve
        .last()
        .and_then(|&base_final| time_to_optimal(&candidate.mean_curve()[1..], base_final));

    PairedRow {
        workload: workload.to_string(),
        improvement: Summary::from_samples(&improvements),
        speedup: Summary::from_samples(&speedups),
        catch_up_iter,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llamatune::pipeline::{LlamaTuneConfig, LlamaTunePipeline};
    use llamatune::session::SessionHistory;
    use llamatune_engine::RunOptions;
    use llamatune_space::catalog::postgres_v9_6;
    use llamatune_workloads::workload_by_name;

    fn history(curve: Vec<f64>) -> SessionHistory {
        SessionHistory { best_curve: curve, ..Default::default() }
    }

    /// Two synthetic dimensions of three buckets make at most nine distinct
    /// configurations, so twelve iterations repeat one; a cached repeat
    /// scores what a fresh evaluation at the session's seed does, bit for bit.
    #[test]
    fn cached_repeats_score_as_fresh_evaluations() {
        let catalog = postgres_v9_6();
        let runner = WorkloadRunner::new(workload_by_name("ycsb_a").unwrap(), catalog.clone())
            .with_options(RunOptions { duration_s: 0.2, warmup_s: 0.05, ..Default::default() });
        let config = LlamaTuneConfig { target_dim: 2, bucket_count: Some(3), ..Default::default() };
        let adapter = |seed| Box::new(LlamaTunePipeline::new(&catalog, &config, seed)) as _;
        let scale = ExpScale { seeds: 2, iterations: 12, quick: true };
        let arm = run_tuning_arm(&runner, &catalog, adapter, OptimizerKind::Smac, scale);
        let mut repeats = 0;
        for (seed, h) in (0..).zip(&arm.histories) {
            for (i, cfg) in h.configs.iter().enumerate() {
                repeats += usize::from(h.configs[..i].contains(cfg));
                let fresh = runner.evaluate(&catalog, cfg, eval_seed(seed)).score;
                assert_eq!(h.raw_scores[i].map(f64::to_bits), fresh.map(f64::to_bits), "{i}");
            }
        }
        assert!(repeats > 0, "no configuration repeated");
    }

    #[test]
    fn aggregate_extends_short_curves() {
        let h1 = history(vec![1.0, 2.0, 3.0]);
        let h2 = history(vec![2.0, 4.0]);
        let mean = aggregate_curves(&[h1, h2]);
        assert_eq!(mean, vec![1.5, 3.0, 3.5]);
    }

    #[test]
    fn paired_rows_compute_improvement_and_speedup() {
        // Baseline reaches 100 at the end of 10 iterations.
        let base = ArmResult {
            histories: vec![history(
                std::iter::once(0.0).chain((1..=10).map(|i| 10.0 * i as f64)).collect(),
            )],
        };
        // Candidate hits 110 from iteration 2 onward.
        let cand = ArmResult {
            histories: vec![history(
                std::iter::once(0.0)
                    .chain((1..=10).map(|i| if i >= 2 { 110.0 } else { 50.0 }))
                    .collect(),
            )],
        };
        let row = paired_rows("test", &base, &cand);
        assert!((row.improvement.mean - 10.0).abs() < 1e-9);
        assert_eq!(row.catch_up_iter, Some(2));
        assert!((row.speedup.mean - 5.0).abs() < 1e-9, "10 iters / 2 = 5x");
    }

    #[test]
    fn never_catching_up_counts_as_1x() {
        let base = ArmResult { histories: vec![history(vec![0.0, 100.0, 100.0])] };
        let cand = ArmResult { histories: vec![history(vec![0.0, 50.0, 60.0])] };
        let row = paired_rows("t", &base, &cand);
        assert_eq!(row.speedup.mean, 1.0);
        assert_eq!(row.catch_up_iter, None);
        assert!(row.improvement.mean < 0.0);
    }

    #[test]
    fn scale_from_env_defaults() {
        let scale = |vars: &[(&str, &str)]| {
            let s = ExpScale::from_lookup(|name| {
                vars.iter().find(|(k, _)| *k == name).map(|(_, v)| v.to_string())
            });
            (s.seeds, s.iterations, s.quick, s.artifact())
        };
        let (quick, full) = (Some("BENCH_paper.json"), Some("BENCH_paper_full.json"));
        assert_eq!(scale(&[]), (5, 100, false, full), "nothing set: the paper's scale");
        assert_eq!(scale(&[("LLAMATUNE_QUICK", "1")]), (3, 50, true, quick));
        assert_eq!(
            scale(&[("LLAMATUNE_QUICK", "yes")]),
            (5, 100, false, full),
            "only \"1\" is quick"
        );
        assert_eq!(
            scale(&[("LLAMATUNE_SEEDS", "many")]),
            (5, 100, false, full),
            "unparsable = unset"
        );
        assert_eq!(
            scale(&[("LLAMATUNE_QUICK", "1"), ("LLAMATUNE_SEEDS", "7"), ("LLAMATUNE_ITERS", "20")]),
            (7, 20, true, None)
        );
        // A custom scale records nothing, even at the other scale's size.
        assert_eq!(scale(&[("LLAMATUNE_SEEDS", "2")]), (2, 100, false, None));
        assert_eq!(
            scale(&[("LLAMATUNE_QUICK", "1"), ("LLAMATUNE_ITERS", "20")]),
            (3, 20, true, None)
        );
        let quick_at_paper_size =
            [("LLAMATUNE_QUICK", "1"), ("LLAMATUNE_SEEDS", "5"), ("LLAMATUNE_ITERS", "100")];
        assert_eq!(scale(&quick_at_paper_size), (5, 100, true, None));
    }
}
