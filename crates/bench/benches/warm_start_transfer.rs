//! Warm-start transfer: how many trials a warm-started session needs to
//! reach the score a cold-started session finds with its whole budget.
//!
//! Protocol, per workload pair (source → target):
//!
//! 1. tune the *source* workload and persist the campaign in a
//!    `TrialStore`;
//! 2. tune the *target* workload cold (pure LHS initialization) for the
//!    full budget; its final best is the bar to clear;
//! 3. tune the target *warm*: fingerprint the target with a probe run,
//!    match it against the store, and seed the first k initialization
//!    trials from the matched campaign's top configurations
//!    (`CampaignOptions::warm_start`);
//! 4. report the first iteration at which each arm's best-so-far curve
//!    reaches the cold arm's final best.
//!
//! A transfer win is `trials-to-bar (warm) < budget` — the warm session
//! banks the stored campaign's knowledge instead of rediscovering it.
//!
//!     cargo bench -p llamatune-bench --bench warm_start_transfer
//!
//! Scale via `LLAMATUNE_ITERS` / `LLAMATUNE_QUICK=1` as usual.

use llamatune::pipeline::LlamaTuneConfig;
use llamatune::session::{SessionHistory, SessionOptions};
use llamatune_bench::ExpScale;
use llamatune_engine::RunOptions;
use llamatune_runtime::{
    AdapterKind, Campaign, CampaignOptions, CampaignSpec, OptimizerKind, WarmStartOptions,
};
use llamatune_space::catalog::postgres_v9_6;
use llamatune_store::TrialStore;

// Pairs chosen by cross-evaluation: a TPC-C-tuned configuration
// recovers >100% of YCSB-B's own campaign best (both are dominated by
// the same buffer-pool/WAL knobs), and Twitter/SEATS share a skewed
// read-mostly profile.
const PAIRS: [(&str, &str); 2] = [("tpcc", "ycsb_b"), ("twitter", "seats")];
const SEED: u64 = 1;
const WARM_K: usize = 5;

fn options(scale: &ExpScale, warm: bool) -> CampaignOptions {
    let run_options = scale.quick.then(|| RunOptions {
        duration_s: 0.3,
        warmup_s: 0.08,
        max_txns: 30_000,
        ..Default::default()
    });
    CampaignOptions {
        session: SessionOptions {
            iterations: scale.iterations,
            n_init: 10.min(scale.iterations / 2).max(1),
            ..Default::default()
        },
        batch_size: 4,
        trial_workers: std::thread::available_parallelism().map_or(4, |n| n.get()),
        warm_start: warm.then_some(WarmStartOptions { k: WARM_K, max_distance: 0.5 }),
        run_options,
        ..Default::default()
    }
}

fn spec_for(workload: &str, optimizer: OptimizerKind) -> CampaignSpec {
    CampaignSpec {
        workloads: vec![workload.to_string()],
        adapters: vec![AdapterKind::LlamaTune(LlamaTuneConfig::default())],
        optimizers: vec![optimizer],
        seeds: vec![SEED],
    }
}

/// First iteration (1-based) whose best-so-far reaches `bar`, if any.
fn trials_to_reach(history: &SessionHistory, bar: f64) -> Option<usize> {
    history.best_curve.iter().enumerate().skip(1).find(|(_, &b)| b >= bar).map(|(i, _)| i)
}

fn main() {
    let scale = ExpScale::from_env();
    let catalog = postgres_v9_6();
    let optimizer = OptimizerKind::Smac;

    let detail = format!(
        "budget {} iterations, k = {WARM_K} transferred points, SMAC over the \
             LlamaTune space, seed {SEED}",
        scale.iterations
    );
    print!("{}", llamatune_obs::fmt::header("Warm-start transfer", &detail));
    println!(
        "{:<22} {:>12} {:>12} {:>14} {:>14}",
        "source -> target", "cold best", "warm best", "cold to bar", "warm to bar"
    );

    for (source, target) in PAIRS {
        let dir = std::env::temp_dir()
            .join("llamatune_warm_start_bench")
            .join(format!("{source}_{target}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = TrialStore::open(&dir).expect("open store");

        // 1. Source campaign feeds the knowledge store.
        Campaign::new(catalog.clone(), spec_for(source, optimizer), options(&scale, false))
            .resume(&store)
            .expect("source campaign");

        // 2. Cold target: no store, pure LHS initialization.
        let cold =
            Campaign::new(catalog.clone(), spec_for(target, optimizer), options(&scale, false))
                .run()
                .remove(0);
        let bar = cold.history.best_score().expect("cold session ran");

        // 3. Warm target: fingerprint-matched against the store.
        let warm =
            Campaign::new(catalog.clone(), spec_for(target, optimizer), options(&scale, true))
                .resume(&store)
                .expect("warm campaign")
                .remove(0);
        let transferred = store.session_meta(&warm.label).map(|m| m.warm_points.len()).unwrap_or(0);

        // 4. Trials each arm needs to clear the cold arm's final bar.
        let cold_to_bar = trials_to_reach(&cold.history, bar).expect("cold reaches its own best");
        let warm_to_bar = trials_to_reach(&warm.history, bar);
        println!(
            "{:<22} {:>12.1} {:>12.1} {:>14} {:>14}",
            format!("{source} -> {target}"),
            bar,
            warm.history.best_score().unwrap_or(f64::NAN),
            format!("{cold_to_bar} trials"),
            match warm_to_bar {
                Some(n) => format!("{n} trials"),
                None => "not reached".to_string(),
            },
        );
        println!(
            "  {} warm points transferred; warm session {} the cold session's \
             best-at-{} bar{}",
            transferred,
            match warm_to_bar {
                Some(n) if n < cold_to_bar => "beat",
                Some(_) => "matched",
                None => "missed",
            },
            scale.iterations,
            match warm_to_bar {
                Some(n) => format!(" ({n} vs {cold_to_bar} trials)"),
                None => String::new(),
            },
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
