//! The trial executor, pinned bit for bit. A fixed script of batches
//! drawn from a small configuration pool — with repeats inside a batch
//! and across batches — runs through [`WorkloadExecutor`] over a
//! [`FaultyRunner`] that panics, fails transiently, hangs, straggles and
//! corrupts on a seeded schedule, under a 10 000 ms virtual watchdog and
//! three attempts. Every result, every counter and the whole trace fold
//! into one `u64`; the expected value was captured from the executor
//! that kept failures in a quarantine set beside the evaluation cache,
//! so a change to how a batch is resolved — which trials run, which are
//! answered, what is counted or traced, in which order — fails here. The
//! digest is the same at 1 and 4 workers.

use llamatune::session::{Trial, TrialExecutor};
use llamatune_obs::trace::{RecordingTracer, Tracer};
use llamatune_obs::MetricsRegistry;
use llamatune_runtime::{EvalCache, ExecutionPolicy, WorkloadExecutor};
use llamatune_space::catalog::postgres_v9_6;
use llamatune_space::{Config, ConfigSpace, KnobValue};
use llamatune_workloads::{
    config_fingerprint, AttemptOutcome, FaultPlan, FaultyRunner, TrialRunner,
};
use std::sync::Arc;

const POOL: usize = 24;
const BATCHES: usize = 12;
const BATCH: usize = 6;

/// The digest captured from the previous executor.
const GOLDEN: u64 = 0xf1a0_85b7_4dfc_2240;

/// Dense enough that every fault kind lands somewhere in the pool.
const PLAN: FaultPlan = FaultPlan {
    seed: 17,
    panic_per_mille: 120,
    transient_per_mille: 150,
    hang_per_mille: 100,
    slow_per_mille: 150,
    corrupt_per_mille: 60,
    transient_attempts: 1,
};

/// A deterministic stand-in benchmark with config-dependent scores,
/// metrics and virtual durations (500–2 000 ms, so a straggler's 8x
/// sometimes crosses the watchdog).
struct Cheap;

impl TrialRunner for Cheap {
    fn evaluate_attempt(
        &self,
        _space: &ConfigSpace,
        config: &Config,
        seed: u64,
        _attempt: u32,
    ) -> AttemptOutcome {
        let h = config_fingerprint(config) ^ seed;
        AttemptOutcome {
            score: Some(1_000.0 + (h % 10_000) as f64 / 10.0),
            metrics: vec![(h % 97) as f64, (h % 13) as f64],
            virtual_ms: 500.0 + (h % 1_500) as f64,
            retryable: false,
        }
    }
}

/// The batches: pool indices from a fixed linear congruential walk.
fn script(space: &ConfigSpace) -> Vec<Vec<Trial>> {
    let sb = space.index_of("shared_buffers").unwrap();
    let mut state = 5u64;
    (0..BATCHES)
        .map(|b| {
            (0..BATCH)
                .map(|i| {
                    state = (state * 29 + 11) % 101;
                    let mut config = space.default_config();
                    config.values_mut()[sb] =
                        KnobValue::Int(16_384 + 512 * (state % POOL as u64) as i64);
                    Trial { iteration: b * BATCH + i + 1, config }
                })
                .collect()
        })
        .collect()
}

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3))
}

/// Runs the script at `workers`; returns the digest and the trace.
fn run(workers: usize) -> (u64, Arc<MetricsRegistry>, Arc<RecordingTracer>) {
    let space = postgres_v9_6();
    let runner: Arc<dyn TrialRunner> = Arc::new(FaultyRunner::new(Arc::new(Cheap), PLAN));
    let metrics = Arc::new(MetricsRegistry::new());
    let tracer = Arc::new(RecordingTracer::new());
    let policy = ExecutionPolicy { timeout_ms: 10_000.0, max_attempts: 3 };
    let mut executor = WorkloadExecutor::from_trial_runner(runner, space.clone(), 11, workers)
        .with_policy(policy)
        .with_cache(Arc::new(EvalCache::new()))
        .with_observability(metrics.clone(), tracer.clone(), "golden".to_string());
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for batch in script(&space) {
        for r in executor.run_batch(&batch) {
            let line = format!(
                "{:?} {:?} {} {} {}\n",
                r.score.map(f64::to_bits),
                r.metrics.iter().map(|m| m.to_bits()).collect::<Vec<_>>(),
                r.status.as_str(),
                r.attempts,
                r.virtual_ms.to_bits(),
            );
            h = fnv1a(h, line.as_bytes());
        }
    }
    h = fnv1a(h, metrics.snapshot().to_json().as_bytes());
    h = fnv1a(h, tracer.export_jsonl().unwrap().as_bytes());
    (h, metrics, tracer)
}

#[test]
fn scripted_batches_match_the_captured_digest_at_1_and_4_workers() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // silence injected panics
    let runs = [run(1), run(4)];
    std::panic::set_hook(prev);
    for (workers, (digest, metrics, tracer)) in [1, 4].into_iter().zip(&runs) {
        let snap = metrics.snapshot();
        for counter in [
            "cache.hits",
            "policy.quarantine_hits",
            "policy.retries",
            "policy.timeouts",
            "policy.panics_caught",
        ] {
            assert!(snap.counter(counter) > 0, "{workers} workers: {counter} never fired");
        }
        let duplicates: u64 = tracer.events().iter().filter_map(|e| e.get_u64("duplicates")).sum();
        assert!(duplicates > 0, "{workers} workers: no within-batch duplicate");
        assert_eq!(*digest, GOLDEN, "{workers} workers: the executor moved; got {digest:#018x}");
    }
}
