//! Kill-at-random-byte store fuzz (seeded, deterministic — part of the
//! CI fault-injection gate).
//!
//! Each case wires a [`TrialStore`] over a [`FailingBackend`] whose
//! byte budget is drawn from a seeded RNG, then appends trials (with
//! tiny segments, so rotation's manifest commits are in the blast
//! radius) and periodically compacts, until the injected kill fires.
//! The wreckage left on the *underlying* backend is exactly what a
//! `kill -9` at that byte would leave: full records up to the kill, a
//! torn prefix of the record in flight, manifest either old or new.
//!
//! The invariant under test: **no acknowledged append is ever lost.**
//! Reopening the underlying backend must succeed, recover every trial
//! whose `append_trial` returned `Ok` (bit-exact scores), at most one
//! extra trailing record (an append that tore after its closing brace
//! but before the ack — keeping it is correct, dropping it would only
//! be legal because the caller never saw `Ok`), and keep accepting
//! appends.

use llamatune_store::{
    FailingBackend, FaultPlan, LocalDirBackend, ObjectStoreBackend, StoreBackend, StoreOptions,
    StoredTrial, TrialStore,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::path::PathBuf;
use std::sync::Arc;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("llamatune_store_fuzz")
        .join(format!("{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn trial(session: &str, iteration: usize, score: f64) -> StoredTrial {
    StoredTrial {
        session: session.to_string(),
        iteration,
        raw_score: Some(score),
        score,
        point: vec![score / 1000.0, 0.25],
        config: vec![llamatune_space::KnobValue::Int(iteration as i64)],
        metrics: vec![score, 1.0],
        status: llamatune::session::TrialStatus::Ok,
        attempts: 1,
    }
}

/// One fuzz case: returns the number of acknowledged appends, for the
/// meta-assertion that the suite actually exercised mid-stream kills.
fn run_case(seed: u64, inner: Arc<dyn StoreBackend>) -> usize {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_f022);
    let budget = rng.random_range(10..6000usize) as u64;
    let failing: Arc<dyn StoreBackend> =
        Arc::new(FailingBackend::new(inner.clone(), FaultPlan::KillAtByte(budget)));

    let mut acked: Vec<StoredTrial> = Vec::new();
    // The kill can land inside open() itself (manifest creation): that
    // case must still recover below, to an empty store.
    if let Ok(store) =
        TrialStore::open_shared(failing, "local", StoreOptions { segment_records: 3 })
    {
        for i in 0..200 {
            let t = trial("fuzz", i, (i as f64) * 1.5 + rng.random::<f64>());
            match store.append_trial(&t) {
                Ok(()) => acked.push(t),
                Err(_) => break,
            }
            // Compaction rewrites segments and commits a manifest —
            // putting its whole commit protocol inside the kill window.
            if i % 17 == 16 && store.compact().is_err() {
                break;
            }
        }
    }

    // Recovery on the clean underlying backend sees the raw wreckage.
    let recovered = TrialStore::open_shared(inner, "local", StoreOptions::default())
        .unwrap_or_else(|e| panic!("seed {seed}: recovery failed: {e}"));
    let trials = recovered.trials_for("fuzz");
    assert!(
        trials.len() >= acked.len() && trials.len() <= acked.len() + 1,
        "seed {seed}: {} acked but {} recovered",
        acked.len(),
        trials.len()
    );
    for (i, t) in acked.iter().enumerate() {
        assert_eq!(trials[i].iteration, t.iteration, "seed {seed}");
        assert_eq!(
            trials[i].score.to_bits(),
            t.score.to_bits(),
            "seed {seed}: recovered trial {i} differs"
        );
    }
    // The recovered store is fully live: appends and export both work.
    let next = trials.len();
    recovered.append_trial(&trial("fuzz", next, 9.0)).unwrap();
    assert_eq!(recovered.trials_for("fuzz").len(), next + 1);
    assert!(llamatune::history_io::events_from_jsonl(&recovered.export_jsonl()).is_ok());
    acked.len()
}

#[test]
fn kill_at_random_byte_never_loses_an_acknowledged_trial_on_local_dirs() {
    let mut mid_stream_kills = 0;
    for seed in 0..12u64 {
        let dir = tmp_dir(&format!("local_{seed}"));
        let inner: Arc<dyn StoreBackend> = Arc::new(LocalDirBackend::create(&dir).unwrap());
        let acked = run_case(seed, inner);
        if acked > 0 && acked < 200 {
            mid_stream_kills += 1;
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
    assert!(mid_stream_kills >= 6, "budgets must mostly kill mid-stream: {mid_stream_kills}");
}

#[test]
fn kill_at_random_byte_never_loses_an_acknowledged_trial_on_object_stores() {
    let mut mid_stream_kills = 0;
    for seed in 100..112u64 {
        let inner: Arc<dyn StoreBackend> = Arc::new(ObjectStoreBackend::default());
        let acked = run_case(seed, inner);
        if acked > 0 && acked < 200 {
            mid_stream_kills += 1;
        }
    }
    assert!(mid_stream_kills >= 6, "budgets must mostly kill mid-stream: {mid_stream_kills}");
}

#[test]
fn kill_during_a_fleet_writers_stream_spares_the_other_writers_records() {
    // The shared-mode variant: worker "wa" is killed at a seeded byte
    // while "wb" keeps appending; every record either worker was acked
    // for must be in the merged view afterwards.
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xf1ee7);
        let inner: Arc<dyn StoreBackend> = Arc::new(ObjectStoreBackend::default());
        let budget = rng.random_range(400..4000usize) as u64;
        let failing: Arc<dyn StoreBackend> =
            Arc::new(FailingBackend::new(inner.clone(), FaultPlan::KillAtByte(budget)));

        let wa = TrialStore::open_shared(failing, "wa", StoreOptions { segment_records: 3 })
            .map(Arc::new);
        let wb = Arc::new(
            TrialStore::open_shared(inner.clone(), "wb", StoreOptions { segment_records: 3 })
                .unwrap(),
        );
        let mut acked_a = 0usize;
        if let Ok(wa) = wa {
            for i in 0..80 {
                if wa.append_trial(&trial("sa", i, i as f64)).is_err() {
                    break;
                }
                acked_a = i + 1;
            }
        }
        for i in 0..80 {
            wb.append_trial(&trial("sb", i, i as f64)).unwrap();
        }
        drop(wb);

        let reader = TrialStore::open_reader(inner, StoreOptions::default()).unwrap();
        assert!(reader.trials_for("sa").len() >= acked_a, "seed {seed}: wa lost acked trials");
        assert_eq!(reader.trials_for("sb").len(), 80, "seed {seed}: wb unaffected by wa's kill");
    }
}
