//! Fleet concurrency suite: writers racing segment rotation and
//! compaction against the object-store backend must never lose a
//! committed trial.
//!
//! The schedule is seeded, not clock-driven: each seed varies the
//! per-writer record counts and compaction cadence, the threads then
//! interleave freely, and every assertion is an *invariant* over the
//! final merged state (each acked append visible, in order, bit-exact)
//! rather than over one particular interleaving. With 2-record
//! segments, every few appends cross a rotation — so the manifest CAS
//! retry loop, the compaction rebase loop, and the
//! keep-foreign-actives-registered rule are all exercised on every
//! run.

use llamatune::backoff::BackoffPolicy;
use llamatune_store::{
    CasConflict, ObjectStoreBackend, ObjectStoreOptions, Revision, StoreBackend, StoreOptions,
    StoredTrial, TrialStore,
};
use std::io;
use std::sync::Arc;

fn trial(session: &str, iteration: usize, score: f64) -> StoredTrial {
    StoredTrial {
        session: session.to_string(),
        iteration,
        raw_score: Some(score),
        score,
        point: vec![score / 100.0],
        config: vec![llamatune_space::KnobValue::Int(iteration as i64)],
        metrics: vec![score],
        status: llamatune::session::TrialStatus::Ok,
        attempts: 1,
    }
}

fn eventual_object_backend() -> Arc<dyn StoreBackend> {
    // Eventual listings on: correctness must come from the manifest.
    Arc::new(ObjectStoreBackend::new(ObjectStoreOptions { eventual_list: true }))
}

#[test]
fn racing_rotation_and_compaction_never_lose_a_committed_trial() {
    for seed in 0..5usize {
        let be = eventual_object_backend();
        let n_per_writer = 40 + seed * 9;
        let compact_every = 7 + seed * 2;
        std::thread::scope(|scope| {
            for (w, tag) in ["wa", "wb"].into_iter().enumerate() {
                let be = be.clone();
                scope.spawn(move || {
                    let store =
                        TrialStore::open_shared(be, tag, StoreOptions { segment_records: 2 })
                            .unwrap();
                    let session = format!("sess_{tag}");
                    for i in 0..n_per_writer {
                        store.append_trial(&trial(&session, i, (i * (w + 2)) as f64)).unwrap();
                        // Offset cadences so the two writers' compactions
                        // and rotations collide at varying phases.
                        if (i + w * 3) % compact_every == compact_every - 1 {
                            store.compact().unwrap();
                        }
                    }
                });
            }
        });

        let reader = TrialStore::open_reader(be, StoreOptions::default()).unwrap();
        for (w, tag) in ["wa", "wb"].into_iter().enumerate() {
            let trials = reader.trials_for(&format!("sess_{tag}"));
            assert_eq!(
                trials.len(),
                n_per_writer,
                "seed {seed}: writer {tag} lost committed trials"
            );
            for (i, t) in trials.iter().enumerate() {
                assert_eq!(t.iteration, i, "seed {seed}/{tag}");
                assert_eq!(
                    t.score.to_bits(),
                    ((i * (w + 2)) as f64).to_bits(),
                    "seed {seed}/{tag}: trial {i} corrupted"
                );
            }
        }
    }
}

#[test]
fn one_shared_handle_is_safe_across_threads_too() {
    // A single fleet handle is Sync: campaign workers within one
    // process may share it, interleaving appends to different sessions.
    let be = eventual_object_backend();
    let store = Arc::new(
        TrialStore::open_shared(be.clone(), "w0", StoreOptions { segment_records: 3 }).unwrap(),
    );
    std::thread::scope(|scope| {
        for t in 0..4usize {
            let store = store.clone();
            scope.spawn(move || {
                let session = format!("lane_{t}");
                for i in 0..25 {
                    store.append_trial(&trial(&session, i, i as f64)).unwrap();
                }
            });
        }
    });
    store.compact().unwrap();
    drop(store);
    let reader = TrialStore::open_reader(be, StoreOptions::default()).unwrap();
    for t in 0..4 {
        assert_eq!(reader.trials_for(&format!("lane_{t}")).len(), 25);
    }
}

/// A backend on which every manifest commit loses the race: it mimics
/// a peer fleet that always commits first. All other operations pass
/// through. The conflict reports the inner backend's real manifest, so
/// retrying CAS loops re-read a consistent view and lose again.
#[derive(Debug)]
struct AlwaysContendedBackend {
    inner: Arc<dyn StoreBackend>,
}

impl StoreBackend for AlwaysContendedBackend {
    fn get(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        self.inner.get(name)
    }
    fn put(&self, name: &str, data: &[u8]) -> io::Result<()> {
        self.inner.put(name, data)
    }
    fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
        self.inner.append(name, data)
    }
    fn sync(&self, name: &str) -> io::Result<()> {
        self.inner.sync(name)
    }
    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        self.inner.truncate(name, len)
    }
    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }
    fn delete(&self, name: &str) -> io::Result<()> {
        self.inner.delete(name)
    }
    fn read_manifest(&self) -> io::Result<(Option<Vec<u8>>, Revision)> {
        self.inner.read_manifest()
    }
    fn commit_manifest(
        &self,
        _data: &[u8],
        _expected: Revision,
    ) -> io::Result<Result<Revision, CasConflict>> {
        let (current, revision) = self.inner.read_manifest()?;
        Ok(Err(CasConflict { current, revision }))
    }
}

/// Pins the CAS retry budget: a writer that loses *every* manifest race
/// must give up after exactly [`BackoffPolicy::STORE_CAS`]'s 32
/// attempts with a clean `TimedOut` error naming the contended step —
/// never spin forever, never panic, never corrupt the winning store.
#[test]
fn cas_exhaustion_is_a_clean_timeout_after_the_pinned_budget() {
    let inner: Arc<dyn StoreBackend> = eventual_object_backend();
    // A healthy writer installs the manifest the loser will keep losing
    // against.
    let winner =
        TrialStore::open_shared(inner.clone(), "w0", StoreOptions { segment_records: 2 }).unwrap();
    winner.append_trial(&trial("sess_w0", 0, 7.0)).unwrap();

    let contended: Arc<dyn StoreBackend> =
        Arc::new(AlwaysContendedBackend { inner: inner.clone() });
    let err = TrialStore::open_shared(contended, "loser", StoreOptions::default())
        .expect_err("registration against a permanently contended manifest must fail");
    assert_eq!(err.kind(), io::ErrorKind::TimedOut, "livelock surfaces as a timeout: {err}");
    let msg = err.to_string();
    assert!(msg.contains("manifest CAS contention"), "unexpected message: {msg}");
    // The budget is pinned to the shared policy — if STORE_CAS changes,
    // this string (and the latency envelope of every CAS loop) changes
    // with it, and this assertion is the reminder to re-justify it.
    assert_eq!(BackoffPolicy::STORE_CAS.max_retries, 32);
    assert!(
        msg.contains("lost 32 consecutive races"),
        "retry count must match STORE_CAS's budget: {msg}"
    );

    // The loser's failed registration leaked nothing into the winning
    // store: no stray segments, the acked trial intact. (Two listings:
    // the first may lag.)
    drop(winner);
    let _ = inner.list().unwrap();
    let listed = inner.list().unwrap();
    assert!(!listed.iter().any(|n| n.starts_with("seg-loser-")), "{listed:?}");
    let reader = TrialStore::open_reader(inner, StoreOptions::default()).unwrap();
    assert_eq!(reader.trials_for("sess_w0").len(), 1);
}

/// Real corruption is not contention: a sealed segment the manifest
/// names and nobody has is `NotFound` at once, naming the segment —
/// not a full replay per retry until the CAS budget runs out.
#[test]
fn a_sealed_segment_that_is_gone_is_not_found_not_a_lost_race() {
    let be = eventual_object_backend();
    {
        let w0 =
            TrialStore::open_shared(be.clone(), "w0", StoreOptions { segment_records: 2 }).unwrap();
        for i in 0..2 {
            w0.append_trial(&trial("sess_w0", i, i as f64)).unwrap();
        }
        assert_eq!(w0.sealed_segments(), ["seg-w0-000001.jsonl"]);
    }
    be.delete("seg-w0-000001.jsonl").unwrap();
    let err = TrialStore::open_shared(be, "w1", StoreOptions::default())
        .expect_err("the manifest names a segment that does not exist");
    assert_eq!(err.kind(), io::ErrorKind::NotFound, "{err}");
    assert!(err.to_string().contains("seg-w0-000001.jsonl"), "{err}");
}

#[test]
fn takeover_duplicates_across_writers_merge_content_identically() {
    // After a kill, a resuming fleet worker re-runs a dead peer's
    // partial round: same (session, iteration) keys, identical content
    // (determinism). The merged view must collapse them regardless of
    // which writer's segments replay first.
    let be = eventual_object_backend();
    {
        let dead =
            TrialStore::open_shared(be.clone(), "w_dead", StoreOptions { segment_records: 2 })
                .unwrap();
        for i in 0..5 {
            dead.append_trial(&trial("shared_sess", i, i as f64)).unwrap();
        }
        // Dies here; its active segment stays registered.
    }
    let heir =
        TrialStore::open_shared(be.clone(), "w_heir", StoreOptions { segment_records: 2 }).unwrap();
    // The heir sees the dead writer's records at open...
    assert_eq!(heir.trials_for("shared_sess").len(), 5);
    // ...and re-appends the trailing round (identical content) before
    // continuing — exactly what a fleet campaign's takeover does.
    for i in 3..8 {
        heir.append_trial(&trial("shared_sess", i, i as f64)).unwrap();
    }
    heir.compact().unwrap();
    drop(heir);
    let reader = TrialStore::open_reader(be, StoreOptions::default()).unwrap();
    let trials = reader.trials_for("shared_sess");
    assert_eq!(trials.len(), 8, "5 originals + 5 re-runs dedup to 8 distinct iterations");
    for (i, t) in trials.iter().enumerate() {
        assert_eq!(t.score.to_bits(), (i as f64).to_bits());
    }
}
