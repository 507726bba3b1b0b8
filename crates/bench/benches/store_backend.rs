//! Store backend latency: what checkpointing costs through each
//! [`StoreBackend`], single-writer and as a fleet.
//!
//! Four measurements, on both backends (`local` directory with real
//! fsyncs, in-process `object` store emulating S3 semantics):
//!
//! * **append** — N trial records through one writer, tiny-ish segments
//!   so rotation's manifest commits (rename-commit vs CAS-commit) are
//!   inside the measured window;
//! * **open** — recovery time: reopen the N-record store and replay it;
//! * **compact** — rewrite the N-record store deduplicated;
//! * **fleet append** — 4 shared writers appending N records total into
//!   one store, racing their rotations through the manifest CAS loop.
//!
//! Results are printed as a table and recorded in `BENCH_store.json`
//! (at the workspace root) — the baseline the CI bench-regression gate
//! (`bench_gate`) compares freshly generated artifacts against:
//!
//!     cargo bench -p llamatune-bench --bench store_backend
//!
//! `LLAMATUNE_QUICK=1` shrinks record counts to smoke-test scale; such a
//! run prints its tables and records nothing.

use llamatune_bench::artifact::{self, round, Artifact, Field::*, Row};
use llamatune_space::KnobValue;
use llamatune_store::{
    LocalDirBackend, ObjectStoreBackend, StoreBackend, StoreOptions, StoredTrial, TrialStore,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("llamatune_store_bench")
        .join(format!("{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A realistic record: 16-dim point (the LlamaTune projected space),
/// a handful of knobs, a dozen metrics.
fn trial(session: &str, iteration: usize) -> StoredTrial {
    StoredTrial {
        session: session.to_string(),
        iteration,
        raw_score: Some(1234.5 + iteration as f64),
        score: 1234.5 + iteration as f64,
        point: (0..16).map(|d| (iteration * 31 + d) as f64 / 1e4).collect(),
        config: vec![
            KnobValue::Int(16_384 + iteration as i64),
            KnobValue::Float(0.25),
            KnobValue::Cat(2),
            KnobValue::Int(8),
        ],
        metrics: (0..12).map(|m| (iteration + m) as f64).collect(),
        status: llamatune::session::TrialStatus::Ok,
        attempts: 1,
    }
}

struct Backends {
    local_dir: PathBuf,
}

impl Backends {
    fn make(&self, kind: &str) -> Arc<dyn StoreBackend> {
        match kind {
            "local" => {
                let _ = std::fs::remove_dir_all(&self.local_dir);
                Arc::new(LocalDirBackend::create(&self.local_dir).unwrap())
            }
            "object" => Arc::new(ObjectStoreBackend::default()),
            other => panic!("unknown backend {other}"),
        }
    }
}

fn single_writer_row(kind: &'static str, records: usize, backends: &Backends) -> Row<'static> {
    let be = backends.make(kind);
    let opts = StoreOptions { segment_records: 256 };

    let store = TrialStore::open_shared(be.clone(), "local", opts.clone()).unwrap();
    let t = Instant::now();
    for i in 0..records {
        store.append_trial(&trial("bench", i)).unwrap();
    }
    store.sync().unwrap();
    let append_total_us = t.elapsed().as_secs_f64() * 1e6;
    drop(store);

    let t = Instant::now();
    let store = TrialStore::open_shared(be.clone(), "local", opts.clone()).unwrap();
    let open_us = t.elapsed().as_secs_f64() * 1e6;
    assert_eq!(store.trial_count(), records);

    let t = Instant::now();
    store.compact().unwrap();
    let compact_us = t.elapsed().as_secs_f64() * 1e6;
    assert_eq!(store.trial_count(), records);

    vec![
        ("backend", Text(kind)),
        ("records", Num(records as f64)),
        ("append_total_us", Num(round(append_total_us, 2))),
        ("append_per_record_us", Num(round(append_total_us / records as f64, 3))),
        ("open_us", Num(round(open_us, 2))),
        ("compact_us", Num(round(compact_us, 2))),
    ]
}

fn fleet_row(
    kind: &'static str,
    writers: usize,
    records: usize,
    backends: &Backends,
) -> Row<'static> {
    let be = backends.make(kind);
    let per_writer = records / writers;
    let t = Instant::now();
    std::thread::scope(|scope| {
        for w in 0..writers {
            let be = be.clone();
            scope.spawn(move || {
                let store = TrialStore::open_shared(
                    be,
                    &format!("w{w}"),
                    StoreOptions { segment_records: 64 },
                )
                .unwrap();
                let session = format!("bench_w{w}");
                for i in 0..per_writer {
                    store.append_trial(&trial(&session, i)).unwrap();
                }
                store.sync().unwrap();
            });
        }
    });
    let total_us = t.elapsed().as_secs_f64() * 1e6;
    let reader = TrialStore::open_reader(be, StoreOptions::default()).unwrap();
    assert_eq!(reader.trial_count(), per_writer * writers, "no committed trial lost");
    vec![
        ("backend", Text(kind)),
        ("writers", Num(writers as f64)),
        ("records", Num((per_writer * writers) as f64)),
        ("total_us", Num(round(total_us, 2))),
        ("per_record_us", Num(round(total_us / (per_writer * writers) as f64, 3))),
    ]
}

fn main() {
    let quick = artifact::quick();
    let records = if quick { 600 } else { 4000 };
    let writers = 4;

    let detail = format!(
        "checkpoint I/O through the StoreBackend seam; {records} records, \
             rotation every 256 (fleet: 64), {writers}-writer fleet"
    );
    print!("{}", llamatune_obs::fmt::header("Store backends", &detail));
    let mut artifact = Artifact::new(vec![
        ("quick", Flag(quick)),
        ("records", Num(records as f64)),
        ("segment_records", Num(256.0)),
        ("writers", Num(writers as f64)),
    ]);

    let backends = Backends { local_dir: tmp_dir("single") };
    let rows =
        ["local", "object"].into_iter().map(|k| single_writer_row(k, records, &backends)).collect();
    artifact.show("single_writer", "append + recovery + compaction", rows);

    let fleet_backends = Backends { local_dir: tmp_dir("fleet") };
    let rows = ["local", "object"]
        .into_iter()
        .map(|k| fleet_row(k, writers, records, &fleet_backends))
        .collect();
    let caption = format!("{writers} shared writers, one store, racing CAS rotations");
    artifact.show("fleet_append", &caption, rows);
    artifact.record("BENCH_store.json");

    let _ = std::fs::remove_dir_all(tmp_dir("single").parent().unwrap());
}
