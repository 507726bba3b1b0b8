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
//! `LLAMATUNE_QUICK=1` shrinks record counts to smoke-test scale.

use llamatune_bench::artifact::{record, round, write_field, Field};
use llamatune_obs::json::write_object;
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

struct Row {
    backend: &'static str,
    records: usize,
    append_total_us: f64,
    append_per_record_us: f64,
    open_us: f64,
    compact_us: f64,
}

fn single_writer_row(kind: &'static str, records: usize, backends: &Backends) -> Row {
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

    Row {
        backend: kind,
        records,
        append_total_us,
        append_per_record_us: append_total_us / records as f64,
        open_us,
        compact_us,
    }
}

struct FleetRow {
    backend: &'static str,
    writers: usize,
    records: usize,
    total_us: f64,
    per_record_us: f64,
}

fn fleet_row(kind: &'static str, writers: usize, records: usize, backends: &Backends) -> FleetRow {
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
    FleetRow {
        backend: kind,
        writers,
        records: per_writer * writers,
        total_us,
        per_record_us: total_us / (per_writer * writers) as f64,
    }
}

fn main() {
    let quick = std::env::var("LLAMATUNE_QUICK").is_ok_and(|v| v == "1");
    let records = if quick { 600 } else { 4000 };
    let writers = 4;

    let detail = format!(
        "checkpoint I/O through the StoreBackend seam; {records} records, \
             rotation every 256 (fleet: 64), {writers}-writer fleet"
    );
    print!("{}", llamatune_obs::fmt::header("Store backends", &detail));

    let backends = Backends { local_dir: tmp_dir("single") };
    let rows: Vec<Row> =
        ["local", "object"].into_iter().map(|k| single_writer_row(k, records, &backends)).collect();
    println!("\nSingle writer (append + recovery + compaction):");
    println!(
        "{:>8} {:>8} {:>14} {:>12} {:>12} {:>12}",
        "backend", "records", "append total", "per record", "open", "compact"
    );
    for r in &rows {
        println!(
            "{:>8} {:>8} {:>12.0}us {:>10.2}us {:>10.0}us {:>10.0}us",
            r.backend,
            r.records,
            r.append_total_us,
            r.append_per_record_us,
            r.open_us,
            r.compact_us
        );
    }

    let fleet_backends = Backends { local_dir: tmp_dir("fleet") };
    let fleet_rows: Vec<FleetRow> = ["local", "object"]
        .into_iter()
        .map(|k| fleet_row(k, writers, records, &fleet_backends))
        .collect();
    println!("\nFleet ({writers} shared writers, one store, racing CAS rotations):");
    println!(
        "{:>8} {:>8} {:>8} {:>14} {:>12}",
        "backend", "writers", "records", "total", "per record"
    );
    for r in &fleet_rows {
        println!(
            "{:>8} {:>8} {:>8} {:>12.0}us {:>10.2}us",
            r.backend, r.writers, r.records, r.total_us, r.per_record_us
        );
    }

    // The regression artifact.
    let mut json = String::from("{\n  \"config\": ");
    let config = [
        ("quick", Field::Flag(quick)),
        ("records", Field::Num(records as f64)),
        ("segment_records", Field::Num(256.0)),
        ("writers", Field::Num(writers as f64)),
    ];
    write_object(&mut json, config, write_field);
    json.push_str(",\n  \"single_writer\": [");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(if i == 0 { "\n    " } else { ",\n    " });
        let members = [
            ("backend", Field::Text(r.backend)),
            ("records", Field::Num(r.records as f64)),
            ("append_total_us", Field::Num(round(r.append_total_us, 2))),
            ("append_per_record_us", Field::Num(round(r.append_per_record_us, 3))),
            ("open_us", Field::Num(round(r.open_us, 2))),
            ("compact_us", Field::Num(round(r.compact_us, 2))),
        ];
        write_object(&mut json, members, write_field);
    }
    json.push_str("\n  ],\n  \"fleet_append\": [");
    for (i, r) in fleet_rows.iter().enumerate() {
        json.push_str(if i == 0 { "\n    " } else { ",\n    " });
        let members = [
            ("backend", Field::Text(r.backend)),
            ("writers", Field::Num(r.writers as f64)),
            ("records", Field::Num(r.records as f64)),
            ("total_us", Field::Num(round(r.total_us, 2))),
            ("per_record_us", Field::Num(round(r.per_record_us, 3))),
        ];
        write_object(&mut json, members, write_field);
    }
    json.push_str("\n  ]\n}\n");
    println!("\nrecorded {}", record("BENCH_store.json", &json).display());

    let _ = std::fs::remove_dir_all(tmp_dir("single").parent().unwrap());
}
