//! [`TrialStore`]: the append-only, crash-safe trial store.
//!
//! The handle on top of the two layers that carry the format: the
//! segment log ([`crate::segment`] — layout, strict and lenient reads,
//! torn-tail recovery, the replay that builds the in-memory index) and
//! the manifest ([`crate::manifest`] — the commit point, the one
//! read–decide–commit loop, writers and readers). What is left here is
//! what a handle *does* with them: open as a writer or as a reader,
//! append with its seal, compaction, and the queries and export over the
//! index.

use crate::backend::{lock_recover, LocalDirBackend, StoreBackend};
use crate::manifest::{
    corrupt, segment_index, segment_name, segment_writer, with_manifest, Manifest, Settled, Step,
};
use crate::record::{write_record, SessionMeta, StoreRecord, StoredTrial};
use crate::segment::{load_segment_lenient, on_every_core, replay_manifest, Index, SessionEntry};
use llamatune::history_io::{events_to_jsonl, TrialEvent};
use llamatune::session::PriorTrial;
use llamatune_obs::trace::{NoopTracer, TraceEvent, Tracer};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The trace span summarising one compaction pass. Attributed to the
/// synthetic `"store"` session: compaction runs from one thread at a
/// time per handle, so the span order is deterministic for a lone
/// writer (multi-writer ordering is explicitly outside the determinism
/// contract).
fn compact_span(stats: &CompactionStats) -> TraceEvent {
    TraceEvent::new("store", "store.compact")
        .field("segments_before", stats.segments_before)
        .field("segments_after", stats.segments_after)
        .field("records_before", stats.trial_records_before)
        .field("records_after", stats.trial_records_after)
}

/// What one [`TrialStore::compact`] pass accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionStats {
    /// Trial records on disk before compaction (duplicates included).
    pub trial_records_before: usize,
    /// Trial records after — one per distinct `(session, iteration)`.
    pub trial_records_after: usize,
    /// Segment files before (sealed + active).
    pub segments_before: usize,
    /// Segment files after (sealed + the fresh empty active).
    pub segments_after: usize,
}

/// Store tuning knobs.
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Records per segment before rotation (default 4096).
    pub segment_records: usize,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions { segment_records: 4096 }
    }
}

#[derive(Debug, Default)]
struct Inner {
    /// Sealed segments, in manifest (commit) order, every writer's.
    sealed: Vec<String>,
    /// Manifest-listed active segments of *other* writers.
    foreign_active: Vec<String>,
    /// Our active segment (empty string in reader mode).
    active_name: String,
    active_records: usize,
    index: Index,
}

impl Inner {
    /// Numeric index of the active segment. Segment numbering is
    /// monotonically increasing but — after a [`TrialStore::compact`] —
    /// not necessarily dense, so it is read off the name rather than
    /// derived from `sealed.len()`.
    fn active_index(&self) -> usize {
        segment_index(&self.active_name).unwrap_or(0)
    }

    /// Takes over a manifest this handle has just read or committed,
    /// with `active` (holding `records` records) as its own segment.
    fn adopt(&mut self, manifest: Manifest, active: String, records: usize) {
        self.sealed = manifest.sealed;
        self.foreign_active = manifest.actives.into_iter().filter(|n| *n != active).collect();
        self.active_name = active;
        self.active_records = records;
    }
}

/// The persistent tuning knowledge store. Thread-safe: concurrent
/// sessions of a campaign append through one shared handle.
#[derive(Debug)]
pub struct TrialStore {
    backend: Arc<dyn StoreBackend>,
    /// Backing directory, when the backend is a local directory opened
    /// through [`TrialStore::open`] / [`TrialStore::open_with`].
    dir: Option<PathBuf>,
    /// Writer tag ([`TrialStore::open_shared`]); `None` for a reader.
    writer: Option<String>,
    opts: StoreOptions,
    inner: Mutex<Inner>,
    /// Manifest rounds this handle retried ([`TrialStore::cas_retries`]).
    cas_retries: AtomicU64,
    /// Observability sink ([`TrialStore::set_tracer`]); [`NoopTracer`]
    /// by default, so untraced stores pay one relaxed load per span
    /// site and emit nothing.
    tracer: Mutex<Arc<dyn Tracer>>,
}

fn reader_err() -> io::Error {
    io::Error::new(io::ErrorKind::Unsupported, "a reader handle cannot write (open_reader)")
}

impl TrialStore {
    /// Opens (or creates) the store rooted at `dir` with default options.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<TrialStore> {
        TrialStore::open_with(dir, StoreOptions::default())
    }

    /// Opens (or creates) the store rooted at `dir` as the writer
    /// `local` ([`TrialStore::open_shared`] on a [`LocalDirBackend`]).
    pub fn open_with(dir: impl AsRef<Path>, opts: StoreOptions) -> io::Result<TrialStore> {
        let dir = dir.as_ref().to_path_buf();
        let backend = Arc::new(LocalDirBackend::create(&dir)?);
        Ok(TrialStore { dir: Some(dir), ..TrialStore::open_shared(backend, "local", opts)? })
    }

    /// Opens (or creates) a store as writer `writer`: the handle
    /// registers itself and appends into a private active segment
    /// listed in the manifest, so every other writer and reader can see
    /// its records. Writer tags must be unique among *live* writers —
    /// reopening a dead writer's tag reclaims (repairs and adopts) the
    /// active segment it left behind. See [`crate::manifest`] for the
    /// commit protocol.
    pub fn open_shared(
        backend: Arc<dyn StoreBackend>,
        writer: &str,
        opts: StoreOptions,
    ) -> io::Result<TrialStore> {
        if writer.is_empty() || !writer.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_') {
            return Err(corrupt(format!(
                "writer tag {writer:?} must be non-empty [A-Za-z0-9_] \
                 (it is embedded in segment names)"
            )));
        }
        let store = TrialStore::handle(backend, Some(writer.to_string()), opts);
        let backend = &*store.backend;
        let registered = store.with_manifest("writer registration", |m| {
            let mut m = m.clone();
            let mut changed = false;

            // Reclaim active segments a dead incarnation of this writer
            // left behind: adopt the newest as our active segment (the
            // replay below repairs its torn tail), repair and seal the
            // rest.
            let mut mine: Vec<(usize, String)> = m
                .actives
                .iter()
                .filter(|n| segment_writer(n) == Some(writer))
                .map(|n| (segment_index(n).unwrap_or(0), n.clone()))
                .collect();
            mine.sort();
            let adopted = mine.pop();
            for (_, name) in mine {
                load_segment_lenient(backend, &name, true)?;
                m.actives.retain(|n| *n != name);
                m.sealed.push(name);
                changed = true;
            }
            let Some((_, active)) = adopted else {
                let active = segment_name(writer, m.max_index() + 1);
                // Truncate any stray left by a dead incarnation's
                // interrupted compaction (private namespace: no race with
                // other writers).
                backend.put(&active, b"")?;
                m.actives.push(active.clone());
                return Ok(Step::Install {
                    manifest: m,
                    created: vec![active.clone()],
                    out: active,
                });
            };
            Ok(if changed {
                Step::Install { manifest: m, created: Vec::new(), out: active }
            } else {
                Step::Keep(active)
            })
        })?;
        lock_recover(&store.inner).active_name = registered.out;
        // The registration is durable; replay whatever manifest is
        // current now (it still lists our segment): sealed strictly,
        // actives leniently — other writers may be mid-append.
        store.reload("open replay", true)?;
        Ok(store)
    }

    /// Opens a *reader*: the merged view of a store — sealed segments
    /// plus every registered writer's active segment. Registers
    /// nothing, repairs nothing and writes nothing — an absent manifest
    /// stays absent; appends and compaction return errors. Call
    /// [`TrialStore::refresh`] to re-read the current state.
    pub fn open_reader(
        backend: Arc<dyn StoreBackend>,
        opts: StoreOptions,
    ) -> io::Result<TrialStore> {
        let store = TrialStore::handle(backend, None, opts);
        store.refresh()?;
        Ok(store)
    }

    /// A handle that has read nothing yet.
    fn handle(
        backend: Arc<dyn StoreBackend>,
        writer: Option<String>,
        opts: StoreOptions,
    ) -> TrialStore {
        TrialStore {
            backend,
            dir: None,
            writer,
            opts,
            inner: Mutex::new(Inner::default()),
            cas_retries: AtomicU64::new(0),
            tracer: Mutex::new(Arc::new(NoopTracer)),
        }
    }

    /// Runs the manifest loop ([`with_manifest`]) on this handle's
    /// backend, as its writer or reader, and books the rounds it retried
    /// to the handle.
    fn with_manifest<T>(
        &self,
        what: &str,
        step: impl FnMut(&Manifest) -> io::Result<Step<T>>,
    ) -> io::Result<Settled<T>> {
        let settled = with_manifest(&*self.backend, self.writer.as_deref(), what, step)?;
        // A statistic that publishes nothing else.
        self.cas_retries.fetch_add(u64::from(settled.cas_retries), Ordering::Relaxed);
        Ok(settled)
    }

    /// Manifest commit rounds this handle has retried since it opened —
    /// CAS races lost to other writers, registration included.
    /// Scheduling-dependent, hence a metric (`store.cas_retries`) and
    /// never part of a trace.
    pub fn cas_retries(&self) -> u64 {
        self.cas_retries.load(Ordering::Relaxed)
    }

    /// Re-reads the store's committed state from the backend, merging
    /// in what other writers have appended since this handle opened (or
    /// last refreshed). The handle's own active segment and append
    /// position are untouched, and nothing is written.
    pub fn refresh(&self) -> io::Result<()> {
        self.reload("refresh replay", false)
    }

    /// Replays the current manifest into this handle's index — a
    /// [`Step::Keep`] pass of the manifest loop, so a view a concurrent
    /// compaction deletes from under the replay is retried on the
    /// manifest that compaction committed. With `repair`, the handle's
    /// own active segment has its torn tail repaired as it is read.
    fn reload(&self, what: &str, repair: bool) -> io::Result<()> {
        let mut guard = lock_recover(&self.inner);
        let inner = &mut *guard;
        let backend = &*self.backend;
        let active = inner.active_name.clone();
        let settled = self.with_manifest(what, |m| {
            Ok(Step::Keep(replay_manifest(backend, m, repair.then_some(active.as_str()))?))
        })?;
        let replay = settled.out;
        let records = replay.active_counts.get(&active).copied().unwrap_or(inner.active_records);
        inner.adopt(settled.manifest, active, records);
        inner.index = replay.index;
        Ok(())
    }

    /// The store's root directory (local-directory stores only).
    ///
    /// # Panics
    /// When the store was opened on a non-directory backend.
    pub fn dir(&self) -> &Path {
        self.dir.as_deref().expect("dir() requires a local-directory store")
    }

    /// The backend this store reads and writes through.
    pub fn backend(&self) -> &Arc<dyn StoreBackend> {
        &self.backend
    }

    /// The writer tag of this handle ([`TrialStore::open_shared`];
    /// `local` for [`TrialStore::open`]), `None` for a reader.
    pub fn writer(&self) -> Option<&str> {
        self.writer.as_deref()
    }

    /// Installs an observability tracer on this handle. Store spans
    /// (`store.append`, `store.rotate`, `store.compact`) flow to it;
    /// the default is [`NoopTracer`], which discards everything.
    pub fn set_tracer(&self, tracer: Arc<dyn Tracer>) {
        *lock_recover(&self.tracer) = tracer;
    }

    /// Records one span if a live tracer is installed. `make` runs only
    /// when tracing is on, so untraced stores skip field formatting.
    fn trace(&self, make: impl FnOnce() -> TraceEvent) {
        let tracer = lock_recover(&self.tracer).clone();
        if tracer.enabled() {
            tracer.record(make());
        }
    }

    /// Reads a telemetry object (`telemetry-<name>`, e.g.
    /// `w0.trace.jsonl`, `fleet.metrics.json`) a traced campaign left
    /// next to the trial segments. Telemetry objects never match the
    /// `seg-` pattern and are never listed in the manifest, so they
    /// cannot perturb recovery, checkpoint bytes, or compaction.
    pub fn read_telemetry(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        self.backend.get(&format!("telemetry-{name}"))
    }

    /// Appends one trial record (one backend `append` per record; the
    /// record is durable to the backend's append contract on return).
    /// The index keeps a copy; a caller done with its record hands it
    /// over through [`TrialStore::append_record`] instead.
    pub fn append_trial(&self, trial: &StoredTrial) -> io::Result<()> {
        self.append_record(StoreRecord::Trial(trial.clone()))
    }

    /// Appends one session-metadata record (latest record wins on load).
    pub fn append_session(&self, meta: &SessionMeta) -> io::Result<()> {
        self.append_record(StoreRecord::Session(meta.clone()))
    }

    /// Appends `rec` and files it in the index as it is, uncopied.
    pub fn append_record(&self, rec: StoreRecord) -> io::Result<()> {
        let Some(writer) = self.writer.as_deref() else {
            return Err(reader_err());
        };
        // Rendered once, terminator included (a trial of the 90-knob
        // catalog is ~1.8 KB), before the lock is taken: the sessions of
        // a daemon share this handle, and only the write needs to be
        // serial.
        let mut line = String::with_capacity(2048);
        write_record(&mut line, &rec);
        line.push('\n');
        let mut guard = lock_recover(&self.inner);
        let inner = &mut *guard;
        self.backend.append(&inner.active_name, line.as_bytes())?;
        inner.active_records += 1;
        // Attributed to the record's session: each live session appends
        // from exactly one thread, so per-session span order is
        // deterministic even when sessions interleave on the store.
        self.trace(|| {
            let (session, kind) = match &rec {
                StoreRecord::Trial(t) => (t.session.clone(), "trial"),
                StoreRecord::Session(m) => (m.session.clone(), "session"),
            };
            TraceEvent::new(session, "store.append")
                .field("object", inner.active_name.clone())
                .field("kind", kind)
        });
        inner.index.apply_record(rec);
        if inner.active_records >= self.opts.segment_records {
            self.rotate(inner, writer)?;
        }
        Ok(())
    }

    /// Takes `writer`'s active segment off `m`'s registered actives on
    /// its way to being sealed or rewritten.
    fn unregister(m: &mut Manifest, active: &str, writer: &str) -> io::Result<()> {
        let pos = m.actives.iter().position(|n| n == active).ok_or_else(|| {
            corrupt(format!(
                "active segment {active} missing from the manifest: writer tag {writer:?} \
                 reclaimed by another live worker?"
            ))
        })?;
        m.actives.remove(pos);
        Ok(())
    }

    /// Seals the active segment: sync it, commit a manifest naming it,
    /// start a fresh active segment. On any failure the current active
    /// segment stays in place, so appends keep working (returning
    /// errors rather than panicking) and rotation is retried at the
    /// next threshold crossing.
    fn rotate(&self, inner: &mut Inner, writer: &str) -> io::Result<()> {
        let backend = &*self.backend;
        backend.sync(&inner.active_name)?;
        let settled = self.with_manifest("rotation", |m| {
            let mut m = m.clone();
            TrialStore::unregister(&mut m, &inner.active_name, writer)?;
            m.sealed.push(inner.active_name.clone());
            // Open the next segment *before* committing the manifest: a
            // failure here leaves only an empty, unlisted object behind.
            // Truncate rather than adopt: a compaction that crashed
            // before its manifest commit can leave a stray at this index
            // whose stale records would otherwise be replayed *after*
            // newer ones and win the last-wins resolution.
            let next = segment_name(writer, m.max_index().max(inner.active_index()) + 1);
            backend.put(&next, b"")?;
            m.actives.push(next.clone());
            Ok(Step::Install { manifest: m, created: vec![next.clone()], out: next })
        })?;
        self.trace(|| {
            TraceEvent::new("store", "store.rotate")
                .field("sealed", inner.active_name.clone())
                .field("next", settled.out.clone())
        });
        inner.adopt(settled.manifest, settled.out, 0);
        Ok(())
    }

    /// Syncs the active segment (sealed segments are already synced).
    pub fn sync(&self) -> io::Result<()> {
        if self.writer.is_none() {
            return Ok(());
        }
        let inner = lock_recover(&self.inner);
        self.backend.sync(&inner.active_name)
    }

    /// Sealed segment names, in manifest order (for tests and tooling).
    pub fn sealed_segments(&self) -> Vec<String> {
        lock_recover(&self.inner).sealed.clone()
    }

    /// Labels of every stored session, sorted.
    pub fn sessions(&self) -> Vec<String> {
        lock_recover(&self.inner).index.sessions.keys().cloned().collect()
    }

    /// Latest metadata of a session, if any was recorded.
    pub fn session_meta(&self, session: &str) -> Option<SessionMeta> {
        lock_recover(&self.inner).index.sessions.get(session).and_then(|e| e.meta.clone())
    }

    /// A session's trials, deduplicated last-wins and sorted by
    /// iteration, truncated at the first gap (a gap cannot arise from
    /// the append protocol; truncating keeps a damaged store usable).
    pub fn trials_for(&self, session: &str) -> Vec<StoredTrial> {
        let inner = lock_recover(&self.inner);
        let Some(entry) = inner.index.sessions.get(session) else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(entry.trials.len());
        for (expected, (&iteration, trial)) in entry.trials.iter().enumerate() {
            if iteration != expected {
                break;
            }
            out.push(trial.clone());
        }
        out
    }

    /// A session's trials as the session loop's replay units.
    pub fn prior_trials(&self, session: &str) -> Vec<PriorTrial> {
        self.trials_for(session).iter().map(StoredTrial::to_prior).collect()
    }

    /// Number of distinct `(session, iteration)` trials stored.
    pub fn trial_count(&self) -> usize {
        lock_recover(&self.inner).index.trial_count()
    }

    /// Number of trial *records* appended (re-runs of a partial round
    /// append duplicates, so this can exceed [`TrialStore::trial_count`]).
    pub fn trial_records(&self) -> usize {
        lock_recover(&self.inner).index.trial_records
    }

    /// Whether the store holds no trials.
    pub fn is_empty(&self) -> bool {
        self.trial_count() == 0
    }

    /// Rewrites the store with its logical state only: one metadata
    /// record per session (the latest — superseded status updates are
    /// dropped) followed by its trials with `(session, iteration)`
    /// last-wins deduplication applied. Resumed campaigns re-run partial
    /// trailing rounds and append duplicate records by design; a
    /// campaign resumed many times accretes them, and compaction
    /// reclaims the space without changing anything a reader can see:
    /// [`TrialStore::export_jsonl`], [`TrialStore::trials_for`], and
    /// session metadata are identical before and after (pinned by the
    /// checkpoint-resume test suite). An *empty* store is left
    /// untouched — no fresh manifest revision is committed, so idle
    /// workers polling `compact` do not churn shared backends.
    ///
    /// Crash safety follows the rotation protocol: compacted segments
    /// are written to fresh (higher-numbered) objects, then a manifest
    /// naming exactly those segments is committed (rename on local
    /// directories, CAS on object stores), then the superseded objects
    /// are deleted best-effort. A crash before the commit leaves the
    /// old manifest — and therefore the old store — fully intact; stray
    /// compacted objects are inert (recovery only reads manifest-listed
    /// segments) and are truncated before reuse when the segment
    /// sequence later reaches their index.
    ///
    /// The pass rewrites the merged state of the *current* manifest
    /// inside the manifest loop, folds this writer's active segment in,
    /// and leaves every other writer's active segment registered and
    /// untouched — racing rotations retry on top of the compacted
    /// manifest, so no committed trial is lost.
    pub fn compact(&self) -> io::Result<CompactionStats> {
        let Some(writer) = self.writer.as_deref() else {
            return Err(reader_err());
        };
        let mut guard = lock_recover(&self.inner);
        let inner = &mut *guard;
        // A store with nothing on the backend but an (empty or absent)
        // active segment has nothing to rewrite; committing a fresh
        // manifest revision would only churn revisions and mtimes on
        // shared backends.
        if inner.sealed.is_empty() && inner.foreign_active.is_empty() && inner.active_records == 0 {
            return Ok(CompactionStats {
                trial_records_before: inner.index.trial_records,
                trial_records_after: inner.index.trial_records,
                segments_before: 1,
                segments_after: 1,
            });
        }
        let backend = &*self.backend;
        backend.sync(&inner.active_name)?;
        let settled = self.with_manifest("compaction", |m| {
            let mut next = Manifest { sealed: Vec::new(), actives: m.actives.clone() };
            TrialStore::unregister(&mut next, &inner.active_name, writer)?;
            // A lone writer's index is the store: no other writer is
            // registered, and every sealed segment is one it has already
            // read or written. Replaying the backend then would add a
            // full parse of the store to every pass. Any other view may
            // hold records this handle has not seen, so the merged state
            // is rebuilt from the manifest about to be replaced.
            let replayed = if next.actives.is_empty() && m.sealed == inner.sealed {
                None
            } else {
                Some(replay_manifest(backend, m, None)?.index)
            };
            let index = replayed.as_ref().unwrap_or(&inner.index);

            // The deduplicated state, session by session, goes into
            // fresh objects past every index in use, fully written
            // before the manifest commit; a fresh empty active segment
            // follows them (`put` truncates any stray an earlier
            // interrupted compaction left at that name). Every other
            // writer's active segment stays registered and untouched:
            // its owner keeps appending to it, and the records of it
            // folded in here are merely benign duplicates under
            // last-wins.
            let mut created = Vec::new();
            let mut at = m.max_index().max(inner.active_index());
            for chunk in index.serialize_sessions().chunks(self.opts.segment_records.max(1)) {
                at += 1;
                let name = segment_name(writer, at);
                let mut text = String::with_capacity(chunk.iter().map(|r| r.len() + 1).sum());
                for rec in chunk {
                    text.push_str(rec);
                    text.push('\n');
                }
                backend.put(&name, text.as_bytes())?;
                created.push(name);
            }
            let active = segment_name(writer, at + 1);
            backend.put(&active, b"")?;
            next.sealed = created.clone();
            next.actives.push(active.clone());
            created.push(active.clone());
            Ok(Step::Install { manifest: next, created, out: (active, m.clone(), replayed) })
        })?;
        let (active, old, replayed) = settled.out;

        // The old objects are unreachable from the new manifest;
        // deletion is cleanup, not correctness.
        for name in old.sealed.iter().chain([&inner.active_name]) {
            let _ = backend.delete(name);
        }
        inner.adopt(settled.manifest, active, 0);
        if let Some(index) = replayed {
            inner.index = index;
        }
        let trial_records_before = inner.index.trial_records;
        inner.index.trial_records = inner.index.trial_count();
        let stats = CompactionStats {
            trial_records_before,
            trial_records_after: inner.index.trial_records,
            segments_before: old.sealed.len() + old.actives.len(),
            segments_after: inner.sealed.len() + inner.foreign_active.len() + 1,
        };
        self.trace(|| compact_span(&stats));
        Ok(stats)
    }

    /// Every stored trial projected onto the core JSONL event schema,
    /// sorted by session label then iteration — the canonical export.
    /// Deduplication is last-wins, so a store that recorded a crash and
    /// a resume exports exactly the transcript of the uninterrupted run.
    pub fn export_events(&self) -> Vec<TrialEvent> {
        let inner = lock_recover(&self.inner);
        let mut out = Vec::with_capacity(inner.index.trial_count());
        for entry in inner.index.sessions.values() {
            out.extend(entry.trials.values().map(StoredTrial::to_event));
        }
        out
    }

    /// [`TrialStore::export_events`] rendered as JSONL: each session's
    /// lines on a worker of its own, joined in label order.
    pub fn export_jsonl(&self) -> String {
        let inner = lock_recover(&self.inner);
        let sessions: Vec<&SessionEntry> = inner.index.sessions.values().collect();
        on_every_core(&sessions, |e| events_to_jsonl(e.trials.values())).concat()
    }
}

/// Rebuilds a [`llamatune::session::SessionHistory`] from a *complete*
/// stored session without re-running anything: scores and raw scores are
/// read back, the best curve is re-folded, and `stopped_at` comes from
/// the session's metadata.
pub fn rebuild_history(
    trials: &[StoredTrial],
    stopped_at: Option<usize>,
) -> llamatune::session::SessionHistory {
    let mut history = llamatune::session::SessionHistory { stopped_at, ..Default::default() };
    let mut best = f64::NEG_INFINITY;
    for t in trials {
        history.configs.push(llamatune_space::Config::new(t.config.clone()));
        history.points.push(t.point.clone());
        history.scores.push(t.score);
        history.raw_scores.push(t.raw_score);
        history.statuses.push(t.status);
        history.attempts.push(t.attempts.max(1));
        if t.iteration == 0 {
            history.best_curve.push(t.score);
        } else {
            best = best.max(t.score);
            history.best_curve.push(best);
        }
    }
    history
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ObjectStoreBackend, ObjectStoreOptions};
    use crate::manifest::MANIFEST_HEADER;
    use crate::record::{record_to_json, SessionStatus};
    use llamatune_space::KnobValue;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("llamatune_store_unit")
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
            point: if iteration == 0 { vec![] } else { vec![score / 10.0, 0.5] },
            config: vec![KnobValue::Int(iteration as i64), KnobValue::Cat(1)],
            metrics: vec![score, 0.0],
            status: llamatune::session::TrialStatus::Ok,
            attempts: 1,
        }
    }

    fn meta(session: &str, status: SessionStatus) -> SessionMeta {
        SessionMeta {
            session: session.to_string(),
            workload: "ycsb_a".to_string(),
            adapter: "identity/s1".to_string(),
            status,
            stopped_at: None,
            fingerprint: vec![0.6, 0.8],
            warm_points: vec![],
            lease: None,
        }
    }

    #[test]
    fn append_reopen_preserves_everything() {
        let dir = tmp_dir("reopen");
        {
            let store = TrialStore::open(&dir).unwrap();
            store.append_session(&meta("s1", SessionStatus::Running)).unwrap();
            for i in 0..5 {
                store.append_trial(&trial("s1", i, i as f64)).unwrap();
            }
            store.append_session(&meta("s1", SessionStatus::Done)).unwrap();
        }
        let store = TrialStore::open(&dir).unwrap();
        assert_eq!(store.sessions(), vec!["s1".to_string()]);
        assert_eq!(store.trial_count(), 5);
        assert_eq!(store.session_meta("s1").unwrap().status, SessionStatus::Done);
        let trials = store.trials_for("s1");
        assert_eq!(trials.len(), 5);
        for (i, t) in trials.iter().enumerate() {
            assert_eq!(t.iteration, i);
            assert_eq!(t.score, i as f64);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_seals_segments_through_the_manifest() {
        let dir = tmp_dir("rotate");
        let store = TrialStore::open_with(&dir, StoreOptions { segment_records: 3 }).unwrap();
        for i in 0..8 {
            store.append_trial(&trial("s1", i, i as f64)).unwrap();
        }
        assert_eq!(store.sealed_segments().len(), 2, "8 records at 3/segment: 2 sealed");
        let manifest = std::fs::read_to_string(dir.join("MANIFEST")).unwrap();
        assert_eq!(
            manifest.lines().collect::<Vec<_>>(),
            [
                MANIFEST_HEADER,
                "seg-local-000001.jsonl",
                "seg-local-000002.jsonl",
                "active seg-local-000003.jsonl"
            ],
            "the active segment is listed, not sealed"
        );
        // Reload sees all 8 trials across the 3 segments.
        drop(store);
        let store = TrialStore::open(&dir).unwrap();
        assert_eq!(store.trial_count(), 8);
        assert_eq!(store.sealed_segments().len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_final_line_is_dropped_and_truncated() {
        let dir = tmp_dir("torn");
        {
            let store = TrialStore::open(&dir).unwrap();
            for i in 0..4 {
                store.append_trial(&trial("s1", i, i as f64)).unwrap();
            }
        }
        // Tear the last record mid-way, as a crash during write would.
        let seg = dir.join("seg-local-000001.jsonl");
        let text = std::fs::read_to_string(&seg).unwrap();
        let cut = text.len() - 17;
        std::fs::write(&seg, &text[..cut]).unwrap();

        let store = TrialStore::open(&dir).unwrap();
        assert_eq!(store.trial_count(), 3, "torn trial dropped");
        drop(store);
        // The file was truncated back to complete records: reopening
        // again parses cleanly and appending continues from there.
        let store = TrialStore::open(&dir).unwrap();
        store.append_trial(&trial("s1", 3, 30.0)).unwrap();
        assert_eq!(store.trial_count(), 4);
        assert_eq!(store.trials_for("s1")[3].score, 30.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tear_between_brace_and_newline_keeps_the_record_and_repairs_the_line() {
        let dir = tmp_dir("newline_tear");
        {
            let store = TrialStore::open(&dir).unwrap();
            for i in 0..3 {
                store.append_trial(&trial("s1", i, i as f64)).unwrap();
            }
        }
        // Tear exactly after the final '}' but before its '\n': the
        // record is complete; only the terminator is lost.
        let seg = dir.join("seg-local-000001.jsonl");
        let text = std::fs::read_to_string(&seg).unwrap();
        std::fs::write(&seg, text.trim_end_matches('\n')).unwrap();

        // Recovery keeps all three records (the append was acknowledged
        // with Ok — dropping it would be silent data loss)...
        let store = TrialStore::open(&dir).unwrap();
        assert_eq!(store.trial_count(), 3, "complete final record survives");
        // ...and the next append must start on its own line, so a
        // further reopen still sees every record.
        store.append_trial(&trial("s1", 3, 30.0)).unwrap();
        drop(store);
        let store = TrialStore::open(&dir).unwrap();
        assert_eq!(store.trial_count(), 4, "no concatenated-line loss after the repair");
        assert_eq!(store.trials_for("s1")[3].score, 30.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interleaved_garbage_is_rejected() {
        let dir = tmp_dir("garbage");
        {
            let store = TrialStore::open(&dir).unwrap();
            for i in 0..3 {
                store.append_trial(&trial("s1", i, i as f64)).unwrap();
            }
        }
        let seg = dir.join("seg-local-000001.jsonl");
        let text = std::fs::read_to_string(&seg).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.insert(1, "!!! garbage");
        std::fs::write(&seg, lines.join("\n")).unwrap();
        let err = TrialStore::open(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_sealed_segment_is_an_error_even_at_the_tail() {
        let dir = tmp_dir("sealed_strict");
        {
            let store = TrialStore::open_with(&dir, StoreOptions { segment_records: 2 }).unwrap();
            for i in 0..4 {
                store.append_trial(&trial("s1", i, i as f64)).unwrap();
            }
        }
        // Tear the *sealed* first segment: sealed segments are parsed
        // strictly, so even a torn final line is corruption.
        let seg = dir.join("seg-local-000001.jsonl");
        let text = std::fs::read_to_string(&seg).unwrap();
        std::fs::write(&seg, &text[..text.len() - 5]).unwrap();
        assert!(TrialStore::open(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The parent's strict-read error for `name` when its line `line`
    /// reads `text`.
    fn strict_error(name: &str, line: usize, text: &str) -> String {
        let e = crate::record::record_from_json(text).unwrap_err();
        format!("{name} line {line}: {e}")
    }

    #[test]
    fn the_first_corrupt_sealed_segment_in_manifest_order_is_the_error() {
        let dir = tmp_dir("sealed_first_error");
        {
            let store = TrialStore::open_with(&dir, StoreOptions { segment_records: 2 }).unwrap();
            for i in 0..8 {
                store.append_trial(&trial("s1", i, i as f64)).unwrap();
            }
        }
        // Four sealed segments. The second is torn at its tail; the
        // fourth is garbage from its first line, so it fails sooner.
        let second = dir.join("seg-local-000002.jsonl");
        let text = std::fs::read_to_string(&second).unwrap();
        let torn = &text[..text.len() - 5];
        std::fs::write(&second, torn).unwrap();
        std::fs::write(dir.join("seg-local-000004.jsonl"), "!!! garbage\n").unwrap();

        let err = TrialStore::open(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let line = torn.lines().nth(1).unwrap();
        assert_eq!(err.to_string(), strict_error("seg-local-000002.jsonl", 2, line));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_corrupt_sealed_segment_fails_the_open_before_the_own_segment_is_repaired() {
        let dir = tmp_dir("sealed_before_own");
        {
            let store = TrialStore::open_with(&dir, StoreOptions { segment_records: 2 }).unwrap();
            for i in 0..5 {
                store.append_trial(&trial("s1", i, i as f64)).unwrap();
            }
        }
        let first = dir.join("seg-local-000001.jsonl");
        let text = std::fs::read_to_string(&first).unwrap();
        std::fs::write(&first, &text[..text.len() - 5]).unwrap();
        // The own (active) segment is torn too; a repair would truncate it.
        let own = dir.join("seg-local-000003.jsonl");
        let text = std::fs::read_to_string(&own).unwrap();
        std::fs::write(&own, &text[..text.len() - 17]).unwrap();
        let before = std::fs::read(&own).unwrap();

        let err = TrialStore::open(&dir).unwrap_err();
        assert!(err.to_string().starts_with("seg-local-000001.jsonl line 2: "), "{err}");
        assert_eq!(std::fs::read(&own).unwrap(), before, "the own segment is left as found");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_finite_metrics_survive_seal_and_reopen() {
        let dir = tmp_dir("nonfinite_metrics");
        let opts = StoreOptions { segment_records: 2 };
        let (export, sealed_bytes) = {
            let store = TrialStore::open_with(&dir, opts.clone()).unwrap();
            // An engine that reported a 0/0 hit ratio and an unbounded rate.
            let mut odd = trial("s1", 0, 1.0);
            odd.metrics = vec![1.0, f64::NAN, f64::INFINITY];
            store.append_trial(&odd).unwrap();
            store.append_trial(&trial("s1", 1, 2.0)).unwrap(); // seals the segment
            assert_eq!(store.sealed_segments().len(), 1);
            (store.export_jsonl(), std::fs::read(dir.join("seg-local-000001.jsonl")).unwrap())
        };
        // The sealed segment is parsed strictly on open: the `null`s the
        // writer put there must be readable, as NaN.
        let store = TrialStore::open_with(&dir, opts).unwrap();
        let metrics = &store.trials_for("s1")[0].metrics;
        assert_eq!(metrics[0], 1.0);
        assert!(metrics[1].is_nan() && metrics[2].is_nan(), "{metrics:?}");
        assert_eq!(store.export_jsonl(), export);
        // Rewriting the records reproduces the segment byte for byte.
        store.compact().unwrap();
        let rewritten: Vec<u8> = store
            .sealed_segments()
            .iter()
            .flat_map(|name| std::fs::read(dir.join(name)).unwrap())
            .collect();
        assert_eq!(rewritten, sealed_bytes);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_iterations_resolve_last_wins_in_queries_and_export() {
        let dir = tmp_dir("dup");
        let store = TrialStore::open(&dir).unwrap();
        store.append_trial(&trial("s1", 0, 1.0)).unwrap();
        store.append_trial(&trial("s1", 1, 2.0)).unwrap();
        store.append_trial(&trial("s1", 1, 99.0)).unwrap(); // resume re-ran iteration 1
        assert_eq!(store.trial_count(), 2);
        assert_eq!(store.trial_records(), 3);
        assert_eq!(store.trials_for("s1")[1].score, 99.0);
        let events = store.export_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].score, 99.0);
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn export_orders_by_session_then_iteration() {
        let dir = tmp_dir("export");
        let store = TrialStore::open(&dir).unwrap();
        // Interleave appends across sessions, as concurrent lanes do.
        store.append_trial(&trial("b", 0, 1.0)).unwrap();
        store.append_trial(&trial("a", 0, 2.0)).unwrap();
        store.append_trial(&trial("b", 1, 3.0)).unwrap();
        store.append_trial(&trial("a", 1, 4.0)).unwrap();
        let events = store.export_events();
        let order: Vec<(String, usize)> =
            events.iter().map(|e| (e.session.clone(), e.iteration)).collect();
        assert_eq!(
            order,
            vec![
                ("a".to_string(), 0),
                ("a".to_string(), 1),
                ("b".to_string(), 0),
                ("b".to_string(), 1)
            ]
        );
        let jsonl = store.export_jsonl();
        let parsed = llamatune::history_io::events_from_jsonl(&jsonl).unwrap();
        assert_eq!(parsed, events);
        assert!(llamatune::history_io::session_curves(&parsed).is_ok());
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn trials_truncate_at_gaps() {
        let dir = tmp_dir("gap");
        let store = TrialStore::open(&dir).unwrap();
        store.append_trial(&trial("s1", 0, 1.0)).unwrap();
        store.append_trial(&trial("s1", 2, 3.0)).unwrap(); // gap at 1
        assert_eq!(store.trials_for("s1").len(), 1);
        assert_eq!(store.prior_trials("s1").len(), 1);
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn rebuild_history_refolds_the_best_curve() {
        let trials: Vec<StoredTrial> =
            [5.0, 3.0, 8.0, 2.0, 9.0].iter().enumerate().map(|(i, &s)| trial("s1", i, s)).collect();
        let h = rebuild_history(&trials, None);
        assert_eq!(h.scores, vec![5.0, 3.0, 8.0, 2.0, 9.0]);
        assert_eq!(h.best_curve, vec![5.0, 3.0, 8.0, 8.0, 9.0]);
        assert_eq!(h.best_score(), Some(9.0));
        assert_eq!(h.default_score(), 5.0);
        let stopped = rebuild_history(&trials, Some(4));
        assert_eq!(stopped.stopped_at, Some(4));
    }

    #[test]
    fn compact_dedups_trials_and_drops_superseded_meta() {
        let dir = tmp_dir("compact");
        let store = TrialStore::open_with(&dir, StoreOptions { segment_records: 4 }).unwrap();
        store.append_session(&meta("s1", SessionStatus::Running)).unwrap();
        for i in 0..5 {
            store.append_trial(&trial("s1", i, i as f64)).unwrap();
        }
        // A resumed partial round re-runs iterations 3 and 4.
        store.append_trial(&trial("s1", 3, 33.0)).unwrap();
        store.append_trial(&trial("s1", 4, 44.0)).unwrap();
        store.append_session(&meta("s1", SessionStatus::Done)).unwrap();
        let export_before = store.export_jsonl();
        assert_eq!(store.trial_records(), 7);
        assert_eq!(store.trial_count(), 5);

        let stats = store.compact().unwrap();
        assert_eq!(stats.trial_records_before, 7);
        assert_eq!(stats.trial_records_after, 5);
        assert!(stats.segments_after <= stats.segments_before);
        assert_eq!(store.trial_records(), 5, "duplicates rewritten away");
        assert_eq!(store.export_jsonl(), export_before, "logical state unchanged");
        assert_eq!(store.session_meta("s1").unwrap().status, SessionStatus::Done);
        assert_eq!(store.trials_for("s1")[3].score, 33.0, "last-wins winners survive");

        // The rewritten store reopens cleanly (non-dense segment
        // numbering) and keeps accepting appends.
        drop(store);
        let store = TrialStore::open(&dir).unwrap();
        assert_eq!(store.export_jsonl(), export_before);
        assert_eq!(store.trial_records(), 5);
        store.append_trial(&trial("s1", 5, 55.0)).unwrap();
        drop(store);
        let store = TrialStore::open(&dir).unwrap();
        assert_eq!(store.trial_count(), 6);
        // Exactly one metadata record per session remains on disk.
        let mut meta_lines = 0;
        for name in store.sealed_segments() {
            let text = std::fs::read_to_string(dir.join(&name)).unwrap();
            meta_lines += text.lines().filter(|l| l.contains("\"kind\":\"session\"")).count();
        }
        assert_eq!(meta_lines, 1, "superseded Running meta dropped");
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn compact_is_idempotent_and_handles_empty_stores() {
        let dir = tmp_dir("compact_idem");
        let store = TrialStore::open(&dir).unwrap();
        let stats = store.compact().unwrap();
        assert_eq!(stats.trial_records_after, 0);
        store.append_trial(&trial("s1", 0, 1.0)).unwrap();
        store.compact().unwrap();
        let export = store.export_jsonl();
        let again = store.compact().unwrap();
        assert_eq!(again.trial_records_before, again.trial_records_after);
        assert_eq!(store.export_jsonl(), export);
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn compact_on_an_empty_store_is_a_true_noop() {
        let dir = tmp_dir("compact_noop");
        let store = TrialStore::open(&dir).unwrap();
        let manifest_before = std::fs::read_to_string(dir.join("MANIFEST")).unwrap();
        let files_before: Vec<String> = store.backend().list().unwrap();
        let stats = store.compact().unwrap();
        assert_eq!(stats.segments_before, stats.segments_after);
        assert_eq!(
            std::fs::read_to_string(dir.join("MANIFEST")).unwrap(),
            manifest_before,
            "no fresh manifest revision on an empty store"
        );
        assert_eq!(store.backend().list().unwrap(), files_before, "no new objects either");
        // Once the store holds anything, compaction works as usual.
        store.append_trial(&trial("s1", 0, 1.0)).unwrap();
        let stats = store.compact().unwrap();
        assert_eq!(stats.trial_records_after, 1);
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn rotation_continues_after_compaction() {
        let dir = tmp_dir("compact_rotate");
        let store = TrialStore::open_with(&dir, StoreOptions { segment_records: 3 }).unwrap();
        for i in 0..7 {
            store.append_trial(&trial("s1", i, i as f64)).unwrap();
        }
        store.compact().unwrap();
        // Keep appending past the rotation threshold: sealing must use
        // fresh indices beyond the compacted ones.
        for i in 7..14 {
            store.append_trial(&trial("s1", i, i as f64)).unwrap();
        }
        drop(store);
        let store = TrialStore::open(&dir).unwrap();
        assert_eq!(store.trial_count(), 14);
        let names = store.sealed_segments();
        let indices: Vec<usize> = names.iter().map(|n| super::segment_index(n).unwrap()).collect();
        assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "manifest indices strictly increase (no reuse after compaction): {names:?}"
        );
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn rotation_truncates_stray_segment_files() {
        let dir = tmp_dir("stray");
        let store = TrialStore::open_with(&dir, StoreOptions { segment_records: 2 }).unwrap();
        // A compaction that crashed before its manifest rename leaves a
        // stray file at a future segment index; its stale records must
        // not be adopted when rotation reaches that index.
        let stale = format!(
            "{}\n",
            record_to_json(&StoreRecord::Session(meta("ghost", SessionStatus::Running)))
        );
        std::fs::write(dir.join(segment_name("local", 2)), stale).unwrap();
        for i in 0..3 {
            store.append_trial(&trial("s1", i, i as f64)).unwrap();
        }
        assert_eq!(store.sealed_segments(), vec![segment_name("local", 1)], "rotation happened");
        drop(store);
        let store = TrialStore::open(&dir).unwrap();
        assert_eq!(store.trial_count(), 3);
        assert!(
            store.session_meta("ghost").is_none(),
            "stale records in a stray segment must not resurface"
        );
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn fresh_store_creates_manifest_and_is_empty() {
        let dir = tmp_dir("fresh");
        let store = TrialStore::open(&dir).unwrap();
        assert!(store.is_empty());
        assert!(store.sessions().is_empty());
        assert!(dir.join("MANIFEST").exists());
        assert!(store.export_events().is_empty());
        store.sync().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // ------------------------------------------------------------------
    // Backend-parameterized and fleet-mode behavior
    // ------------------------------------------------------------------

    fn object_backend() -> Arc<ObjectStoreBackend> {
        Arc::new(ObjectStoreBackend::new(ObjectStoreOptions { eventual_list: true }))
    }

    #[test]
    fn single_writer_store_works_identically_on_an_object_backend() {
        let be = object_backend();
        {
            let opts = StoreOptions { segment_records: 3 };
            let store = TrialStore::open_shared(be.clone(), "local", opts).unwrap();
            store.append_session(&meta("s1", SessionStatus::Running)).unwrap();
            for i in 0..8 {
                store.append_trial(&trial("s1", i, i as f64)).unwrap();
            }
            store.append_session(&meta("s1", SessionStatus::Done)).unwrap();
            assert!(store.sealed_segments().len() >= 2, "rotation CAS-committed");
        }
        // Reopen on the same backend: everything survives, including
        // through a compaction cycle.
        let store = TrialStore::open_shared(be.clone(), "local", StoreOptions::default()).unwrap();
        assert_eq!(store.trial_count(), 8);
        assert_eq!(store.session_meta("s1").unwrap().status, SessionStatus::Done);
        let export = store.export_jsonl();
        store.compact().unwrap();
        assert_eq!(store.export_jsonl(), export);
        drop(store);
        let store = TrialStore::open_shared(be, "local", StoreOptions::default()).unwrap();
        assert_eq!(store.export_jsonl(), export);
    }

    #[test]
    fn torn_object_append_recovers_like_a_torn_file() {
        let be = object_backend();
        {
            let store =
                TrialStore::open_shared(be.clone(), "local", StoreOptions::default()).unwrap();
            for i in 0..4 {
                store.append_trial(&trial("s1", i, i as f64)).unwrap();
            }
        }
        let seg = "seg-local-000001.jsonl";
        let bytes = be.get(seg).unwrap().unwrap();
        be.put(seg, &bytes[..bytes.len() - 17]).unwrap();
        let store = TrialStore::open_shared(be, "local", StoreOptions::default()).unwrap();
        assert_eq!(store.trial_count(), 3, "torn trial dropped");
        store.append_trial(&trial("s1", 3, 30.0)).unwrap();
        assert_eq!(store.trials_for("s1")[3].score, 30.0);
    }

    #[test]
    fn two_fleet_writers_share_one_store_through_manifest_cas() {
        let be = object_backend();
        let a =
            TrialStore::open_shared(be.clone(), "wa", StoreOptions { segment_records: 2 }).unwrap();
        let b =
            TrialStore::open_shared(be.clone(), "wb", StoreOptions { segment_records: 2 }).unwrap();
        for i in 0..5 {
            a.append_trial(&trial("sa", i, i as f64)).unwrap();
            b.append_trial(&trial("sb", i, 100.0 + i as f64)).unwrap();
        }
        // Each handle sees its open-time snapshot plus its own appends;
        // refresh merges in the other writer's records.
        assert_eq!(a.trials_for("sa").len(), 5);
        a.refresh().unwrap();
        assert_eq!(a.trials_for("sb").len(), 5, "refresh sees the other writer");
        // A reader sees the merged view without registering anything.
        let reader = TrialStore::open_reader(be.clone(), StoreOptions::default()).unwrap();
        assert_eq!(reader.trial_count(), 10);
        assert!(reader.append_trial(&trial("sx", 0, 1.0)).is_err(), "readers cannot write");
        assert!(reader.compact().is_err(), "readers cannot compact");
        // Compaction by one writer must not lose the other's records.
        a.compact().unwrap();
        for i in 5..8 {
            b.append_trial(&trial("sb", i, 100.0 + i as f64)).unwrap();
        }
        let reader = TrialStore::open_reader(be, StoreOptions::default()).unwrap();
        assert_eq!(reader.trials_for("sa").len(), 5);
        assert_eq!(reader.trials_for("sb").len(), 8);
    }

    #[test]
    fn fleet_writer_reclaims_its_dead_incarnations_segments() {
        let be = object_backend();
        {
            let w = TrialStore::open_shared(be.clone(), "w0", StoreOptions::default()).unwrap();
            for i in 0..3 {
                w.append_trial(&trial("s1", i, i as f64)).unwrap();
            }
            // The worker "dies" here: its active segment stays listed.
        }
        // Tear the dead worker's active segment mid-record.
        let name = segment_name("w0", 1);
        let bytes = be.get(&name).unwrap().unwrap();
        be.put(&name, &bytes[..bytes.len() - 9]).unwrap();
        // The reborn worker repairs and adopts the segment and appends on.
        let w = TrialStore::open_shared(be.clone(), "w0", StoreOptions::default()).unwrap();
        assert_eq!(w.trial_count(), 2, "torn record dropped by the reclaim repair");
        w.append_trial(&trial("s1", 2, 2.0)).unwrap();
        let reader = TrialStore::open_reader(be, StoreOptions::default()).unwrap();
        assert_eq!(reader.trials_for("s1").len(), 3);
    }

    #[test]
    fn fleet_rotation_and_compaction_race_on_a_local_backend_too() {
        // The same shared protocol runs on a local directory: the
        // backend's in-process CAS gate serializes the commits.
        let dir = tmp_dir("fleet_local");
        let be: Arc<dyn StoreBackend> = Arc::new(LocalDirBackend::create(&dir).unwrap());
        let a =
            TrialStore::open_shared(be.clone(), "a", StoreOptions { segment_records: 2 }).unwrap();
        let b =
            TrialStore::open_shared(be.clone(), "b", StoreOptions { segment_records: 2 }).unwrap();
        for i in 0..6 {
            a.append_trial(&trial("sa", i, i as f64)).unwrap();
            b.append_trial(&trial("sb", i, i as f64)).unwrap();
        }
        b.compact().unwrap();
        a.append_trial(&trial("sa", 6, 6.0)).unwrap();
        let reader = TrialStore::open_reader(be, StoreOptions::default()).unwrap();
        assert_eq!(reader.trials_for("sa").len(), 7);
        assert_eq!(reader.trials_for("sb").len(), 6);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn invalid_writer_tags_are_rejected() {
        let be = object_backend();
        for bad in ["", "w-0", "w 0", "w/0"] {
            assert!(
                TrialStore::open_shared(be.clone(), bad, StoreOptions::default()).is_err(),
                "tag {bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn session_lease_records_roundtrip_through_the_store() {
        let be = object_backend();
        let w = TrialStore::open_shared(be.clone(), "w1", StoreOptions::default()).unwrap();
        let mut m = meta("s1", SessionStatus::Running);
        m.lease = Some("w1".to_string());
        w.append_session(&m).unwrap();
        let reader = TrialStore::open_reader(be, StoreOptions::default()).unwrap();
        assert_eq!(reader.session_meta("s1").unwrap().lease.as_deref(), Some("w1"));
    }
}

/// [`replay_manifest`] against [`reference_replay`], the serial replay it
/// parallelised, and the parallel [`TrialStore::export_jsonl`] against
/// the serial rendering — on stores of more segments than cores, with
/// re-run trials across segment boundaries, metadata updates in several
/// segments, torn actives and corrupt sealed segments.
#[cfg(test)]
mod replay_oracle {
    use super::*;
    use crate::backend::{ObjectStoreBackend, ObjectStoreOptions};
    use crate::segment::{reference_replay, Replay};
    use crate::SessionStatus;
    use llamatune_space::KnobValue;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    const SESSIONS: usize = 3;

    /// One generated store.
    struct Plan {
        local: bool,
        /// Two writers (`a`, `b`) rather than one (`a`).
        fleet: bool,
        segment_records: usize,
        /// `(session, kind, value)` per append: a metadata update, a
        /// re-run of a recent iteration, or the session's next trial.
        ops: Vec<(usize, usize, u64)>,
        /// How the own active segment is torn (0: not at all); a foreign
        /// one is torn the next way.
        tear: usize,
        /// Which sealed segment gets a garbage line, if any (when odd,
        /// the last one gets another).
        corrupt: Option<usize>,
    }

    impl Plan {
        fn opts(&self) -> StoreOptions {
            StoreOptions { segment_records: self.segment_records }
        }
    }

    fn trial(session: usize, iteration: usize, score: f64) -> StoredTrial {
        StoredTrial {
            session: format!("s{session}"),
            iteration,
            raw_score: Some(score),
            score,
            point: vec![score / 64.0, 0.5],
            config: vec![KnobValue::Int(iteration as i64), KnobValue::Float(score)],
            metrics: vec![score],
            status: llamatune::session::TrialStatus::Ok,
            attempts: 1,
        }
    }

    fn meta(session: usize, value: u64) -> SessionMeta {
        SessionMeta {
            session: format!("s{session}"),
            workload: "ycsb_a".to_string(),
            adapter: "identity/s1".to_string(),
            status: if value % 2 == 1 { SessionStatus::Done } else { SessionStatus::Running },
            stopped_at: Some(value as usize),
            fingerprint: vec![0.6, 0.8],
            warm_points: vec![],
            lease: None,
        }
    }

    fn current(be: &dyn StoreBackend) -> Manifest {
        with_manifest(be, None, "oracle", |m| Ok(Step::Keep(m.clone()))).unwrap().out
    }

    /// Tears the end of `name` as a crash mid-append would: 1 drops the
    /// final newline, 2 cuts the last line in half, 3 leaves the start
    /// of a record no newline ends.
    fn tear(be: &dyn StoreBackend, name: &str, how: usize) {
        let bytes = be.get(name).unwrap().unwrap_or_default();
        let len = bytes.len();
        let start =
            bytes[..len.saturating_sub(1)].iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
        match how {
            1 if len > 0 => be.truncate(name, len as u64 - 1).unwrap(),
            2 if len > 0 => be.truncate(name, (start + (len - 1 - start) / 2) as u64).unwrap(),
            3 => be.append(name, b"{\"kind\":\"tri").unwrap(),
            _ => {}
        }
    }

    /// Writes `plan` to `be`, then tears and corrupts it. Returns the
    /// writers' active segments, the own one (writer 0's) first.
    fn build(plan: &Plan, be: &Arc<dyn StoreBackend>) -> Vec<String> {
        let tags: &[&str] = if plan.fleet { &["a", "b"] } else { &["a"] };
        let writers: Vec<TrialStore> = tags
            .iter()
            .map(|w| TrialStore::open_shared(be.clone(), w, plan.opts()).unwrap())
            .collect();
        let writer = |s: usize| &writers[s % writers.len()];
        let mut next = [0usize; SESSIONS];
        for s in 0..SESSIONS {
            writer(s).append_session(&meta(s, 0)).unwrap();
        }
        for (k, &(s, kind, value)) in plan.ops.iter().enumerate() {
            let score = k as f64 + value as f64 / 8.0;
            match kind {
                0 => writer(s).append_session(&meta(s, value)).unwrap(),
                1 if next[s] > 0 => {
                    let back = 1 + value as usize % next[s].min(2);
                    writer(s).append_trial(&trial(s, next[s] - back, score)).unwrap();
                }
                _ => {
                    writer(s).append_trial(&trial(s, next[s], score)).unwrap();
                    next[s] += 1;
                }
            }
        }
        let w0 = &writers[0];
        let mut fresh = |score: f64| {
            w0.append_trial(&trial(0, next[0], score)).unwrap();
            next[0] += 1;
            next[0] - 1
        };
        // More sealed segments than cores...
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        while current(&**be).sealed.len() <= cores {
            fresh(0.5);
        }
        // ...a re-run whose original closes one segment and whose
        // re-run opens the next...
        while lock_recover(&w0.inner).active_records + 1 != plan.segment_records {
            fresh(0.25);
        }
        let last = fresh(1.0);
        w0.append_trial(&trial(0, last, 2.0)).unwrap();
        // ...and a metadata update segments after the first.
        w0.append_session(&meta(0, 7)).unwrap();
        let actives: Vec<String> =
            writers.iter().map(|w| lock_recover(&w.inner).active_name.clone()).collect();
        drop(writers);

        tear(&**be, &actives[0], plan.tear);
        for foreign in &actives[1..] {
            tear(&**be, foreign, (plan.tear + 1) % 4);
        }
        if let Some(i) = plan.corrupt {
            // One corrupt sealed segment, or two: then the last one too.
            let sealed = current(&**be).sealed;
            be.append(&sealed[i % sealed.len()], b"!!! garbage\n").unwrap();
            if i % 2 == 1 {
                be.append(sealed.last().unwrap(), b"!!! more garbage\n").unwrap();
            }
        }
        actives
    }

    /// A reader handle over `replay`'s index, to query it the public way.
    fn view(replay: Replay) -> (BTreeMap<String, usize>, TrialStore) {
        let be = Arc::new(ObjectStoreBackend::new(ObjectStoreOptions { eventual_list: false }));
        let store = TrialStore::handle(be, None, StoreOptions::default());
        lock_recover(&store.inner).index = replay.index;
        (replay.active_counts, store)
    }

    fn assert_same(got: &TrialStore, want: &TrialStore) {
        let sessions = want.sessions();
        assert_eq!(got.sessions(), sessions);
        for s in &sessions {
            assert_eq!(got.trials_for(s), want.trials_for(s), "{s}");
            assert_eq!(got.session_meta(s), want.session_meta(s), "{s}");
        }
        assert_eq!(got.trial_records(), want.trial_records());
        let index = |store: &TrialStore| lock_recover(&store.inner).index.serialize_sessions();
        assert_eq!(index(got), index(want));
        let serial = {
            let inner = lock_recover(&want.inner);
            events_to_jsonl(inner.index.sessions.values().flat_map(|e| e.trials.values()))
        };
        assert_eq!(got.export_jsonl(), serial);
        assert_eq!(want.export_jsonl(), serial);
    }

    /// The same replay, or the same error: kind and text.
    fn agree(got: io::Result<Replay>, want: &io::Result<(BTreeMap<String, usize>, TrialStore)>) {
        match (got, want) {
            (Ok(got), Ok((want_counts, want))) => {
                let (got_counts, got) = view(got);
                assert_eq!(&got_counts, want_counts);
                assert_same(&got, want);
            }
            (Err(got), Err(want)) => {
                assert_eq!(got.kind(), want.kind());
                assert_eq!(got.to_string(), want.to_string());
            }
            (got, want) => panic!("parallel {:?}, reference {:?}", got.err(), want.as_ref().err()),
        }
    }

    fn check(plan: &Plan, seed: u64) {
        let mut dirs = Vec::new();
        let copies: Vec<Arc<dyn StoreBackend>> = (0..3)
            .map(|copy| -> Arc<dyn StoreBackend> {
                if !plan.local {
                    return Arc::new(ObjectStoreBackend::new(ObjectStoreOptions::default()));
                }
                let dir = std::env::temp_dir()
                    .join("llamatune_store_unit")
                    .join(format!("oracle_{seed:016x}_{copy}_{}", std::process::id()));
                let _ = std::fs::remove_dir_all(&dir);
                dirs.push(dir.clone());
                Arc::new(LocalDirBackend::create(&dir).unwrap())
            })
            .collect();
        let actives: Vec<Vec<String>> = copies.iter().map(|be| build(plan, be)).collect();
        let [a, b, c] = [&*copies[0], &*copies[1], &*copies[2]];
        let own = actives[0][0].as_str();
        let m = current(a);
        assert!(actives.iter().all(|x| *x == actives[0]) && current(b) == m && current(c) == m);
        let torn = a.get(own).unwrap();

        // A reader's replay owns nothing and repairs nothing...
        agree(replay_manifest(b, &m, None), &reference_replay(a, &m, None).map(view));
        // ...an owner's repairs its own segment in place...
        let want = reference_replay(a, &m, Some(own)).map(view);
        agree(replay_manifest(b, &m, Some(own)), &want);
        // ...and so does a real open.
        let opened = TrialStore::open_shared(copies[2].clone(), "a", plan.opts());
        match (&opened, &want) {
            (Ok(got), Ok((counts, want))) => {
                assert_eq!(lock_recover(&got.inner).active_records, counts[own]);
                assert_same(got, want);
            }
            (Err(got), Err(want)) => assert_eq!(got.to_string(), want.to_string()),
            _ => panic!("open {:?}, reference {:?}", opened.err(), want.err()),
        }
        let repaired = a.get(own).unwrap();
        assert_eq!(b.get(own).unwrap(), repaired);
        assert_eq!(c.get(own).unwrap(), repaired);
        if want.is_err() {
            assert_eq!(repaired, torn, "a failed replay leaves the own segment as found");
        }
        for dir in dirs {
            std::fs::remove_dir_all(dir).unwrap();
        }
    }

    proptest! {
        #[test]
        fn parallel_replay_and_export_match_the_serial_reference(
            (local, fleet) in (any::<bool>(), any::<bool>()),
            (segment_records, seed) in (1usize..5, any::<u64>()),
            ops in proptest::collection::vec((0..SESSIONS, 0usize..6, 0u64..8), 0..40),
            (tear, corrupt) in (0usize..4, 0usize..12),
        ) {
            let corrupt = (corrupt < 4).then_some(corrupt);
            check(&Plan { local, fleet, segment_records, ops, tear, corrupt }, seed);
        }
    }
}
