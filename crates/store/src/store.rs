//! The append-only, crash-safe trial store.
//!
//! ## Layout
//!
//! ```text
//! MANIFEST            # header + sealed segment names (+ "active" lines
//!                     # for fleet writers — see below)
//! seg-000001.jsonl    # sealed: listed in MANIFEST, immutable, fully valid
//! seg-000002.jsonl    # active: append-only, may be torn
//! ```
//!
//! Objects live behind a [`StoreBackend`] — a local directory
//! ([`crate::backend::LocalDirBackend`]) or S3-style object storage
//! ([`crate::backend::ObjectStoreBackend`]); the store never touches
//! the filesystem directly. Every segment line is one [`StoreRecord`]
//! (see [`crate::record`]). Appends go to the *active* segment — one
//! backend `append` per record. When the active segment reaches
//! [`StoreOptions::segment_records`] records it is *sealed*: the
//! segment is synced, then a new `MANIFEST` naming it is committed —
//! by atomic rename on local directories, by conditional put (CAS) on
//! object stores (see [`crate::backend`] for the two protocols). The
//! manifest commit is the commit point — a crash during rotation leaves
//! either the old manifest (segment still active, fully replayable) or
//! the new one (segment sealed); no state in between.
//!
//! ## Recovery
//!
//! Opening a store replays the manifest's sealed segments *strictly*
//! (they were synced before sealing, so any damage is real corruption
//! and surfaces as an error) and active segments *leniently*: a final
//! line that fails to parse is a torn append — it is dropped and the
//! segment truncated back to the last good record — while an unparsable
//! line with valid records after it means interleaved garbage and is
//! rejected. Duplicate `(session, iteration)` trials are legal and
//! resolve last-wins: a resumed session re-runs its partial trailing
//! round, deterministically overwriting the records the crash left
//! behind.
//!
//! ## Fleet mode (multi-writer)
//!
//! [`TrialStore::open_shared`] registers a named writer on the store: a
//! writer owns a private active segment (`seg-<writer>-NNNNNN.jsonl`),
//! listed in the manifest as an `active` entry so every other writer —
//! and [`TrialStore::open_reader`] — can see its uncommitted records.
//! Rotation and compaction commit through a manifest CAS retry loop: a
//! writer that loses the race re-reads the winning manifest, merges its
//! change, and retries, so concurrent rotations and compactions never
//! drop a committed segment. Live writers never share a session (the
//! campaign layer leases sessions through [`SessionMeta::lease`]), and
//! a takeover after a kill re-runs deterministically, so cross-writer
//! duplicate records are always content-identical and last-wins merge
//! order does not matter. Single-writer stores are unchanged on disk:
//! their manifests carry no `active` entries and their segment names no
//! writer tag.
//!
//! [`SessionMeta::lease`]: crate::record::SessionMeta::lease

use crate::backend::{lock_recover, LocalDirBackend, Revision, StoreBackend};
use crate::record::{record_from_json, record_to_json, SessionMeta, StoreRecord, StoredTrial};
use llamatune::backoff::{Backoff, BackoffPolicy};
use llamatune::history_io::{events_to_jsonl, TrialEvent};
use llamatune::session::PriorTrial;
use llamatune_obs::trace::{NoopTracer, TraceEvent, Tracer};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

const MANIFEST_HEADER: &str = "llamatune-store v1";

/// Starts the store's CAS-loop backoff schedule, seeded from whatever
/// identifies the contender (the writer tag) so contending writers
/// draw decorrelated delays.
fn cas_backoff(tag: &str) -> Backoff {
    let mut seed: u64 = 0xcbf2_9ce4_8422_2325;
    for b in tag.bytes() {
        seed ^= u64::from(b);
        seed = seed.wrapping_mul(0x1_0000_0000_01b3);
    }
    Backoff::new(BackoffPolicy::STORE_CAS, seed)
}

/// Sleeps out one step of a CAS backoff schedule (ticks are
/// microseconds here), or errors once the retry budget is exhausted —
/// a livelocked manifest race becomes a clean error instead of a spin.
fn cas_retry(backoff: &mut Backoff, what: &str) -> io::Result<()> {
    // Contention is scheduling-dependent, so retries are a process-wide
    // metric, never a trace span (traces stay deterministic).
    llamatune_obs::global().incr("store.cas_retries", 1);
    match backoff.next() {
        Some(us) => {
            if us > 0 {
                std::thread::sleep(std::time::Duration::from_micros(us));
            }
            Ok(())
        }
        None => Err(io::Error::new(
            io::ErrorKind::TimedOut,
            format!(
                "manifest CAS contention: {what} lost {} consecutive races",
                backoff.attempts()
            ),
        )),
    }
}

/// The trace span summarising one compaction pass. Attributed to the
/// synthetic `"store"` session: compaction runs from one thread at a
/// time per handle, so the span order is deterministic for
/// single-writer runs (multi-writer ordering is explicitly outside the
/// determinism contract).
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
struct SessionEntry {
    /// Trials by iteration, last record wins.
    trials: BTreeMap<usize, StoredTrial>,
    /// Latest metadata record.
    meta: Option<SessionMeta>,
}

/// The parsed `MANIFEST`: sealed segments in commit order, then the
/// registered active segments of fleet writers (empty for single-writer
/// stores, whose active segment is derived, not listed).
#[derive(Debug, Clone, Default)]
struct Manifest {
    sealed: Vec<String>,
    actives: Vec<String>,
}

impl Manifest {
    fn parse(bytes: &[u8]) -> io::Result<Manifest> {
        let text = std::str::from_utf8(bytes).map_err(|_| corrupt("manifest is not UTF-8"))?;
        let mut lines = text.lines();
        match lines.next() {
            Some(MANIFEST_HEADER) => {}
            other => return Err(corrupt(format!("bad manifest header {other:?}"))),
        }
        let mut m = Manifest::default();
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            match line.strip_prefix("active ") {
                Some(name) => m.actives.push(name.to_string()),
                None => m.sealed.push(line.to_string()),
            }
        }
        Ok(m)
    }

    fn to_bytes(&self) -> Vec<u8> {
        let mut text = String::from(MANIFEST_HEADER);
        text.push('\n');
        for name in &self.sealed {
            text.push_str(name);
            text.push('\n');
        }
        for name in &self.actives {
            text.push_str("active ");
            text.push_str(name);
            text.push('\n');
        }
        text.into_bytes()
    }

    /// Highest segment index across every listed segment, any writer.
    fn max_index(&self) -> usize {
        self.sealed.iter().chain(&self.actives).filter_map(|n| segment_index(n)).max().unwrap_or(0)
    }
}

#[derive(Debug)]
struct Inner {
    /// Sealed segments, in manifest (commit) order — fleet-wide in
    /// shared mode.
    sealed: Vec<String>,
    /// Manifest-listed active segments of *other* writers (shared mode).
    foreign_active: Vec<String>,
    /// Our active segment (empty string in reader mode).
    active_name: String,
    /// Numeric index of the active segment. Segment numbering is
    /// monotonically increasing but — after a [`TrialStore::compact`] —
    /// not necessarily dense, so the index is tracked explicitly rather
    /// than derived from `sealed.len()`.
    active_index: usize,
    active_records: usize,
    /// Manifest revision this handle last observed or committed.
    manifest_revision: Revision,
    sessions: BTreeMap<String, SessionEntry>,
    trial_records: usize,
}

/// The persistent tuning knowledge store. Thread-safe: concurrent
/// sessions of a campaign append through one shared handle.
#[derive(Debug)]
pub struct TrialStore {
    backend: Arc<dyn StoreBackend>,
    /// Backing directory, when the backend is a local directory opened
    /// through [`TrialStore::open`] / [`TrialStore::open_with`].
    dir: Option<PathBuf>,
    /// Fleet writer tag ([`TrialStore::open_shared`]); `None` for
    /// single-writer and reader handles.
    writer: Option<String>,
    read_only: bool,
    opts: StoreOptions,
    inner: Mutex<Inner>,
    /// Observability sink ([`TrialStore::set_tracer`]); [`NoopTracer`]
    /// by default, so untraced stores pay one relaxed load per span
    /// site and emit nothing.
    tracer: Mutex<Arc<dyn Tracer>>,
}

fn corrupt(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn read_only_err() -> io::Error {
    io::Error::new(io::ErrorKind::Unsupported, "store opened read-only (open_reader)")
}

/// Segment object name: `seg-NNNNNN.jsonl` for single-writer stores,
/// `seg-<writer>-NNNNNN.jsonl` in a fleet writer's private namespace
/// (private namespaces make concurrent index allocation collision-free
/// by construction).
fn segment_name(writer: Option<&str>, index: usize) -> String {
    match writer {
        Some(w) => format!("seg-{w}-{index:06}.jsonl"),
        None => format!("seg-{index:06}.jsonl"),
    }
}

/// Splits a segment name into its optional writer tag and index.
fn segment_parts(name: &str) -> Option<(Option<&str>, usize)> {
    let core = name.strip_prefix("seg-")?.strip_suffix(".jsonl")?;
    match core.rsplit_once('-') {
        Some((writer, index)) => Some((Some(writer), index.parse().ok()?)),
        None => Some((None, core.parse().ok()?)),
    }
}

/// Inverse of [`segment_name`]: the numeric index of a segment file.
fn segment_index(name: &str) -> Option<usize> {
    segment_parts(name).map(|(_, index)| index)
}

/// The writer tag embedded in a fleet segment name, if any.
fn segment_writer(name: &str) -> Option<&str> {
    segment_parts(name).and_then(|(writer, _)| writer)
}

/// Reads a sealed segment strictly: it was synced before the manifest
/// named it, so any unparsable line is corruption. A *missing* object
/// surfaces as [`io::ErrorKind::NotFound`]: under a fleet it usually
/// means a concurrent compaction committed a new manifest and deleted
/// this segment while we were replaying the old one — callers re-read
/// the manifest and retry, and only treat it as corruption when the
/// manifest has not moved.
fn load_segment_strict(backend: &dyn StoreBackend, name: &str) -> io::Result<Vec<StoreRecord>> {
    let bytes = backend.get(name)?.ok_or_else(|| {
        io::Error::new(io::ErrorKind::NotFound, format!("manifest names missing segment {name}"))
    })?;
    let text = std::str::from_utf8(&bytes).map_err(|_| corrupt(format!("{name}: not UTF-8")))?;
    text.lines()
        .enumerate()
        .map(|(i, line)| {
            record_from_json(line).map_err(|e| corrupt(format!("{name} line {}: {e}", i + 1)))
        })
        .collect()
}

/// Reads an active segment leniently: an unparsable *final* line is a
/// torn append and is dropped; garbage followed by valid records is
/// rejected. With `repair`, the torn tail is truncated away on the
/// backend and a missing final newline (a tear between the closing
/// brace and the terminator) is repaired in place — only call with
/// `repair` on a segment this handle owns.
fn load_segment_lenient(
    backend: &dyn StoreBackend,
    name: &str,
    repair: bool,
) -> io::Result<Vec<StoreRecord>> {
    let Some(bytes) = backend.get(name)? else {
        return Ok(Vec::new());
    };
    let text = std::str::from_utf8(&bytes).map_err(|_| corrupt(format!("{name}: not UTF-8")))?;
    let mut good_len = 0usize;
    let mut pending: Vec<StoreRecord> = Vec::new();
    let mut torn: Option<String> = None;
    for (i, line) in text.lines().enumerate() {
        match record_from_json(line) {
            Ok(rec) => {
                if let Some(bad) = &torn {
                    return Err(corrupt(format!(
                        "{name} line {}: unparsable record {bad:?} followed by valid records",
                        i
                    )));
                }
                pending.push(rec);
                // `lines()` strips the terminator; count it back.
                good_len += line.len() + 1;
            }
            Err(e) => {
                if torn.is_some() {
                    return Err(corrupt(format!(
                        "{name} line {}: {e} (multiple unparsable lines)",
                        i + 1
                    )));
                }
                torn = Some(format!("line {}: {e}", i + 1));
            }
        }
    }
    if repair {
        if torn.is_some() && good_len < text.len() {
            // Torn final append: truncate the segment back to the last
            // complete record before appending continues.
            backend.truncate(name, good_len as u64)?;
        } else if torn.is_none() && !text.is_empty() && !text.ends_with('\n') {
            // A tear can also land *between* the closing brace and the
            // newline: the final record is complete and kept, but its
            // terminator must be repaired — otherwise the next append
            // would concatenate onto this line and a later recovery
            // would mis-read the merged line as torn, silently dropping
            // an acknowledged record.
            backend.append(name, b"\n")?;
            backend.sync(name)?;
        }
    }
    Ok(pending)
}

/// A manifest's replayed contents.
struct Replay {
    sessions: BTreeMap<String, SessionEntry>,
    trial_records: usize,
    /// Record count per active segment, by name.
    active_counts: BTreeMap<String, usize>,
}

/// Replays one manifest view: sealed segments strictly (in manifest
/// order), then active segments leniently, then — when the manifest
/// registers no fleet writers — the implicit single-writer active at
/// the derived index. Propagates [`io::ErrorKind::NotFound`] from
/// sealed reads so callers can retry against a manifest a concurrent
/// compaction just committed.
fn replay_manifest(backend: &dyn StoreBackend, m: &Manifest) -> io::Result<Replay> {
    let mut replay =
        Replay { sessions: BTreeMap::new(), trial_records: 0, active_counts: BTreeMap::new() };
    for name in &m.sealed {
        for rec in load_segment_strict(backend, name)? {
            apply_record(&mut replay.sessions, &mut replay.trial_records, rec);
        }
    }
    for name in &m.actives {
        let recs = load_segment_lenient(backend, name, false)?;
        replay.active_counts.insert(name.clone(), recs.len());
        for rec in recs {
            apply_record(&mut replay.sessions, &mut replay.trial_records, rec);
        }
    }
    if m.actives.is_empty() {
        let derived = segment_name(None, m.max_index() + 1);
        for rec in load_segment_lenient(backend, &derived, false)? {
            apply_record(&mut replay.sessions, &mut replay.trial_records, rec);
        }
    }
    Ok(replay)
}

/// Reads the manifest, committing an empty one first if the store is
/// brand new (CAS-raced creators simply re-read the winner's).
fn read_or_init_manifest(backend: &dyn StoreBackend) -> io::Result<(Manifest, Revision)> {
    loop {
        let (bytes, revision) = backend.read_manifest()?;
        match bytes {
            Some(b) => return Ok((Manifest::parse(&b)?, revision)),
            None => {
                let empty = Manifest::default().to_bytes();
                if let Ok(rev) = backend.commit_manifest(&empty, 0)? {
                    return Ok((Manifest::default(), rev));
                }
            }
        }
    }
}

impl TrialStore {
    /// Opens (or creates) the store rooted at `dir` with default options.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<TrialStore> {
        TrialStore::open_with(dir, StoreOptions::default())
    }

    /// Opens (or creates) the store rooted at `dir`.
    pub fn open_with(dir: impl AsRef<Path>, opts: StoreOptions) -> io::Result<TrialStore> {
        let dir = dir.as_ref().to_path_buf();
        let backend = Arc::new(LocalDirBackend::create(&dir)?);
        TrialStore::open_single(backend, Some(dir), opts)
    }

    /// Opens (or creates) a single-writer store on any backend.
    pub fn open_backend(
        backend: Arc<dyn StoreBackend>,
        opts: StoreOptions,
    ) -> io::Result<TrialStore> {
        TrialStore::open_single(backend, None, opts)
    }

    fn open_single(
        backend: Arc<dyn StoreBackend>,
        dir: Option<PathBuf>,
        opts: StoreOptions,
    ) -> io::Result<TrialStore> {
        let (manifest, revision) = read_or_init_manifest(&*backend)?;
        if !manifest.actives.is_empty() {
            return Err(corrupt(
                "store has registered fleet writers; open it with open_shared or open_reader",
            ));
        }

        let mut sessions = BTreeMap::new();
        let mut trial_records = 0usize;
        for name in &manifest.sealed {
            for rec in load_segment_strict(&*backend, name)? {
                apply_record(&mut sessions, &mut trial_records, rec);
            }
        }

        // The active segment follows the highest sealed index (indices
        // are monotonic but, after compaction, not necessarily dense).
        let mut max_index = 0usize;
        for name in &manifest.sealed {
            let idx = segment_index(name)
                .ok_or_else(|| corrupt(format!("unparsable segment name {name:?} in manifest")))?;
            max_index = max_index.max(idx);
        }
        let active_index = max_index + 1;
        let active_name = segment_name(None, active_index);
        let recs = load_segment_lenient(&*backend, &active_name, true)?;
        let active_records = recs.len();
        for rec in recs {
            apply_record(&mut sessions, &mut trial_records, rec);
        }

        Ok(TrialStore {
            backend,
            dir,
            writer: None,
            read_only: false,
            opts,
            tracer: Mutex::new(Arc::new(NoopTracer)),
            inner: Mutex::new(Inner {
                sealed: manifest.sealed,
                foreign_active: Vec::new(),
                active_name,
                active_index,
                active_records,
                manifest_revision: revision,
                sessions,
                trial_records,
            }),
        })
    }

    /// Opens (or creates) a *fleet* store: this handle registers itself
    /// as writer `writer` and appends into a private active segment
    /// listed in the manifest, so every other writer and reader can see
    /// its records. Writer tags must be unique among *live* workers —
    /// reopening a dead worker's tag reclaims (repairs and adopts) the
    /// active segment it left behind. See the module docs for the
    /// multi-writer commit protocol.
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
        let mut backoff = cas_backoff(writer);
        loop {
            let (mut m, revision) = read_or_init_manifest(&*backend)?;
            let mut changed = false;

            // A store previously written single-writer has an implicit
            // (derived, unlisted) active segment; fold it into the
            // sealed list so fleet writers can see it. Safe under the
            // same assumption every shared open makes: no other handle
            // with authority over that segment is live.
            if m.actives.is_empty() {
                let derived = segment_name(None, m.max_index() + 1);
                if !load_segment_lenient(&*backend, &derived, true)?.is_empty() {
                    m.sealed.push(derived);
                    changed = true;
                }
            }

            // Reclaim active segments a dead incarnation of this writer
            // left behind: repair their torn tails, adopt the newest as
            // our active segment, seal the rest.
            let mut mine: Vec<(usize, String)> = m
                .actives
                .iter()
                .filter(|n| segment_writer(n) == Some(writer))
                .map(|n| (segment_index(n).unwrap_or(0), n.clone()))
                .collect();
            mine.sort();
            let adopted = mine.pop();
            for (_, name) in &mine {
                load_segment_lenient(&*backend, name, true)?;
                m.actives.retain(|n| n != name);
                m.sealed.push(name.clone());
                changed = true;
            }
            let mut created: Option<String> = None;
            let (active_name, active_index) = match adopted {
                Some((index, name)) => {
                    load_segment_lenient(&*backend, &name, true)?;
                    (name, index)
                }
                None => {
                    let index = m.max_index() + 1;
                    let name = segment_name(Some(writer), index);
                    // Truncate any stray left by a dead incarnation's
                    // interrupted compaction (private namespace: no
                    // race with other writers).
                    backend.put(&name, b"")?;
                    m.actives.push(name.clone());
                    created = Some(name.clone());
                    changed = true;
                    (name, index)
                }
            };

            let revision = if changed {
                match backend.commit_manifest(&m.to_bytes(), revision)? {
                    Ok(rev) => rev,
                    Err(_) => {
                        // Lost the registration race; discard the
                        // pre-created segment (the redo recomputes its
                        // index against the winner's manifest) and redo.
                        if let Some(name) = created {
                            let _ = backend.delete(&name);
                        }
                        cas_retry(&mut backoff, "writer registration")?;
                        continue;
                    }
                }
            } else {
                revision
            };

            // Replay the committed view: sealed strictly, actives
            // leniently (other writers may be mid-append; ours was
            // just repaired). A NotFound means a concurrent compaction
            // deleted a segment from under our manifest view — restart
            // against the manifest it committed (our registration is
            // already durable, so the retry adopts it unchanged).
            let replay = match replay_manifest(&*backend, &m) {
                Ok(r) => r,
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    cas_retry(&mut backoff, "open replay")?;
                    continue;
                }
                Err(e) => return Err(e),
            };
            let active_records = replay.active_counts.get(&active_name).copied().unwrap_or(0);
            let foreign_active = m.actives.iter().filter(|n| **n != active_name).cloned().collect();
            return Ok(TrialStore {
                backend,
                dir: None,
                writer: Some(writer.to_string()),
                read_only: false,
                opts,
                tracer: Mutex::new(Arc::new(NoopTracer)),
                inner: Mutex::new(Inner {
                    sealed: m.sealed,
                    foreign_active,
                    active_name,
                    active_index,
                    active_records,
                    manifest_revision: revision,
                    sessions: replay.sessions,
                    trial_records: replay.trial_records,
                }),
            });
        }
    }

    /// Opens a read-only *merged view* of a store: sealed segments plus
    /// every registered writer's active segment (and the implicit
    /// active of a single-writer store). Registers nothing and repairs
    /// nothing; appends and compaction return errors. Call
    /// [`TrialStore::refresh`] to re-read the current state.
    pub fn open_reader(
        backend: Arc<dyn StoreBackend>,
        opts: StoreOptions,
    ) -> io::Result<TrialStore> {
        let store = TrialStore {
            backend,
            dir: None,
            writer: None,
            read_only: true,
            opts,
            tracer: Mutex::new(Arc::new(NoopTracer)),
            inner: Mutex::new(Inner {
                sealed: Vec::new(),
                foreign_active: Vec::new(),
                active_name: String::new(),
                active_index: 0,
                active_records: 0,
                manifest_revision: 0,
                sessions: BTreeMap::new(),
                trial_records: 0,
            }),
        };
        store.refresh()?;
        Ok(store)
    }

    /// Re-reads the store's committed state from the backend, merging
    /// in what other fleet writers have appended since this handle
    /// opened (or last refreshed). The handle's own active segment and
    /// append position are untouched. No-op on single-writer handles —
    /// their in-memory index is already authoritative.
    pub fn refresh(&self) -> io::Result<()> {
        if self.writer.is_none() && !self.read_only {
            return Ok(());
        }
        let mut guard = lock_recover(&self.inner);
        let inner = &mut *guard;
        let mut backoff = cas_backoff(self.writer.as_deref().unwrap_or("reader"));
        loop {
            let (bytes, revision) = self.backend.read_manifest()?;
            let Some(bytes) = bytes else {
                return Ok(());
            };
            let m = Manifest::parse(&bytes)?;
            let replay = match replay_manifest(&*self.backend, &m) {
                Ok(r) => r,
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    // A concurrent compaction deleted a segment from
                    // under this manifest view; retry against the
                    // manifest it committed. If nothing moved, the
                    // segment is genuinely gone: real corruption.
                    let (_, now) = self.backend.read_manifest()?;
                    if now == revision {
                        return Err(e);
                    }
                    cas_retry(&mut backoff, "refresh replay")?;
                    continue;
                }
                Err(e) => return Err(e),
            };
            inner.foreign_active =
                m.actives.iter().filter(|n| **n != inner.active_name).cloned().collect();
            inner.active_records = replay
                .active_counts
                .get(&inner.active_name)
                .copied()
                .unwrap_or(inner.active_records);
            inner.sealed = m.sealed;
            inner.sessions = replay.sessions;
            inner.trial_records = replay.trial_records;
            inner.manifest_revision = revision;
            return Ok(());
        }
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

    /// The fleet writer tag of this handle ([`TrialStore::open_shared`]).
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

    /// Writes a telemetry object (`telemetry-<name>`) next to the trial
    /// segments. Telemetry objects never match the `seg-` pattern and
    /// are never listed in the manifest, so they cannot perturb
    /// recovery, checkpoint bytes, or compaction.
    pub fn put_telemetry(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.backend.put(&format!("telemetry-{name}"), bytes)
    }

    /// Reads a telemetry object written by [`TrialStore::put_telemetry`].
    pub fn read_telemetry(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        self.backend.get(&format!("telemetry-{name}"))
    }

    /// Every telemetry object in the store, sorted, without the
    /// `telemetry-` prefix (e.g. `w0.trace.jsonl`, `fleet.metrics.json`).
    /// A fleet run leaves one `.trace.jsonl`/`.metrics.json` pair per
    /// writer tag plus the merged `fleet` pair.
    pub fn list_telemetry(&self) -> io::Result<Vec<String>> {
        let mut names: Vec<String> = self
            .backend
            .list()?
            .into_iter()
            .filter_map(|n| n.strip_prefix("telemetry-").map(str::to_string))
            .collect();
        names.sort();
        Ok(names)
    }

    /// Appends one trial record (one backend `append` per record; the
    /// record is durable to the backend's append contract on return).
    pub fn append_trial(&self, trial: &StoredTrial) -> io::Result<()> {
        self.append(StoreRecord::Trial(trial.clone()))
    }

    /// Appends one session-metadata record (latest record wins on load).
    pub fn append_session(&self, meta: &SessionMeta) -> io::Result<()> {
        self.append(StoreRecord::Session(meta.clone()))
    }

    fn append(&self, rec: StoreRecord) -> io::Result<()> {
        if self.read_only {
            return Err(read_only_err());
        }
        let mut guard = lock_recover(&self.inner);
        let inner = &mut *guard;
        let line = format!("{}\n", record_to_json(&rec));
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
        apply_record(&mut inner.sessions, &mut inner.trial_records, rec);
        if inner.active_records >= self.opts.segment_records {
            self.rotate(inner)?;
        }
        Ok(())
    }

    /// Seals the active segment: sync it, commit a manifest naming it,
    /// start a fresh active segment. On any failure the current active
    /// segment stays in place, so appends keep working (returning
    /// errors rather than panicking) and rotation is retried at the
    /// next threshold crossing.
    fn rotate(&self, inner: &mut Inner) -> io::Result<()> {
        self.backend.sync(&inner.active_name)?;
        match self.writer.clone() {
            None => self.rotate_single(inner),
            Some(w) => self.rotate_shared(inner, &w),
        }
    }

    fn rotate_single(&self, inner: &mut Inner) -> io::Result<()> {
        // Open the next segment *before* committing the manifest: a
        // failure here leaves only an empty, unlisted file behind, and
        // the store state (in memory and on backend) is unchanged.
        let next_index = inner.active_index + 1;
        let next_name = segment_name(None, next_index);
        // Truncate before adopting: a compaction that crashed before
        // its manifest commit can leave a stray file at this index
        // whose stale records would otherwise be replayed *after* newer
        // ones and win the last-wins resolution.
        self.backend.put(&next_name, b"")?;
        let mut sealed = inner.sealed.clone();
        sealed.push(inner.active_name.clone());
        let manifest = Manifest { sealed: sealed.clone(), actives: Vec::new() };
        let revision = self
            .backend
            .commit_manifest(&manifest.to_bytes(), inner.manifest_revision)?
            .map_err(|_| {
                io::Error::other(
                    "manifest changed under a single-writer store: another writer is live",
                )
            })?;
        self.trace(|| {
            TraceEvent::new("store", "store.rotate")
                .field("sealed", inner.active_name.clone())
                .field("next", next_name.clone())
        });
        inner.sealed = sealed;
        inner.active_name = next_name;
        inner.active_index = next_index;
        inner.active_records = 0;
        inner.manifest_revision = revision;
        Ok(())
    }

    fn rotate_shared(&self, inner: &mut Inner, writer: &str) -> io::Result<()> {
        // CAS retry loop: rebase the seal onto whatever manifest is
        // current. Losing the race never drops anyone's segment — the
        // retry re-reads the winner's list and adds to it.
        let mut backoff = cas_backoff(writer);
        loop {
            let (bytes, revision) = self.backend.read_manifest()?;
            let bytes = bytes.ok_or_else(|| corrupt("fleet store manifest vanished"))?;
            let mut m = Manifest::parse(&bytes)?;
            let pos = m.actives.iter().position(|n| n == &inner.active_name).ok_or_else(|| {
                corrupt(format!(
                    "active segment {} missing from the manifest: writer tag {writer:?} \
                     reclaimed by another live worker?",
                    inner.active_name
                ))
            })?;
            m.actives.remove(pos);
            m.sealed.push(inner.active_name.clone());
            let next_index = m.max_index().max(inner.active_index) + 1;
            let next_name = segment_name(Some(writer), next_index);
            self.backend.put(&next_name, b"")?;
            m.actives.push(next_name.clone());
            match self.backend.commit_manifest(&m.to_bytes(), revision)? {
                Ok(rev) => {
                    self.trace(|| {
                        TraceEvent::new("store", "store.rotate")
                            .field("sealed", inner.active_name.clone())
                            .field("next", next_name.clone())
                    });
                    inner.foreign_active =
                        m.actives.iter().filter(|n| **n != next_name).cloned().collect();
                    inner.sealed = m.sealed;
                    inner.active_name = next_name;
                    inner.active_index = next_index;
                    inner.active_records = 0;
                    inner.manifest_revision = rev;
                    return Ok(());
                }
                Err(_) => {
                    // Lost the race: discard the pre-created segment —
                    // the retry recomputes a fresh index against the
                    // winner's manifest, and nothing ever references
                    // this one (unlisted objects would otherwise leak
                    // forever on a real object store).
                    let _ = self.backend.delete(&next_name);
                    cas_retry(&mut backoff, "rotation")?;
                    continue;
                }
            }
        }
    }

    /// Syncs the active segment (sealed segments are already synced).
    pub fn sync(&self) -> io::Result<()> {
        if self.read_only {
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
        lock_recover(&self.inner).sessions.keys().cloned().collect()
    }

    /// Latest metadata of a session, if any was recorded.
    pub fn session_meta(&self, session: &str) -> Option<SessionMeta> {
        lock_recover(&self.inner).sessions.get(session).and_then(|e| e.meta.clone())
    }

    /// A session's trials, deduplicated last-wins and sorted by
    /// iteration, truncated at the first gap (a gap cannot arise from
    /// the append protocol; truncating keeps a damaged store usable).
    pub fn trials_for(&self, session: &str) -> Vec<StoredTrial> {
        let inner = lock_recover(&self.inner);
        let Some(entry) = inner.sessions.get(session) else {
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
        let inner = lock_recover(&self.inner);
        inner.sessions.values().map(|e| e.trials.len()).sum()
    }

    /// Number of trial *records* appended (re-runs of a partial round
    /// append duplicates, so this can exceed [`TrialStore::trial_count`]).
    pub fn trial_records(&self) -> usize {
        lock_recover(&self.inner).trial_records
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
    /// segments plus the derived active name) and are truncated before
    /// reuse when the segment sequence later reaches their index.
    ///
    /// On a fleet store the pass rebuilds the merged state from the
    /// *current* manifest under a CAS retry loop, folds this writer's
    /// active segment in, and leaves every other writer's active
    /// segment registered and untouched — racing rotations retry on
    /// top of the compacted manifest, so no committed trial is lost.
    pub fn compact(&self) -> io::Result<CompactionStats> {
        if self.read_only {
            return Err(read_only_err());
        }
        let mut guard = lock_recover(&self.inner);
        let inner = &mut *guard;
        // Satellite of the backend work: a store with nothing on the
        // backend but an (empty or absent) active segment has nothing
        // to rewrite; committing a fresh manifest revision would only
        // churn revisions and mtimes on shared backends.
        if inner.sealed.is_empty() && inner.foreign_active.is_empty() && inner.active_records == 0 {
            return Ok(CompactionStats {
                trial_records_before: inner.trial_records,
                trial_records_after: inner.trial_records,
                segments_before: 1,
                segments_after: 1,
            });
        }
        match self.writer.clone() {
            None => self.compact_single(inner),
            Some(w) => self.compact_shared(inner, &w),
        }
    }

    fn compact_single(&self, inner: &mut Inner) -> io::Result<CompactionStats> {
        self.backend.sync(&inner.active_name)?;
        let old_segments: Vec<String> =
            inner.sealed.iter().cloned().chain([inner.active_name.clone()]).collect();
        let records_before = inner.trial_records;

        // Serialize the deduplicated state, session by session.
        let records = serialize_sessions(&inner.sessions);

        // Write the compacted run into fresh segment files past the
        // current active index, fully synced before the manifest commit.
        let (new_sealed, new_active_index) =
            self.write_compacted(&records, inner.active_index, None)?;
        let new_active_name = segment_name(None, new_active_index);

        // Commit point.
        let manifest = Manifest { sealed: new_sealed.clone(), actives: Vec::new() };
        let revision = self
            .backend
            .commit_manifest(&manifest.to_bytes(), inner.manifest_revision)?
            .map_err(|_| {
                io::Error::other(
                    "manifest changed under a single-writer store: another writer is live",
                )
            })?;
        let segments_before = old_segments.len();
        inner.sealed = new_sealed;
        inner.active_name = new_active_name;
        inner.active_index = new_active_index;
        inner.active_records = 0;
        inner.manifest_revision = revision;
        inner.trial_records = inner.sessions.values().map(|e| e.trials.len()).sum();
        let stats = CompactionStats {
            trial_records_before: records_before,
            trial_records_after: inner.trial_records,
            segments_before,
            segments_after: inner.sealed.len() + 1,
        };
        self.trace(|| compact_span(&stats));

        // The old objects are unreachable from the new manifest;
        // deletion is cleanup, not correctness.
        for name in old_segments {
            let _ = self.backend.delete(&name);
        }
        Ok(stats)
    }

    fn compact_shared(&self, inner: &mut Inner, writer: &str) -> io::Result<CompactionStats> {
        self.backend.sync(&inner.active_name)?;
        let mut backoff = cas_backoff(writer);
        loop {
            // Rebuild the merged state fresh from the *current*
            // manifest — this handle's index may lag other writers.
            let (bytes, revision) = self.backend.read_manifest()?;
            let bytes = bytes.ok_or_else(|| corrupt("fleet store manifest vanished"))?;
            let m = Manifest::parse(&bytes)?;
            if !m.actives.contains(&inner.active_name) {
                return Err(corrupt(format!(
                    "active segment {} missing from the manifest: writer tag {writer:?} \
                     reclaimed by another live worker?",
                    inner.active_name
                )));
            }
            let replay = match replay_manifest(&*self.backend, &m) {
                Ok(r) => r,
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    // A concurrent compaction won and deleted segments
                    // from under this view; rebase onto its manifest.
                    let (_, now) = self.backend.read_manifest()?;
                    if now == revision {
                        return Err(e);
                    }
                    cas_retry(&mut backoff, "compaction replay")?;
                    continue;
                }
                Err(e) => return Err(e),
            };
            let (sessions, records_before) = (replay.sessions, replay.trial_records);
            let records = serialize_sessions(&sessions);

            let base_index = m.max_index().max(inner.active_index);
            let (new_sealed, new_active_index) =
                self.write_compacted(&records, base_index, Some(writer))?;
            let new_active_name = segment_name(Some(writer), new_active_index);

            // Every other writer's active segment stays registered and
            // untouched: its owner keeps appending to it, and the
            // records of it we folded into the compacted segments are
            // merely benign duplicates under last-wins.
            let mut actives: Vec<String> =
                m.actives.iter().filter(|n| **n != inner.active_name).cloned().collect();
            actives.push(new_active_name.clone());
            let manifest = Manifest { sealed: new_sealed.clone(), actives: actives.clone() };
            match self.backend.commit_manifest(&manifest.to_bytes(), revision)? {
                Ok(rev) => {
                    let segments_before = m.sealed.len() + m.actives.len();
                    for name in m.sealed.iter().chain([&inner.active_name]) {
                        let _ = self.backend.delete(name);
                    }
                    inner.foreign_active =
                        actives.iter().filter(|n| **n != new_active_name).cloned().collect();
                    inner.sealed = new_sealed;
                    inner.active_name = new_active_name;
                    inner.active_index = new_active_index;
                    inner.active_records = 0;
                    inner.manifest_revision = rev;
                    inner.trial_records = sessions.values().map(|e| e.trials.len()).sum::<usize>();
                    let trial_records_after = inner.trial_records;
                    inner.sessions = sessions;
                    let stats = CompactionStats {
                        trial_records_before: records_before,
                        trial_records_after,
                        segments_before,
                        segments_after: inner.sealed.len() + inner.foreign_active.len() + 1,
                    };
                    self.trace(|| compact_span(&stats));
                    return Ok(stats);
                }
                Err(_) => {
                    // Lost the race: discard this attempt's objects and
                    // rebuild against the winner's manifest.
                    for name in new_sealed.iter().chain([&new_active_name]) {
                        let _ = self.backend.delete(name);
                    }
                    cas_retry(&mut backoff, "compaction")?;
                    continue;
                }
            }
        }
    }

    /// Writes `records` into fresh sealed segments numbered past
    /// `base_index` (in `writer`'s namespace), plus a fresh empty
    /// active segment after them. Returns the sealed names and the new
    /// active index.
    fn write_compacted(
        &self,
        records: &[String],
        base_index: usize,
        writer: Option<&str>,
    ) -> io::Result<(Vec<String>, usize)> {
        let mut new_sealed = Vec::new();
        let mut idx = base_index;
        for chunk in records.chunks(self.opts.segment_records.max(1)) {
            idx += 1;
            let name = segment_name(writer, idx);
            let mut text = String::with_capacity(chunk.iter().map(|r| r.len() + 1).sum());
            for rec in chunk {
                text.push_str(rec);
                text.push('\n');
            }
            self.backend.put(&name, text.as_bytes())?;
            new_sealed.push(name);
        }
        let new_active_index = idx + 1;
        // Truncate any stray file left by an earlier interrupted
        // compaction, then adopt as the (empty) active segment.
        self.backend.put(&segment_name(writer, new_active_index), b"")?;
        Ok((new_sealed, new_active_index))
    }

    /// Every stored trial projected onto the core JSONL event schema,
    /// sorted by session label then iteration — the canonical export.
    /// Deduplication is last-wins, so a store that recorded a crash and
    /// a resume exports exactly the transcript of the uninterrupted run.
    pub fn export_events(&self) -> Vec<TrialEvent> {
        let inner = lock_recover(&self.inner);
        let mut out = Vec::with_capacity(inner.sessions.values().map(|e| e.trials.len()).sum());
        for entry in inner.sessions.values() {
            out.extend(entry.trials.values().map(StoredTrial::to_event));
        }
        out
    }

    /// [`TrialStore::export_events`] rendered as JSONL.
    pub fn export_jsonl(&self) -> String {
        events_to_jsonl(&self.export_events())
    }
}

/// One JSON line per logical record: each session's latest metadata,
/// then its deduplicated trials in iteration order.
fn serialize_sessions(sessions: &BTreeMap<String, SessionEntry>) -> Vec<String> {
    let mut records: Vec<String> = Vec::new();
    for entry in sessions.values() {
        if let Some(m) = &entry.meta {
            records.push(record_to_json(&StoreRecord::Session(m.clone())));
        }
        for t in entry.trials.values() {
            records.push(record_to_json(&StoreRecord::Trial(t.clone())));
        }
    }
    records
}

fn apply_record(
    sessions: &mut BTreeMap<String, SessionEntry>,
    trial_records: &mut usize,
    rec: StoreRecord,
) {
    match rec {
        StoreRecord::Trial(t) => {
            *trial_records += 1;
            sessions.entry(t.session.clone()).or_default().trials.insert(t.iteration, t);
        }
        StoreRecord::Session(m) => {
            let label = m.session.clone();
            sessions.entry(label).or_default().meta = Some(m);
        }
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
    use crate::record::SessionStatus;
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
        assert!(manifest.starts_with(MANIFEST_HEADER));
        assert!(manifest.contains("seg-000001.jsonl"));
        assert!(manifest.contains("seg-000002.jsonl"));
        assert!(!manifest.contains("seg-000003.jsonl"), "active segment is not sealed");
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
        let seg = dir.join("seg-000001.jsonl");
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
        let seg = dir.join("seg-000001.jsonl");
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
        let seg = dir.join("seg-000001.jsonl");
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
        let seg = dir.join("seg-000001.jsonl");
        let text = std::fs::read_to_string(&seg).unwrap();
        std::fs::write(&seg, &text[..text.len() - 5]).unwrap();
        assert!(TrialStore::open(&dir).is_err());
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
            (store.export_jsonl(), std::fs::read(dir.join("seg-000001.jsonl")).unwrap())
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
        std::fs::write(dir.join(segment_name(None, 2)), stale).unwrap();
        for i in 0..3 {
            store.append_trial(&trial("s1", i, i as f64)).unwrap();
        }
        assert_eq!(store.sealed_segments(), vec![segment_name(None, 1)], "rotation happened");
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
            let store =
                TrialStore::open_backend(be.clone(), StoreOptions { segment_records: 3 }).unwrap();
            store.append_session(&meta("s1", SessionStatus::Running)).unwrap();
            for i in 0..8 {
                store.append_trial(&trial("s1", i, i as f64)).unwrap();
            }
            store.append_session(&meta("s1", SessionStatus::Done)).unwrap();
            assert!(store.sealed_segments().len() >= 2, "rotation CAS-committed");
        }
        // Reopen on the same backend: everything survives, including
        // through a compaction cycle.
        let store = TrialStore::open_backend(be.clone(), StoreOptions::default()).unwrap();
        assert_eq!(store.trial_count(), 8);
        assert_eq!(store.session_meta("s1").unwrap().status, SessionStatus::Done);
        let export = store.export_jsonl();
        store.compact().unwrap();
        assert_eq!(store.export_jsonl(), export);
        drop(store);
        let store = TrialStore::open_backend(be, StoreOptions::default()).unwrap();
        assert_eq!(store.export_jsonl(), export);
    }

    #[test]
    fn torn_object_append_recovers_like_a_torn_file() {
        let be = object_backend();
        {
            let store = TrialStore::open_backend(be.clone(), StoreOptions::default()).unwrap();
            for i in 0..4 {
                store.append_trial(&trial("s1", i, i as f64)).unwrap();
            }
        }
        let seg = "seg-000001.jsonl";
        let bytes = be.get(seg).unwrap().unwrap();
        be.put(seg, &bytes[..bytes.len() - 17]).unwrap();
        let store = TrialStore::open_backend(be, StoreOptions::default()).unwrap();
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
        let name = segment_name(Some("w0"), 1);
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
    fn shared_open_adopts_a_single_writer_store_and_single_open_rejects_fleet_stores() {
        let dir = tmp_dir("adopt");
        {
            let store = TrialStore::open(&dir).unwrap();
            for i in 0..4 {
                store.append_trial(&trial("s1", i, i as f64)).unwrap();
            }
        }
        // Fleet writers fold the single-writer store's implicit active
        // segment into the manifest and see its records.
        let be: Arc<dyn StoreBackend> = Arc::new(LocalDirBackend::create(&dir).unwrap());
        let w = TrialStore::open_shared(be.clone(), "w0", StoreOptions::default()).unwrap();
        assert_eq!(w.trial_count(), 4);
        w.append_trial(&trial("s1", 4, 4.0)).unwrap();
        drop(w);
        // A fleet store refuses the single-writer entry points.
        let err = TrialStore::open(&dir).unwrap_err();
        assert!(err.to_string().contains("fleet"), "{err}");
        // ...but the reader still serves the merged view.
        let reader = TrialStore::open_reader(be, StoreOptions::default()).unwrap();
        assert_eq!(reader.trials_for("s1").len(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
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
