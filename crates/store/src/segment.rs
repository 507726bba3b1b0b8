//! The segment log: what is inside the objects a manifest names, and
//! how they are read back.
//!
//! ## Layout
//!
//! ```text
//! seg-local-000001.jsonl # sealed: listed in MANIFEST, immutable, fully valid
//! seg-svc-000002.jsonl   # sealed too: every segment carries its writer's tag
//! seg-local-000003.jsonl # active: listed as "active", append-only, may be torn
//! seg-svc-000004.jsonl   # another writer's active segment
//! ```
//!
//! Objects live behind a [`StoreBackend`] — a local directory
//! ([`crate::backend::LocalDirBackend`]) or S3-style object storage
//! ([`crate::backend::ObjectStoreBackend`]); the store never touches
//! the filesystem directly. Every segment line is one [`StoreRecord`]
//! (see [`crate::record`]). Appends go to the *active* segment — one
//! backend `append` per record. When the active segment reaches
//! [`StoreOptions::segment_records`] records it is *sealed*: the
//! segment is synced, then a new `MANIFEST` naming it is committed
//! (see [`crate::manifest`]).
//!
//! ## Recovery
//!
//! Opening a store replays the manifest's sealed segments *strictly*
//! (they were synced before sealing, so any damage is real corruption
//! and surfaces as an error) and active segments *leniently*: a final
//! line that fails to parse is a torn append — it is dropped and, in
//! the segment the opening handle owns, truncated away — while an
//! unparsable line with valid records after it means interleaved
//! garbage and is rejected. Duplicate `(session, iteration)` trials are
//! legal and resolve last-wins: a resumed session re-runs its partial
//! trailing round, deterministically overwriting the records the crash
//! left behind.
//!
//! A segment is read and parsed independently of every other, so a
//! replay reads and parses them on all cores, one segment per unit of
//! work (a lone segment is parsed inline). What stays serial is what
//! carries meaning across segments: one thread applies the parsed
//! records to the index in manifest order, so last-wins resolution is
//! that of a front-to-back read; and the opening handle's own segment
//! is read and repaired only at its manifest position, once every
//! earlier segment has loaded, because a repair is a write and an open
//! that fails on an earlier segment writes nothing. Errors surface in
//! manifest order: the one returned is the one a front-to-back read
//! would have met first, with the same kind and text.
//! [`TrialStore::export_jsonl`] renders each session's lines the same
//! way, one session per unit of work, joined in label order.
//!
//! [`StoreOptions::segment_records`]: crate::StoreOptions::segment_records
//! [`TrialStore::export_jsonl`]: crate::TrialStore::export_jsonl

use crate::backend::StoreBackend;
use crate::manifest::{corrupt, Manifest};
use crate::record::{record_from_json, record_to_json, SessionMeta, StoreRecord, StoredTrial};
use std::collections::BTreeMap;
use std::io;

#[derive(Debug, Default)]
pub(crate) struct SessionEntry {
    /// Trials by iteration, last record wins.
    pub(crate) trials: BTreeMap<usize, StoredTrial>,
    /// Latest metadata record.
    pub(crate) meta: Option<SessionMeta>,
}

/// The in-memory index a replay builds and appends keep current.
#[derive(Debug, Default)]
pub(crate) struct Index {
    pub(crate) sessions: BTreeMap<String, SessionEntry>,
    /// Trial records seen, duplicates included.
    pub(crate) trial_records: usize,
}

impl Index {
    pub(crate) fn apply_record(&mut self, rec: StoreRecord) {
        match rec {
            StoreRecord::Trial(t) => {
                self.trial_records += 1;
                self.sessions.entry(t.session.clone()).or_default().trials.insert(t.iteration, t);
            }
            StoreRecord::Session(m) => {
                let label = m.session.clone();
                self.sessions.entry(label).or_default().meta = Some(m);
            }
        }
    }

    /// Number of distinct `(session, iteration)` trials.
    pub(crate) fn trial_count(&self) -> usize {
        self.sessions.values().map(|e| e.trials.len()).sum()
    }

    /// One JSON line per logical record: each session's latest metadata,
    /// then its deduplicated trials in iteration order.
    pub(crate) fn serialize_sessions(&self) -> Vec<String> {
        let mut records: Vec<String> = Vec::new();
        for entry in self.sessions.values() {
            if let Some(m) = &entry.meta {
                records.push(record_to_json(&StoreRecord::Session(m.clone())));
            }
            for t in entry.trials.values() {
                records.push(record_to_json(&StoreRecord::Trial(t.clone())));
            }
        }
        records
    }
}

/// Reads a sealed segment strictly: it was synced before the manifest
/// named it, so any unparsable line is corruption. A *missing* object
/// surfaces as [`io::ErrorKind::NotFound`]: it usually means another
/// writer's compaction committed a new manifest and deleted this
/// segment while we were replaying the old one — the manifest loop
/// re-reads and retries, and only treats it as corruption when the
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
pub(crate) fn load_segment_lenient(
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
pub(crate) struct Replay {
    pub(crate) index: Index,
    /// Record count per active segment, by name.
    pub(crate) active_counts: BTreeMap<String, usize>,
}

/// [`llamatune::par::ordered_map`] at [`std::thread::available_parallelism`]
/// width: inline on one core or for one item.
pub(crate) fn on_every_core<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    llamatune::par::ordered_map(cores, items, f)
}

/// Replays one manifest view: sealed segments strictly (in manifest
/// order), then the registered active segments leniently. `own` names
/// the segment the caller owns; its torn tail is repaired while it is
/// read. Propagates [`io::ErrorKind::NotFound`] from sealed reads so
/// the manifest loop can retry against a manifest a concurrent
/// compaction just committed.
///
/// Every segment but `own` is read and parsed up front, in parallel
/// ([`on_every_core`]); the records are then applied in manifest order,
/// with `own` read at its place in that order, and the first error in
/// that order is returned — the replay a front-to-back read would do.
pub(crate) fn replay_manifest(
    backend: &dyn StoreBackend,
    m: &Manifest,
    own: Option<&str>,
) -> io::Result<Replay> {
    // (name, sealed), in manifest order.
    let segments: Vec<(&str, bool)> = m
        .sealed
        .iter()
        .map(|n| (n.as_str(), true))
        .chain(m.actives.iter().map(|n| (n.as_str(), false)))
        .collect();
    let is_own = |&(name, sealed): &(&str, bool)| !sealed && own == Some(name);
    let others: Vec<(&str, bool)> = segments.iter().copied().filter(|s| !is_own(s)).collect();
    let mut parsed = on_every_core(&others, |&(name, sealed)| {
        if sealed {
            load_segment_strict(backend, name)
        } else {
            load_segment_lenient(backend, name, false)
        }
    })
    .into_iter();

    let mut replay = Replay { index: Index::default(), active_counts: BTreeMap::new() };
    for segment @ (name, sealed) in segments {
        let recs = if is_own(&segment) {
            load_segment_lenient(backend, name, true)?
        } else {
            parsed.next().expect("one parse per segment")?
        };
        if !sealed {
            replay.active_counts.insert(name.to_string(), recs.len());
        }
        for rec in recs {
            replay.index.apply_record(rec);
        }
    }
    Ok(replay)
}

/// The serial replay [`replay_manifest`] parallelises, kept as its
/// oracle: every segment read, parsed and applied in manifest order.
#[cfg(test)]
pub(crate) fn reference_replay(
    backend: &dyn StoreBackend,
    m: &Manifest,
    own: Option<&str>,
) -> io::Result<Replay> {
    let mut replay = Replay { index: Index::default(), active_counts: BTreeMap::new() };
    for name in &m.sealed {
        for rec in load_segment_strict(backend, name)? {
            replay.index.apply_record(rec);
        }
    }
    for name in &m.actives {
        let recs = load_segment_lenient(backend, name, own == Some(name))?;
        replay.active_counts.insert(name.clone(), recs.len());
        for rec in recs {
            replay.index.apply_record(rec);
        }
    }
    Ok(replay)
}
