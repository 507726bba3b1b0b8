//! The `MANIFEST`, segment names, and the store's one commit protocol.
//!
//! ## The commit point
//!
//! ```text
//! MANIFEST            # header, sealed segment names, then one
//!                     # "active <name>" line per writer (see below)
//! ```
//!
//! The manifest is the only authority on which segments make up the
//! store (see [`crate::segment`] for what is inside them). Installing a
//! new manifest revision is the commit point of every structural change
//! — sealing a segment, compacting, registering a writer — by atomic
//! rename on local directories, by conditional put (CAS) on object
//! stores (see [`crate::backend`] for the two protocols). A crash
//! leaves either the old manifest or the new one; no state in between.
//! Whatever a change needs on the backend (a synced segment, compacted
//! objects, a fresh empty active segment) is written *before* the
//! commit, under names no committed manifest refers to yet, so a crash
//! or a lost race leaves only inert objects behind.
//!
//! ## One loop
//!
//! Every such change runs through `with_manifest`: read the current
//! manifest, let the caller's `step` decide, commit. The three outcomes
//! of one round are spelled out on that function; the short of it is
//! that a writer that loses a race re-decides on top of the winner's
//! manifest, so concurrent rotations and compactions never drop a
//! committed segment, and that a livelocked race ends in a clean
//! `TimedOut` after [`BackoffPolicy::STORE_CAS`]'s budget.
//!
//! ## Writers and readers
//!
//! Every writable handle is a tagged writer
//! ([`TrialStore::open_shared`]; [`TrialStore::open`] is the writer
//! `local` on a local directory). A writer owns a private active
//! segment (`seg-<writer>-NNNNNN.jsonl`), listed in the manifest as an
//! `active` entry so every other writer — and
//! [`TrialStore::open_reader`] — can see its unsealed records, and a
//! writer that loses a race rebases onto the winner's manifest. Live
//! writers never share a session (the campaign layer leases sessions
//! through [`SessionMeta::lease`]), and a takeover after a kill re-runs
//! deterministically, so cross-writer duplicate records are always
//! content-identical and last-wins merge order does not matter. A
//! handle with no writer tag is a reader: it never writes.
//!
//! A store in the untagged layout that preceded writer tags
//! (`seg-NNNNNN.jsonl`, the active segment unlisted) is refused with
//! `InvalidData` by every open, before anything is written.
//!
//! [`TrialStore::open`]: crate::TrialStore::open
//! [`TrialStore::open_shared`]: crate::TrialStore::open_shared
//! [`TrialStore::open_reader`]: crate::TrialStore::open_reader
//! [`SessionMeta::lease`]: crate::record::SessionMeta::lease

use crate::backend::{revision_of, StoreBackend};
use llamatune::backoff::{Backoff, BackoffPolicy};
use std::io;

pub(crate) const MANIFEST_HEADER: &str = "llamatune-store v1";

pub(crate) fn corrupt(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Segment object name: `seg-<writer>-NNNNNN.jsonl`, in the writer's
/// private namespace (private namespaces make concurrent index
/// allocation collision-free by construction).
pub(crate) fn segment_name(writer: &str, index: usize) -> String {
    format!("seg-{writer}-{index:06}.jsonl")
}

/// Splits a segment name into its writer tag and index.
fn segment_parts(name: &str) -> Option<(&str, usize)> {
    let (writer, index) = name.strip_prefix("seg-")?.strip_suffix(".jsonl")?.rsplit_once('-')?;
    Some((writer, index.parse().ok()?))
}

/// The first segment of a store in the untagged layout, where it is
/// the unlisted active segment until the first seal.
const UNTAGGED_FIRST: &str = "seg-000001.jsonl";

/// Whether `name` is a segment of the untagged layout (`seg-NNNNNN.jsonl`).
fn is_untagged(name: &str) -> bool {
    let core = name.strip_prefix("seg-").and_then(|n| n.strip_suffix(".jsonl"));
    core.is_some_and(|index| index.parse::<usize>().is_ok())
}

/// The refusal of a store in the untagged layout.
fn untagged_layout(name: &str) -> io::Error {
    corrupt(format!(
        "{name}: untagged store layout (seg-NNNNNN.jsonl, active segment unlisted) is not \
         read; segments must carry their writer's tag (seg-<writer>-NNNNNN.jsonl)"
    ))
}

/// Inverse of [`segment_name`]: the numeric index of a segment file.
pub(crate) fn segment_index(name: &str) -> Option<usize> {
    segment_parts(name).map(|(_, index)| index)
}

/// The writer tag embedded in a segment name.
pub(crate) fn segment_writer(name: &str) -> Option<&str> {
    segment_parts(name).map(|(writer, _)| writer)
}

/// The parsed `MANIFEST`: sealed segments in commit order, then the
/// registered active segments of the writers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Manifest {
    pub(crate) sealed: Vec<String>,
    pub(crate) actives: Vec<String>,
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
            let (list, name) = match line.strip_prefix("active ") {
                Some(name) => (&mut m.actives, name),
                None => (&mut m.sealed, line),
            };
            if is_untagged(name) {
                return Err(untagged_layout(name));
            }
            if segment_index(name).is_none() {
                return Err(corrupt(format!("unparsable segment name {name:?} in manifest")));
            }
            list.push(name.to_string());
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
    pub(crate) fn max_index(&self) -> usize {
        self.sealed.iter().chain(&self.actives).filter_map(|n| segment_index(n)).max().unwrap_or(0)
    }
}

/// Starts the store's CAS-loop backoff schedule, seeded from whatever
/// identifies the contender (the writer tag) so contending writers
/// draw decorrelated delays.
fn cas_backoff(tag: &str) -> Backoff {
    Backoff::new(BackoffPolicy::STORE_CAS, revision_of(tag.as_bytes()))
}

/// Sleeps out one step of a CAS backoff schedule (ticks are
/// microseconds here), or errors once the retry budget is exhausted —
/// a livelocked manifest race becomes a clean error instead of a spin.
fn cas_retry(backoff: &mut Backoff, what: &str) -> io::Result<()> {
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

/// What one `step` of [`with_manifest`] decided.
pub(crate) enum Step<T> {
    /// The manifest stays as it is.
    Keep(T),
    /// Commit `manifest`. `created` names the objects this attempt
    /// wrote for it; they are deleted if the commit loses its race.
    Install { manifest: Manifest, created: Vec<String>, out: T },
}

/// How [`with_manifest`] ended: the step's answer, the manifest now in
/// force, and how many rounds were retried on the way. Contention is
/// scheduling-dependent, so retries are a metric
/// ([`TrialStore::cas_retries`]), never a trace span (traces stay
/// deterministic).
///
/// [`TrialStore::cas_retries`]: crate::TrialStore::cas_retries
pub(crate) struct Settled<T> {
    pub(crate) out: T,
    pub(crate) manifest: Manifest,
    pub(crate) cas_retries: u32,
}

/// The store's one read–decide–commit loop, run by the writer tagged
/// `writer` or, with `None`, by a reader. Reads the current manifest
/// (committing an empty one first iff the store is brand new and the
/// caller is a writer; to a reader an absent manifest is an empty
/// store), runs `step` on it, and commits what `step` asks for. A
/// manifest that lists nothing beside an untagged [`UNTAGGED_FIRST`]
/// is a store in the untagged layout: it is refused before anything is
/// written. One round ends in one of three ways:
///
/// * **settled** — `step` kept the manifest, or its [`Step::Install`]
///   won the CAS: the loop returns.
/// * **lost the race** — another writer committed first. The attempt's
///   `created` objects are deleted (unlisted objects would otherwise
///   leak forever on a real object store), the [`BackoffPolicy::STORE_CAS`]
///   schedule is slept, and `step` runs again on the winner's manifest,
///   which the conflict carries. Losing never drops anyone's segment:
///   `step` re-decides from the winner's list.
/// * **the view went stale** — `step` failed with `NotFound`: a
///   concurrent compaction deleted a segment this manifest names.
///   `step` runs again if the manifest has moved since; if it has not,
///   the segment is genuinely gone and the error is returned as it is.
///
/// Any other error of `step` or the backend is returned at once.
pub(crate) fn with_manifest<T>(
    backend: &dyn StoreBackend,
    writer: Option<&str>,
    what: &str,
    mut step: impl FnMut(&Manifest) -> io::Result<Step<T>>,
) -> io::Result<Settled<T>> {
    let mut backoff = cas_backoff(writer.unwrap_or("reader"));
    let mut view = backend.read_manifest()?;
    let (out, manifest) = loop {
        let (bytes, mut revision) = view;
        let manifest = bytes.as_deref().map_or(Ok(Manifest::default()), Manifest::parse)?;
        if manifest == Manifest::default() && backend.get(UNTAGGED_FIRST)?.is_some() {
            return Err(untagged_layout(UNTAGGED_FIRST));
        }
        if bytes.is_none() && writer.is_some() {
            match backend.commit_manifest(&manifest.to_bytes(), 0)? {
                Ok(created) => revision = created,
                // CAS-raced creators simply take the winner's.
                Err(lost) => {
                    view = (lost.current, lost.revision);
                    cas_retry(&mut backoff, what)?;
                    continue;
                }
            }
        }
        view = match step(&manifest) {
            Ok(Step::Keep(out)) => break (out, manifest),
            Ok(Step::Install { manifest, created, out }) => {
                match backend.commit_manifest(&manifest.to_bytes(), revision)? {
                    Ok(_) => break (out, manifest),
                    Err(lost) => {
                        for name in &created {
                            let _ = backend.delete(name);
                        }
                        (lost.current, lost.revision)
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                let now = backend.read_manifest()?;
                if now.1 == revision {
                    return Err(e);
                }
                now
            }
            Err(e) => return Err(e),
        };
        cas_retry(&mut backoff, what)?;
    };
    Ok(Settled { out, manifest, cas_retries: backoff.attempts() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{
        CasConflict, LocalDirBackend, ObjectStoreBackend, ObjectStoreOptions, Revision,
    };
    use crate::record::{StoreRecord, StoredTrial};
    use crate::store::{StoreOptions, TrialStore};
    use std::sync::{Arc, Mutex};

    /// An object store that logs what is done to it and can stage a
    /// rival: the next commit finds the rival's manifest committed just
    /// ahead of it, and so loses a real CAS.
    #[derive(Debug)]
    struct Probe {
        inner: Box<dyn StoreBackend>,
        rival: Mutex<Option<Manifest>>,
        log: Mutex<Vec<String>>,
    }

    impl Probe {
        fn new() -> Arc<Probe> {
            Probe::over(Box::new(ObjectStoreBackend::new(ObjectStoreOptions {
                eventual_list: false,
            })))
        }

        fn over(inner: Box<dyn StoreBackend>) -> Arc<Probe> {
            Arc::new(Probe { inner, rival: Mutex::new(None), log: Mutex::new(Vec::new()) })
        }

        fn note(&self, op: &str, name: &str) {
            self.log.lock().unwrap().push(format!("{op} {name}"));
        }
    }

    impl StoreBackend for Probe {
        fn get(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
            self.note("get", name);
            self.inner.get(name)
        }
        fn put(&self, name: &str, data: &[u8]) -> io::Result<()> {
            self.note("put", name);
            self.inner.put(name, data)
        }
        fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
            self.note("append", name);
            self.inner.append(name, data)
        }
        fn sync(&self, name: &str) -> io::Result<()> {
            self.note("sync", name);
            self.inner.sync(name)
        }
        fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
            self.note("truncate", name);
            self.inner.truncate(name, len)
        }
        fn list(&self) -> io::Result<Vec<String>> {
            self.inner.list()
        }
        fn delete(&self, name: &str) -> io::Result<()> {
            self.note("delete", name);
            self.inner.delete(name)
        }
        fn read_manifest(&self) -> io::Result<(Option<Vec<u8>>, Revision)> {
            self.note("read", "MANIFEST");
            self.inner.read_manifest()
        }
        fn commit_manifest(
            &self,
            data: &[u8],
            expected: Revision,
        ) -> io::Result<Result<Revision, CasConflict>> {
            self.note("commit", "MANIFEST");
            if let Some(rival) = self.rival.lock().unwrap().take() {
                self.inner.commit_manifest(&rival.to_bytes(), expected)?.expect("the rival wins");
            }
            self.inner.commit_manifest(data, expected)
        }
    }

    fn trial(iteration: usize) -> StoredTrial {
        StoredTrial {
            session: "s".to_string(),
            iteration,
            raw_score: Some(1.0),
            score: 1.0,
            point: vec![0.5],
            config: vec![llamatune_space::KnobValue::Int(iteration as i64)],
            metrics: vec![1.0],
            status: llamatune::session::TrialStatus::Ok,
            attempts: 1,
        }
    }

    #[test]
    fn a_lost_race_reruns_the_step_on_the_winners_manifest_and_drops_what_it_created() {
        let be = Probe::new();
        be.inner.commit_manifest(&Manifest::default().to_bytes(), 0).unwrap().unwrap();
        let rival = Manifest { sealed: Vec::new(), actives: vec![segment_name("rival", 1)] };
        *be.rival.lock().unwrap() = Some(rival.clone());

        let mut seen = Vec::new();
        let settled = with_manifest(&*be, Some("me"), "test", |m| {
            seen.push(m.clone());
            let mut next = m.clone();
            let name = segment_name("me", m.max_index() + 1);
            be.put(&name, b"")?;
            next.actives.push(name.clone());
            Ok(Step::Install { manifest: next, created: vec![name.clone()], out: name })
        })
        .unwrap();

        assert_eq!(seen, vec![Manifest::default(), rival.clone()], "one rerun, on the winner's");
        assert_eq!(settled.cas_retries, 1, "and the race it lost is counted");
        assert_eq!(settled.out, "seg-me-000002.jsonl");
        assert_eq!(settled.manifest.actives, [rival.actives[0].as_str(), "seg-me-000002.jsonl"]);
        let committed = Manifest::parse(&be.read_manifest().unwrap().0.unwrap()).unwrap();
        assert_eq!(committed, settled.manifest);
        assert_eq!(be.get("seg-me-000001.jsonl").unwrap(), None, "the losing attempt's object");
        assert!(be.get("seg-me-000002.jsonl").unwrap().is_some());
    }

    #[test]
    fn a_stale_handle_of_a_live_tag_fails_its_seal_before_writing_anything() {
        let be = Probe::new();
        let opts = StoreOptions { segment_records: 2 };
        // Two live handles with one tag: both adopt `seg-w-000001.jsonl`.
        let a = TrialStore::open_shared(be.clone(), "w", opts.clone()).unwrap();
        let b = TrialStore::open_shared(be.clone(), "w", opts).unwrap();
        // A seals that segment and acknowledges a third record into the
        // next one.
        for i in 0..3 {
            a.append_trial(&trial(i)).unwrap();
        }
        let third = be.get("seg-w-000002.jsonl").unwrap().unwrap();
        assert!(!third.is_empty());

        // B still believes `seg-w-000001.jsonl` is its active segment,
        // but the manifest no longer lists it as anyone's.
        b.append_trial(&trial(0)).unwrap();
        let mark = be.log.lock().unwrap().len();
        let err = b.append_trial(&trial(1)).unwrap_err();
        assert!(err.to_string().contains("reclaimed by another live worker"), "{err}");
        assert_eq!(
            be.log.lock().unwrap()[mark..],
            ["append seg-w-000001.jsonl", "sync seg-w-000001.jsonl", "read MANIFEST"],
            "the record itself, then a seal that reads once and gives up: no put, no retry"
        );
        assert_eq!(be.get("seg-w-000002.jsonl").unwrap().unwrap(), third, "A's record survives");
    }

    #[test]
    fn a_lone_writer_compacts_from_its_index_and_one_beside_another_replays() {
        let be = Probe::new();
        let opts = StoreOptions { segment_records: 2 };
        let gets_since = |mark: usize| -> Vec<String> {
            let log = be.log.lock().unwrap();
            log[mark..].iter().filter_map(|op| op.strip_prefix("get ")).map(String::from).collect()
        };
        let a = TrialStore::open_shared(be.clone(), "a", opts.clone()).unwrap();
        for i in 0..5 {
            a.append_trial(&trial(i)).unwrap();
        }
        assert_eq!(a.sealed_segments().len(), 2);
        let mark = be.log.lock().unwrap().len();
        let stats = a.compact().unwrap();
        assert_eq!(gets_since(mark), Vec::<String>::new(), "the lone writer reads nothing back");
        assert_eq!((stats.trial_records_before, stats.trial_records_after), (5, 5));

        // A second writer registers and appends: A's index no longer
        // holds the whole store, so its next pass replays the manifest.
        let b = TrialStore::open_shared(be.clone(), "b", opts).unwrap();
        b.append_trial(&StoredTrial { session: "t".to_string(), ..trial(0) }).unwrap();
        let sealed = a.sealed_segments();
        let listed = Manifest::parse(&be.read_manifest().unwrap().0.unwrap()).unwrap();
        let b_active = listed.actives.into_iter().find(|n| segment_writer(n) == Some("b")).unwrap();
        let mark = be.log.lock().unwrap().len();
        a.compact().unwrap();
        let gets = gets_since(mark);
        for name in sealed.iter().chain([&b_active]) {
            assert!(gets.contains(name), "{name} not read back: {gets:?}");
        }
        assert_eq!(a.trials_for("t").len(), 1, "B's record is folded in");
        let reader = TrialStore::open_reader(be.clone(), StoreOptions::default()).unwrap();
        assert_eq!((reader.trials_for("s").len(), reader.trials_for("t").len()), (5, 1));
    }

    #[test]
    fn a_reader_writes_nothing_so_an_absent_manifest_stays_absent() {
        let be = Probe::new();
        let reader = TrialStore::open_reader(be.clone(), StoreOptions::default()).unwrap();
        reader.refresh().unwrap();
        assert!(reader.is_empty());
        assert!(be.list().unwrap().is_empty());
        let log = be.log.lock().unwrap();
        assert!(log.iter().all(|op| op == "read MANIFEST" || op.starts_with("get ")), "{log:?}");
    }

    #[test]
    fn a_manifest_line_that_is_no_segment_name_is_invalid_data_in_every_open_mode() {
        for line in ["not-a-segment", "active seg-w0-oops.jsonl", UNTAGGED_FIRST] {
            let be = Probe::new();
            let bytes = format!("{MANIFEST_HEADER}\n{line}\n");
            be.inner.commit_manifest(bytes.as_bytes(), 0).unwrap().unwrap();
            let opens: [(&str, io::Result<TrialStore>); 2] = [
                ("writer", TrialStore::open_shared(be.clone(), "w1", StoreOptions::default())),
                ("reader", TrialStore::open_reader(be.clone(), StoreOptions::default())),
            ];
            for (mode, opened) in opens {
                let err = opened.expect_err(mode);
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{mode} on {line:?}: {err}");
                let untagged = err.to_string().contains("untagged store layout");
                assert_eq!(untagged, line == UNTAGGED_FIRST, "{mode} on {line:?}: {err}");
            }
            assert_eq!(be.read_manifest().unwrap().0.unwrap(), bytes.as_bytes(), "left as found");
        }
    }

    /// Every object `be` lists, then its manifest, with their bytes.
    fn contents(be: &dyn StoreBackend) -> Vec<(String, Option<Vec<u8>>)> {
        let mut all: Vec<_> =
            be.list().unwrap().into_iter().map(|n| (n.clone(), be.get(&n).unwrap())).collect();
        all.push(("MANIFEST".to_string(), be.read_manifest().unwrap().0));
        all
    }

    #[test]
    fn a_header_only_manifest_beside_an_untagged_segment_is_refused_by_every_open() {
        let dir = std::env::temp_dir()
            .join("llamatune_store_unit")
            .join(format!("untagged_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let local = LocalDirBackend::create(&dir).unwrap();
        let object = ObjectStoreBackend::new(ObjectStoreOptions { eventual_list: false });
        let backends: [(bool, Box<dyn StoreBackend>); 2] =
            [(true, Box::new(local)), (false, Box::new(object))];
        for (on_dir, inner) in backends {
            inner.commit_manifest(format!("{MANIFEST_HEADER}\n").as_bytes(), 0).unwrap().unwrap();
            let record = crate::record::record_to_json(&StoreRecord::Trial(trial(0)));
            inner.put(UNTAGGED_FIRST, format!("{record}\n").as_bytes()).unwrap();
            let found = contents(&*inner);
            let be = Probe::over(inner);
            let opts = StoreOptions::default();
            let mut opens = vec![
                ("open_shared", TrialStore::open_shared(be.clone(), "w1", opts.clone())),
                ("open_reader", TrialStore::open_reader(be.clone(), opts)),
            ];
            if on_dir {
                opens.push(("open", TrialStore::open(&dir)));
            }
            for (mode, opened) in opens {
                let err = opened.expect_err(mode);
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{mode}: {err}");
                assert!(err.to_string().contains("untagged store layout"), "{mode}: {err}");
            }
            let log = be.log.lock().unwrap();
            let writes = ["put ", "append ", "truncate ", "commit "];
            assert!(!log.iter().any(|op| writes.iter().any(|w| op.starts_with(w))), "{log:?}");
            assert_eq!(contents(&*be.inner), found, "left as found");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
