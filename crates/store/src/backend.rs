//! Pluggable storage backends for the trial store.
//!
//! [`TrialStore`](crate::TrialStore) reads and writes *named objects* —
//! segment files and the `MANIFEST` — and never touches the filesystem
//! directly. The [`StoreBackend`] trait is that seam: a campaign can
//! checkpoint into a local directory today and into S3-style object
//! storage tomorrow without the store's commit protocol changing shape.
//!
//! ## The two commit protocols
//!
//! Everything the store guarantees under crashes reduces to *one*
//! atomic primitive: installing a new `MANIFEST` revision. The two
//! backends realize it differently, and the difference is the whole
//! design space of the trait:
//!
//! * **Rename-commit** ([`LocalDirBackend`]) — the new manifest is
//!   written to a temp file, fsynced, and `rename(2)`d over the old
//!   one. POSIX rename is atomic *and durable in order*: a crash at any
//!   byte leaves either the old or the new manifest, never a mix, and
//!   never a manifest naming segments that were not fully synced first
//!   (the store syncs segment data before committing). Rename-commit
//!   gives atomicity but not coordination — two uncoordinated writers
//!   would silently overwrite each other's manifests, so the local
//!   backend layers an in-process compare-and-swap (a commit lock plus
//!   a content-revision check) on top for shared-store use. That CAS is
//!   only as strong as the process boundary: a *fleet across machines*
//!   must use a backend whose conditional put is enforced by the store
//!   itself.
//! * **CAS-commit** ([`ObjectStoreBackend`]) — object stores have no
//!   rename, so the manifest is installed with a *conditional put*:
//!   "write these bytes iff the object's current revision is the one I
//!   last read" (S3 `If-Match`, GCS generation preconditions, Azure
//!   ETags). A losing writer gets a [`CasConflict`] with the winner's
//!   bytes and retries on top of them. CAS-commit gives atomicity *and*
//!   multi-writer coordination in one primitive; what it costs is that
//!   every commit must carry the expected revision, and a writer that
//!   forgets to re-read after a conflict can livelock but never corrupt.
//!
//! In both protocols the manifest is the *only* authority: readers
//! resolve segment names strictly through it and never trust
//! [`StoreBackend::list`], which object stores are allowed to serve
//! stale (eventual consistency). An object that `list` has not caught
//! up to is still perfectly readable by name.
//!
//! ## Durability vocabulary
//!
//! [`StoreBackend::put`] is a full-object write that is durable when it
//! returns (object stores are atomic per put; the local backend fsyncs).
//! [`StoreBackend::append`] extends an object and may be *torn* by a
//! crash — the store's lenient recovery of active segments exists
//! precisely to absorb that. [`StoreBackend::sync`] upgrades prior
//! appends to durable (a no-op where appends are already synchronous).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The manifest's object name, identical across backends.
pub(crate) const MANIFEST_NAME: &str = "MANIFEST";

/// An opaque manifest revision: the 64-bit FNV-1a hash of the manifest
/// bytes, with `0` reserved for "no manifest exists yet". Backends
/// compare revisions, never bytes, so the type also models ETag-style
/// version tokens.
pub type Revision = u64;

/// The revision of a manifest with these bytes ([`Revision`]; never 0).
pub(crate) fn revision_of(bytes: &[u8]) -> Revision {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    if h == 0 {
        1
    } else {
        h
    }
}

/// A conditional manifest put lost the race: another writer committed
/// first. Carries the winning manifest, which is what the store's commit
/// loop rebases on — a retry costs no extra read.
#[derive(Debug, Clone)]
pub struct CasConflict {
    /// The manifest bytes currently installed (`None`: deleted/absent).
    pub current: Option<Vec<u8>>,
    /// Revision of `current`.
    pub revision: Revision,
}

/// Locks a mutex, recovering from poisoning: one panicked worker thread
/// must not wedge every other session sharing the lock. Safe wherever
/// the protected structure is only mutated through small non-panicking
/// critical sections (true of the store's index, the backends' object
/// maps, and the runtime's caches, which all share this helper) — the
/// panic that poisoned the lock happened in user code outside them.
pub fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Storage operations the trial store is built from.
///
/// Implementations must be thread-safe: shared stores clone one backend
/// handle across writer threads. Object names are flat (no directory
/// structure) and chosen by the store.
///
/// ### Invariants implementations must uphold
///
/// * [`put`](StoreBackend::put) replaces the whole object and is
///   durable and *atomic* on return where the medium allows (object
///   stores: always; local files: durable but a crash mid-put may leave
///   a partial object — the store only puts objects it has not yet
///   committed a manifest reference to, which makes the partiality
///   unobservable).
/// * [`append`](StoreBackend::append) extends the object, creating it
///   if missing. A crash may persist any prefix of the payload (torn
///   write) but must never interleave bytes of concurrent appends to
///   *different* objects; concurrent appends to the *same* object are
///   the caller's bug (each writer owns its active segment exclusively).
/// * [`commit_manifest`](StoreBackend::commit_manifest) installs a new
///   manifest revision iff the current revision equals `expected`
///   (compare-and-swap; `expected == 0` means "no manifest yet"). The
///   check-and-install must be atomic with respect to every other
///   `commit_manifest` on the same backend instance — this is the
///   store's single point of serialization.
/// * [`list`](StoreBackend::list) may lag behind `put`/`append`
///   (eventual consistency) but must never invent names. Correctness
///   never depends on it; the store uses it for diagnostics only.
/// * [`get`](StoreBackend::get) must observe every `put`, `append`, and
///   `truncate` that returned before the `get` started (read-after-write
///   consistency by name — true of S3 since 2020 and of filesystems
///   always).
pub trait StoreBackend: Send + Sync + std::fmt::Debug {
    /// Reads a whole object; `None` if it does not exist.
    fn get(&self, name: &str) -> io::Result<Option<Vec<u8>>>;

    /// Creates or replaces a whole object, durably.
    fn put(&self, name: &str, data: &[u8]) -> io::Result<()>;

    /// Appends to an object, creating it if missing. May tear on crash.
    fn append(&self, name: &str, data: &[u8]) -> io::Result<()>;

    /// Makes prior appends to `name` durable (no-op if already so, or
    /// if the object does not exist).
    fn sync(&self, name: &str) -> io::Result<()>;

    /// Shrinks an object to `len` bytes (torn-tail repair). Errors if
    /// the object does not exist.
    fn truncate(&self, name: &str, len: u64) -> io::Result<()>;

    /// Names of stored objects, sorted. Possibly stale — see the trait
    /// docs; never used for correctness.
    fn list(&self) -> io::Result<Vec<String>>;

    /// Deletes an object; deleting a missing object is not an error.
    fn delete(&self, name: &str) -> io::Result<()>;

    /// Current manifest bytes and revision (`(None, 0)` when absent).
    fn read_manifest(&self) -> io::Result<(Option<Vec<u8>>, Revision)>;

    /// Conditionally installs a new manifest revision. Returns the new
    /// revision on success, or the conflicting state if another writer
    /// committed since `expected` was read. See the trait docs for the
    /// atomicity contract.
    fn commit_manifest(
        &self,
        data: &[u8],
        expected: Revision,
    ) -> io::Result<Result<Revision, CasConflict>>;
}

// ---------------------------------------------------------------------
// Local directory backend
// ---------------------------------------------------------------------

/// The original on-disk layout: one file per object inside a directory,
/// manifest committed by atomic rename (see the module docs for why
/// that is sufficient single-writer and only process-locally safe
/// multi-writer). Byte-for-byte compatible with stores written before
/// the backend trait existed.
///
/// Append handles are cached so a hot active segment costs one `write`
/// syscall per record, exactly as the pre-trait store did.
pub struct LocalDirBackend {
    dir: PathBuf,
    /// Cached append handles, invalidated by put/truncate/delete.
    handles: Mutex<HashMap<String, File>>,
    /// Serializes read-check-rename manifest commits (in-process CAS).
    commit_lock: Mutex<()>,
}

impl std::fmt::Debug for LocalDirBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalDirBackend").field("dir", &self.dir).finish()
    }
}

impl LocalDirBackend {
    /// Opens (creating if needed) the directory rooted at `dir`.
    pub fn create(dir: impl AsRef<Path>) -> io::Result<LocalDirBackend> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(LocalDirBackend {
            dir,
            handles: Mutex::new(HashMap::new()),
            commit_lock: Mutex::new(()),
        })
    }

    fn drop_handle(&self, name: &str) {
        lock_recover(&self.handles).remove(name);
    }
}

impl StoreBackend for LocalDirBackend {
    fn get(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        match std::fs::read(self.dir.join(name)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn put(&self, name: &str, data: &[u8]) -> io::Result<()> {
        self.drop_handle(name);
        let mut f = File::create(self.dir.join(name))?;
        f.write_all(data)?;
        f.sync_data()
    }

    fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
        let mut handles = lock_recover(&self.handles);
        let f = match handles.entry(name.to_string()) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(OpenOptions::new().create(true).append(true).open(self.dir.join(name))?)
            }
        };
        f.write_all(data)
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        // The handle leaves the cache: a segment is synced to be sealed
        // and nothing appends to a sealed segment again, so a handle
        // kept here would stay open for the life of the backend. (An
        // append to a segment that is still active reopens it.)
        if let Some(f) = lock_recover(&self.handles).remove(name) {
            return f.sync_data();
        }
        match File::open(self.dir.join(name)) {
            Ok(f) => f.sync_data(),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        self.drop_handle(name);
        let f = OpenOptions::new().write(true).open(self.dir.join(name))?;
        f.set_len(len)?;
        f.sync_data()
    }

    fn list(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                if let Ok(name) = entry.file_name().into_string() {
                    names.push(name);
                }
            }
        }
        names.sort();
        Ok(names)
    }

    fn delete(&self, name: &str) -> io::Result<()> {
        self.drop_handle(name);
        match std::fs::remove_file(self.dir.join(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn read_manifest(&self) -> io::Result<(Option<Vec<u8>>, Revision)> {
        match self.get(MANIFEST_NAME)? {
            Some(bytes) => {
                let rev = revision_of(&bytes);
                Ok((Some(bytes), rev))
            }
            None => Ok((None, 0)),
        }
    }

    fn commit_manifest(
        &self,
        data: &[u8],
        expected: Revision,
    ) -> io::Result<Result<Revision, CasConflict>> {
        // Rename-commit with an in-process CAS gate: the lock makes
        // read-check-install atomic for every writer sharing this
        // backend instance; the rename makes the install itself atomic
        // against crashes, exactly as the pre-trait store committed.
        let _gate = lock_recover(&self.commit_lock);
        let (current, revision) = self.read_manifest()?;
        if revision != expected {
            return Ok(Err(CasConflict { current, revision }));
        }
        let tmp = self.dir.join(format!("{MANIFEST_NAME}.tmp"));
        {
            let mut f = File::create(&tmp)?;
            f.write_all(data)?;
            f.sync_data()?;
        }
        std::fs::rename(tmp, self.dir.join(MANIFEST_NAME))?;
        Ok(Ok(revision_of(data)))
    }
}

// ---------------------------------------------------------------------
// In-process object store backend
// ---------------------------------------------------------------------

/// Behavior knobs of the [`ObjectStoreBackend`] emulation.
#[derive(Debug, Clone)]
pub struct ObjectStoreOptions {
    /// Emulate eventually consistent listings: objects created since
    /// the previous [`StoreBackend::list`] call are invisible to the
    /// next one (they surface on the call after). Exercises the store's
    /// promise that reads are manifest-driven, never list-driven.
    pub eventual_list: bool,
}

impl Default for ObjectStoreOptions {
    fn default() -> Self {
        ObjectStoreOptions { eventual_list: true }
    }
}

#[derive(Debug, Default)]
struct ObjectState {
    objects: BTreeMap<String, Vec<u8>>,
    /// Created since the last listing (hidden from it when eventual).
    unlisted: BTreeSet<String>,
}

/// An in-process emulation of S3-style object storage: whole-object
/// atomic puts, no rename, conditional manifest puts (CAS-commit — see
/// the module docs), and optionally stale listings. The emulation is
/// what CI races writers against; a production S3/GCS/Azure adapter
/// implements the same trait over the service's conditional-write API.
pub struct ObjectStoreBackend {
    opts: ObjectStoreOptions,
    state: Mutex<ObjectState>,
}

impl std::fmt::Debug for ObjectStoreBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = lock_recover(&self.state);
        f.debug_struct("ObjectStoreBackend").field("objects", &state.objects.len()).finish()
    }
}

impl Default for ObjectStoreBackend {
    fn default() -> Self {
        ObjectStoreBackend::new(ObjectStoreOptions::default())
    }
}

impl ObjectStoreBackend {
    /// An empty object store.
    pub fn new(opts: ObjectStoreOptions) -> ObjectStoreBackend {
        ObjectStoreBackend { opts, state: Mutex::new(ObjectState::default()) }
    }
}

impl StoreBackend for ObjectStoreBackend {
    fn get(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        Ok(lock_recover(&self.state).objects.get(name).cloned())
    }

    fn put(&self, name: &str, data: &[u8]) -> io::Result<()> {
        let mut state = lock_recover(&self.state);
        if self.opts.eventual_list && !state.objects.contains_key(name) {
            state.unlisted.insert(name.to_string());
        }
        state.objects.insert(name.to_string(), data.to_vec());
        Ok(())
    }

    fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
        let mut state = lock_recover(&self.state);
        if self.opts.eventual_list && !state.objects.contains_key(name) {
            state.unlisted.insert(name.to_string());
        }
        state.objects.entry(name.to_string()).or_default().extend_from_slice(data);
        Ok(())
    }

    fn sync(&self, _name: &str) -> io::Result<()> {
        Ok(())
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        let mut state = lock_recover(&self.state);
        match state.objects.get_mut(name) {
            Some(data) => {
                data.truncate(len as usize);
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, format!("no object {name:?}"))),
        }
    }

    fn list(&self) -> io::Result<Vec<String>> {
        let mut state = lock_recover(&self.state);
        let names =
            state.objects.keys().filter(|n| !state.unlisted.contains(*n)).cloned().collect();
        // The lag is one listing deep: everything hidden this time is
        // visible next time, which keeps the emulation deterministic.
        state.unlisted.clear();
        Ok(names)
    }

    fn delete(&self, name: &str) -> io::Result<()> {
        let mut state = lock_recover(&self.state);
        state.objects.remove(name);
        state.unlisted.remove(name);
        Ok(())
    }

    fn read_manifest(&self) -> io::Result<(Option<Vec<u8>>, Revision)> {
        let state = lock_recover(&self.state);
        match state.objects.get(MANIFEST_NAME) {
            Some(bytes) => Ok((Some(bytes.clone()), revision_of(bytes))),
            None => Ok((None, 0)),
        }
    }

    fn commit_manifest(
        &self,
        data: &[u8],
        expected: Revision,
    ) -> io::Result<Result<Revision, CasConflict>> {
        // Conditional put: check and install under one lock acquisition,
        // the moral equivalent of S3 If-Match / GCS generation guards.
        let mut state = lock_recover(&self.state);
        let (current, revision) = match state.objects.get(MANIFEST_NAME) {
            Some(bytes) => (Some(bytes.clone()), revision_of(bytes)),
            None => (None, 0),
        };
        if revision != expected {
            return Ok(Err(CasConflict { current, revision }));
        }
        state.objects.insert(MANIFEST_NAME.to_string(), data.to_vec());
        Ok(Ok(revision_of(data)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    impl super::LocalDirBackend {
        /// The backing directory.
        pub(crate) fn dir(&self) -> &Path {
            &self.dir
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("llamatune_backend_unit")
            .join(format!("{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn backends(tag: &str) -> Vec<Arc<dyn StoreBackend>> {
        vec![
            Arc::new(LocalDirBackend::create(tmp_dir(tag)).unwrap()),
            Arc::new(ObjectStoreBackend::default()),
        ]
    }

    #[test]
    fn put_get_append_truncate_roundtrip_on_both_backends() {
        for be in backends("roundtrip") {
            assert_eq!(be.get("a").unwrap(), None, "{be:?}");
            be.put("a", b"hello").unwrap();
            assert_eq!(be.get("a").unwrap().unwrap(), b"hello");
            be.append("a", b" world").unwrap();
            be.sync("a").unwrap();
            assert_eq!(be.get("a").unwrap().unwrap(), b"hello world");
            be.truncate("a", 5).unwrap();
            assert_eq!(be.get("a").unwrap().unwrap(), b"hello");
            // Append creates missing objects.
            be.append("b", b"x").unwrap();
            assert_eq!(be.get("b").unwrap().unwrap(), b"x");
            // Put replaces wholesale and resets any append handle.
            be.put("a", b"new").unwrap();
            be.append("a", b"!").unwrap();
            assert_eq!(be.get("a").unwrap().unwrap(), b"new!");
            be.delete("a").unwrap();
            be.delete("a").unwrap(); // idempotent
            assert_eq!(be.get("a").unwrap(), None);
            assert!(be.truncate("a", 0).is_err(), "truncating a missing object errors");
            be.sync("a").unwrap(); // syncing a missing object is a no-op
        }
    }

    #[test]
    fn manifest_cas_detects_racing_commits() {
        for be in backends("cas") {
            let (bytes, rev) = be.read_manifest().unwrap();
            assert_eq!((bytes, rev), (None, 0), "{be:?}");
            let r1 = be.commit_manifest(b"v1\n", 0).unwrap().expect("first commit wins");
            assert_ne!(r1, 0);
            // A commit against a stale revision loses and sees the winner.
            let conflict = be.commit_manifest(b"v2\n", 0).unwrap().unwrap_err();
            assert_eq!(conflict.revision, r1);
            assert_eq!(conflict.current.unwrap(), b"v1\n");
            // Retrying on top of the winner succeeds.
            let r2 = be.commit_manifest(b"v2\n", r1).unwrap().expect("retry on current");
            let (bytes, rev) = be.read_manifest().unwrap();
            assert_eq!(bytes.unwrap(), b"v2\n");
            assert_eq!(rev, r2);
        }
    }

    #[test]
    fn eventual_listing_lags_but_reads_do_not() {
        let be = ObjectStoreBackend::new(ObjectStoreOptions { eventual_list: true });
        be.put("seg-1", b"a").unwrap();
        be.put("seg-2", b"b").unwrap();
        // Both objects are readable by name immediately...
        assert!(be.get("seg-1").unwrap().is_some());
        assert!(be.get("seg-2").unwrap().is_some());
        // ...but invisible to the first listing, visible to the next.
        assert!(be.list().unwrap().is_empty(), "fresh objects hidden from the stale listing");
        assert_eq!(be.list().unwrap(), vec!["seg-1".to_string(), "seg-2".to_string()]);

        let strict = ObjectStoreBackend::new(ObjectStoreOptions { eventual_list: false });
        strict.put("seg-1", b"a").unwrap();
        assert_eq!(strict.list().unwrap(), vec!["seg-1".to_string()]);
    }

    #[test]
    fn revisions_are_content_addressed_and_never_zero() {
        assert_ne!(revision_of(b""), 0);
        assert_ne!(revision_of(b"a"), revision_of(b"b"));
        assert_eq!(revision_of(b"same"), revision_of(b"same"));
    }

    #[test]
    fn local_backend_survives_handle_cache_invalidation_paths() {
        let be = LocalDirBackend::create(tmp_dir("handles")).unwrap();
        be.append("seg", b"one\n").unwrap();
        be.truncate("seg", 2).unwrap();
        be.append("seg", b"!\n").unwrap();
        assert_eq!(be.get("seg").unwrap().unwrap(), b"on!\n");
        assert!(be.list().unwrap().contains(&"seg".to_string()));
        std::fs::remove_dir_all(be.dir()).unwrap();
    }

    /// Counted in the cache, not in `/proc/self/fd`: the tests beside
    /// this one open files of their own on other threads.
    #[test]
    fn a_long_lived_writer_holds_no_handle_on_the_segments_it_sealed() {
        use crate::{StoreOptions, StoredTrial, TrialStore};
        let be = Arc::new(LocalDirBackend::create(tmp_dir("sealed_handles")).unwrap());
        let opts = StoreOptions { segment_records: 2 };
        let store = TrialStore::open_shared(be.clone(), "w", opts).unwrap();
        let cached_after = |records: std::ops::Range<usize>| {
            for iteration in records {
                let trial = StoredTrial {
                    session: "s".to_string(),
                    iteration,
                    raw_score: Some(1.0),
                    score: 1.0,
                    point: vec![0.5],
                    config: Vec::new(),
                    metrics: Vec::new(),
                    status: Default::default(),
                    attempts: 1,
                };
                store.append_trial(&trial).unwrap();
            }
            lock_recover(&be.handles).len()
        };
        assert_eq!(cached_after(0..1), 1, "the active segment's append handle");
        assert_eq!(cached_after(1..41), 1, "and no other, 40 appends later");
        assert_eq!(store.sealed_segments().len(), 20, "with 20 segments sealed in between");
        std::fs::remove_dir_all(be.dir()).unwrap();
    }
}
