//! # llamatune-store: the persistent tuning knowledge store
//!
//! LlamaTune's entire pitch is sample efficiency — every DBMS
//! evaluation is expensive — yet a process that exits forgets every
//! trial it paid for. This crate makes the knowledge base of the
//! paper's Figure 1 *durable* and layers two consumers on top:
//!
//! * [`TrialStore`] — an append-only, crash-safe store of trial and
//!   session records: JSONL segments sealed through an atomically
//!   committed manifest, torn-write recovery on the active segment, and
//!   an in-memory index keyed by session label and iteration (see
//!   [`segment`] for the format and recovery, [`manifest`] for the
//!   commit protocol). Records are a superset of the
//!   core crate's `TrialEvent` schema, so a store exports the exact
//!   campaign transcript the sequential tooling already reads.
//! * **Pluggable backends** ([`backend`]) — the store reads and writes
//!   named objects through the [`StoreBackend`] trait:
//!   [`LocalDirBackend`] keeps the original one-file-per-object layout
//!   (manifest committed by atomic rename), [`ObjectStoreBackend`]
//!   emulates S3-style object storage (no rename; manifest committed
//!   by conditional put). Every writer ([`TrialStore::open_shared`];
//!   [`TrialStore::open`] is the writer `local`) appends into an active
//!   segment of its own and commits through the manifest's one CAS
//!   retry loop, so N tuning workers can share one store, and
//!   [`TrialStore::open_reader`] serves the merged view. [`faults`]
//!   injects deterministic kill-at-byte failures at this seam for the
//!   CI crash suites.
//! * **Checkpoint/resume** — the runtime crate's `Campaign` flushes
//!   every completed trial through the store and, on restart,
//!   `Campaign::resume` replays recorded trials into a fresh optimizer
//!   (whose state the constant-liar wrapper keeps a pure function of the
//!   real history) and continues each session bit-identically to an
//!   uninterrupted run.
//! * **Warm-start transfer** ([`transfer`]) — workloads are
//!   fingerprinted from a probe run's internal metrics; a new session
//!   whose fingerprint lands near a stored campaign seeds its first *k*
//!   trials from that campaign's top configurations instead of LHS.
//!
//! The store is deliberately plain text: segments are inspectable with
//! `grep`, exportable with [`TrialStore::export_jsonl`], and robust to
//! partial writes by construction rather than by checksum machinery.

pub mod backend;
pub mod faults;
// `manifest` and `segment` export nothing; they are public for their
// module docs, which hold the commit protocol and the on-disk format.
pub mod manifest;
pub mod record;
pub mod segment;
pub mod store;
pub mod transfer;

pub use backend::{
    lock_recover, revision_of, CasConflict, LocalDirBackend, ObjectStoreBackend,
    ObjectStoreOptions, Revision, StoreBackend, MANIFEST_NAME,
};
pub use faults::{FailingBackend, FaultPlan};
pub use record::{
    knob_value_from_token, read_config, record_from_json, record_to_json, write_config,
    SessionMeta, SessionStatus, StoreRecord, StoredTrial,
};
pub use store::{rebuild_history, CompactionStats, StoreOptions, TrialStore};
pub use transfer::{cosine_distance, SessionMatch};
