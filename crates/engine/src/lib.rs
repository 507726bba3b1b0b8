//! Discrete-event simulation of an OLTP DBMS for the LlamaTune reproduction.
//!
//! The paper evaluates LlamaTune against PostgreSQL running on a CloudLab
//! c220g5 node. This crate substitutes that testbed with a mechanistic
//! simulator whose observable behaviour — throughput, tail latency, and 27
//! internal metrics, as a function of the knob configuration — has the same
//! *structure* the paper's techniques exploit:
//!
//! * a **buffer pool** with clock eviction backed by an OS page cache and a
//!   simulated SSD (so `shared_buffers` and friends dominate performance);
//! * a **WAL** with group commit, a WAL-writer daemon, full-page writes and
//!   buffer-full stalls (`commit_delay`, `wal_buffers`, `synchronous_commit`,
//!   `max_wal_size`, ...);
//! * a **checkpointer** and **background writer** spreading dirty-page
//!   writebacks, plus foreground writeback when `backend_flush_after > 0` —
//!   reproducing the Figure 4 discontinuity at the special value 0;
//! * **autovacuum** with dead-tuple accounting and bloat, paced by the
//!   vacuum cost knobs;
//! * a **row lock manager** (2PL, sorted acquisition) so skewed workloads
//!   contend;
//! * a two-path **planner** whose choices depend on the cost knobs.
//!
//! Transactions are simulated at transaction granularity on a virtual clock:
//! clients are popped from a time-ordered heap, each transaction's timeline
//! is computed against shared resource meters (CPU, disk) that model
//! queueing by utilization, and daemons (checkpointer, vacuum, WAL writer,
//! background writer) run as periodic actors on the same clock.
//!
//! Configurations that overcommit the 16 GB box crash, mirroring the paper's
//! crashed-configuration handling.
//!
//! # Scaling
//!
//! A run simulates a couple of virtual seconds where the paper runs five
//! wall-clock minutes against a 20 GB database, so two [`RunOptions`]
//! fields shrink what would not fit in that window, each by one factor so
//! that every ratio a knob acts on is kept:
//!
//! * `daemon_time_scale` divides the slow daemon periods — checkpoint
//!   timeout, autovacuum naptime, the WAL volume that triggers
//!   `max_wal_size` — so that their dynamics (a 5-minute checkpoint cycle)
//!   appear within the window.
//! * `memory_scale` divides the memory hierarchy — table sizes, buffer
//!   pool frames, OS cache — so that cache-capacity effects of the full
//!   database appear in the pages a short run touches, and dead tuples
//!   accrue as if the run lasted the paper's five minutes on the
//!   scaled-down tables. Knob values and the crash check are untouched.
//!
//! # Cost of an evaluation
//!
//! One [`run_workload`] is what a tuning session pays per sample, so the
//! model's bookkeeping is kept off its hot path. The buffer pool and the
//! OS cache find a page through a page table indexed by table id and page
//! number, with no hashing, and record dirtiness in a bitmap that
//! writeback passes read a word at a time ([`bufferpool::BufferPool`]).
//! The two tables that still hash (row locks, the WAL's full-page-write
//! set) are keyed by integers the simulator made itself and hashed
//! accordingly. A resource meter's ring has a constant length, and an
//! op's Zipfian is found when the run is set up. None of it is visible in
//! a [`RunResult`]: `crates/workloads/tests/engine_golden.rs` pins
//! results bit for bit.

pub mod bufferpool;
pub mod db;
pub mod hardware;
mod hash;
pub mod knobs;
pub mod locks;
pub mod metrics;
pub mod planner;
pub mod sim;
pub mod vacuum;
pub mod wal;
pub mod workload_spec;

pub use db::{run_workload, RunOptions, RunResult};
pub use hardware::HardwareProfile;
pub use knobs::DbmsKnobs;
pub use metrics::{fingerprint_features, METRIC_NAMES};
pub use workload_spec::{Arrival, KeyDist, OpTemplate, TableSpec, TxnTemplate, WorkloadSpec};
