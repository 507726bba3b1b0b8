//! DBMS configuration-space model for the LlamaTune reproduction.
//!
//! This crate defines the *typed knob space* that every other layer consumes:
//!
//! * [`Knob`] — a single tunable parameter with an integer, float, or
//!   categorical domain, a default, an engineering unit, and (for the paper's
//!   "hybrid" knobs) a *special value* that changes semantics discontinuously
//!   (e.g. `backend_flush_after = 0` disables forced writeback entirely).
//! * [`ConfigSpace`] — an ordered collection of knobs with the min–max
//!   unit-space conversions from Section 3.3 of the paper (numerical knobs
//!   scale linearly into `[0, 1]`; categorical knobs split `[0, 1]` into
//!   equal bins).
//! * [`catalog`] — the PostgreSQL v9.6 catalog (90 knobs, 17 hybrid) and the
//!   PostgreSQL v13.6 catalog (112 knobs, 23 hybrid) used throughout the
//!   evaluation, modeled on the official documentation.
//!
//! The knob *semantics* (what `shared_buffers` does to performance) live in
//! `llamatune-engine`; this crate only owns names, domains, defaults, and
//! conversions, exactly like the configuration layer of a real tuner.

pub mod catalog;
pub mod conf_file;
mod space;
mod types;

pub use space::{Config, ConfigSpace, KnobAssignment};
pub use types::{Domain, Knob, KnobValue, SpecialValue, Unit};
