//! # llamatune-server: tuning as a service
//!
//! A long-lived daemon that owns the shared
//! [`TrialStore`](llamatune_store::TrialStore) and drives tuning
//! sessions for remote clients over a small length-prefixed JSON wire
//! protocol. It owns it literally: one handle per daemon, opened by the
//! first request that needs it, shared by every session thread and read
//! by every query — see [`session`] for what that handle does and does
//! not see. The division of labor:
//!
//! * **Server side** — everything stateful and everything that must be
//!   deterministic: optimizer state (constant-liar wrapped, so it is a
//!   pure function of recorded history), per-trial store checkpoints,
//!   session metadata and fleet leases, warm-start transfer, telemetry.
//!   Each session runs a [`SessionDriver`] on a dedicated thread — the
//!   *same* driver the in-process library path uses, so a served
//!   session's exported history is byte-identical to the equivalent
//!   local campaign by construction.
//! * **Client side** — evaluation only. `suggest_batch` hands the
//!   client a round of decoded configurations; the client benchmarks
//!   them however it likes (the thin `llamatune-client` crate evaluates
//!   with a local `WorkloadExecutor`) and `report`s results back.
//!
//! Because nothing is recorded until results arrive, a client killed
//! mid-round loses no history: reconnecting re-attaches (idempotent
//! `create_session`), receives the quarantine preload, fetches the same
//! pending round again, and the session continues bit-exactly.
//!
//! Protocol: each frame is a 4-byte big-endian length + one JSON
//! document. Methods: `create_session`, `suggest_batch`, `report`,
//! `warm_start_query`, `session_status`, `export_history`, `ping`,
//! `shutdown`. See [`wire`] for envelopes, payloads, and error codes.
//!
//! [`SessionDriver`]: llamatune_runtime::SessionDriver

pub mod daemon;
pub mod session;
pub mod wire;

pub use daemon::{Server, ServerConfig, ServerHandle};
pub use session::{Attach, Phase, SessionHandle, SessionRegistry};
pub use wire::{
    read_frame, write_frame, CreateSession, FrameError, Report, Request, Response, SessionAttached,
    SessionStatusReply, SuggestReply, WarmStartReply, WireError, WireResult, WireTrial, MAX_FRAME,
};
