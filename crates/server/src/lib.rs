//! # llamatune-server: tuning as a service
//!
//! A long-lived daemon that owns the shared
//! [`TrialStore`](llamatune_store::TrialStore) and drives tuning
//! sessions for remote clients over a small length-prefixed JSON wire
//! protocol. It owns it literally: one handle per daemon, opened by the
//! first request that needs it, appended to by every session and read
//! by every query — see [`SessionRegistry`] for what that handle does and does
//! not see. The division of labor:
//!
//! * **Server side** — everything stateful and everything that must be
//!   deterministic: optimizer state (constant-liar wrapped, so it is a
//!   pure function of recorded history), per-trial store checkpoints,
//!   session metadata and fleet leases, warm-start transfer, telemetry.
//!   Each session is a value stepped through [`SessionDriver`]'s
//!   `open` / `report` / `finish` seam — the *same* driver, and the same
//!   loop body, the in-process library path runs — so a served
//!   session's exported history is byte-identical to the equivalent
//!   local campaign by construction. No thread belongs to a session: a
//!   step runs on the connection thread of the request that causes it.
//! * **Client side** — evaluation only. `suggest_batch` hands the
//!   client a round of decoded configurations; the client benchmarks
//!   them however it likes (the thin `llamatune-client` crate evaluates
//!   with a local `WorkloadExecutor`) and `report`s results back.
//!
//! An acknowledged `report` means the round is in the store; an
//! unanswered round leaves nothing there. So a client killed mid-round
//! loses no history: reconnecting re-attaches (idempotent
//! `create_session`), receives the quarantine preload, fetches the same
//! pending round again, and the session continues bit-exactly. A step
//! that fails (store error, panic) fails the session and the request
//! that stepped it; the next `create_session` reopens it from the store.
//!
//! Protocol: each frame is a 4-byte big-endian length + one JSON
//! document. Methods: `create_session`, `suggest_batch`, `report`,
//! `warm_start_query`, `session_status`, `export_history`, `ping`,
//! `shutdown`. See [`wire`] for envelopes, payloads, and error codes.
//!
//! [`SessionDriver`]: llamatune_runtime::SessionDriver

mod daemon;
mod session;
pub mod wire;

pub use daemon::{Server, ServerConfig, ServerHandle};
pub use session::{Attach, SessionRegistry};
pub use wire::{
    read_frame, write_frame, CreateSession, FrameError, Report, Request, Response, SessionAttached,
    SessionStatusReply, SuggestReply, WarmStartReply, WireError, WireResult, WireTrial, MAX_FRAME,
};
