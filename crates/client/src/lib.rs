//! # llamatune-client: the thin side of tuning-as-a-service
//!
//! A blocking client for the `llamatune-server` daemon. Two layers:
//!
//! * [`Client`] — one connection, one typed method per protocol method
//!   (`create_session`, `suggest_batch`, `report`, `warm_start_query`,
//!   `session_status`, `export_history`, `ping`, `shutdown`). Requests
//!   and responses are the same typed structs the server uses
//!   ([`llamatune_server::wire`]), so the two ends cannot drift.
//! * [`run_remote_session`] — the whole client-side tuning loop:
//!   attach, preload quarantine into the local
//!   [`session_executor`](llamatune_runtime::session_executor) of the
//!   session under the daemon's `CampaignOptions`, evaluate each
//!   suggested round, report, repeat until done, export.
//!   Transport failures reconnect with backoff and re-attach;
//!   `create_session` is idempotent and the daemon redelivers the
//!   unanswered round, so a kill at any point resumes without
//!   re-evaluating any completed trial.
//!
//! The daemon owns everything stateful (optimizer, store, leases); the
//! client owns only evaluation. That split is what makes the client
//! safely killable: client state is a pure function of what the server
//! tells it at attach time.

mod remote;

pub use remote::{run_remote_session, RemoteOutcome, RemoteSessionOptions};

use llamatune_obs::json;
use llamatune_server::wire::{
    self, read_frame, write_frame, CreateSession, FrameError, Report, Request, Response,
    SessionAttached, SessionStatusReply, SuggestReply, WarmStartReply, WireError,
};
use std::io::{BufReader, BufWriter};
use std::net::TcpStream;

/// How a client call can fail.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure (connect, send, or receive). The
    /// connection is dead; reconnect and re-attach to continue.
    Transport(String),
    /// The daemon answered with a structured protocol error.
    Wire(WireError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Transport(e) => write!(f, "transport: {e}"),
            ClientError::Wire(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Transport(e.to_string())
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Transport(e.to_string())
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl ClientError {
    /// Whether reconnecting could help: true for transport failures and
    /// for the server-side `timeout` answer (re-ask), false for every
    /// other structured protocol error (re-sending won't change it).
    pub(crate) fn is_retryable(&self) -> bool {
        match self {
            ClientError::Transport(_) => true,
            ClientError::Wire(e) => e.code == wire::code::TIMEOUT,
        }
    }
}

/// One blocking connection to a daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u64,
    max_frame: usize,
    /// The request being framed and the reply last read: one buffer
    /// each, reused from call to call.
    request: String,
    reply: Vec<u8>,
}

impl Client {
    /// Connects to `addr` (e.g. `"127.0.0.1:7701"`).
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let write_half = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer: BufWriter::new(write_half),
            next_id: 1,
            max_frame: wire::MAX_FRAME,
            request: String::new(),
            reply: Vec::new(),
        })
    }

    /// One request/response round trip: `params` appends the request's
    /// params behind the envelope; the `ok` body comes back as its source
    /// text, borrowed from the reply's frame.
    fn call(
        &mut self,
        method: &str,
        params: impl FnOnce(&mut String),
    ) -> Result<&str, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        self.request.clear();
        Request::begin(&mut self.request, id, method);
        params(&mut self.request);
        self.request.push('}');
        write_frame(&mut self.writer, &self.request)?;
        let body = read_frame(&mut self.reader, self.max_frame, &mut self.reply)?;
        let resp = Response::decode(body)?;
        if resp.id.is_some() && resp.id != Some(id) {
            return Err(ClientError::Transport(format!(
                "response id {:?} does not match request id {id}",
                resp.id
            )));
        }
        resp.result.map_err(ClientError::Wire)
    }

    /// A call whose params name only the session.
    fn call_session(&mut self, method: &str, session: &str) -> Result<&str, ClientError> {
        self.call(method, |out| {
            out.push_str("{\"session\":");
            json::write_str(out, session);
            out.push('}');
        })
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.call("ping", |out| out.push_str("{}")).map(drop)
    }

    /// Creates — or idempotently re-attaches to — a session.
    pub fn create_session(&mut self, req: &CreateSession) -> Result<SessionAttached, ClientError> {
        let body = self.call("create_session", |out| out.push_str(&req.encode()))?;
        Ok(SessionAttached::decode(body)?)
    }

    /// Fetches the session's next (or still-unanswered) round.
    pub fn suggest_batch(&mut self, session: &str) -> Result<SuggestReply, ClientError> {
        Ok(SuggestReply::decode(self.call_session("suggest_batch", session)?)?)
    }

    /// Reports one evaluated round.
    pub fn report(&mut self, report: &Report) -> Result<(), ClientError> {
        self.call("report", |out| report.write(out)).map(drop)
    }

    /// The session's recorded warm-start points (optimizer space).
    pub fn warm_start_query(&mut self, session: &str) -> Result<WarmStartReply, ClientError> {
        Ok(WarmStartReply::decode(self.call_session("warm_start_query", session)?)?)
    }

    /// The session's phase, trial count, and best score so far.
    pub fn session_status(&mut self, session: &str) -> Result<SessionStatusReply, ClientError> {
        Ok(SessionStatusReply::decode(self.call_session("session_status", session)?)?)
    }

    /// The session's full recorded history as JSONL (the store's
    /// canonical export — the byte-identity surface).
    pub fn export_history(&mut self, session: &str) -> Result<String, ClientError> {
        let body = self.call_session("export_history", session)?;
        Ok(wire::string_member(body, "jsonl").map_err(WireError::bad_json)?.into_owned())
    }
}
