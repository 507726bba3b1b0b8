//! The wire protocol shared by `llamatune-server` and
//! `llamatune-client`: length-prefixed JSON frames carrying typed
//! request/response payloads.
//!
//! ## Framing
//!
//! Every message is one frame: a 4-byte big-endian length prefix
//! followed by exactly that many bytes of UTF-8 JSON (one document, no
//! trailing newline). Frames larger than the receiver's limit are
//! rejected with a structured error before the body is read. A clean
//! close between frames is an ordinary end of conversation; a close
//! (or read timeout) *inside* a frame is a truncated frame.
//!
//! ## Envelopes
//!
//! Requests: `{"id": <u64>, "method": "<name>", "params": {...}}`.
//! Responses echo the id: `{"id": <u64>, "ok": {...}}` on success,
//! `{"id": <u64|null>, "err": {"code": "...", "message": "..."}}` on
//! failure (the id is `null` when the request was too mangled to carry
//! one). Scores and points ride as JSON numbers through the
//! shortest-roundtrip `f64` formatter (`llamatune_obs::json`), so every
//! value survives the wire bit-exactly; configurations ride as the
//! store's compact knob tokens (`i<int>`, `f<float>`, `c<choice>`).
//!
//! ## Codec
//!
//! Payloads encode by appending through `llamatune_obs::json`'s writers
//! and decode from a parsed [`JsonValue`] through its typed by-key
//! accessors, whose `Err(String)` already names the key and the fault;
//! a decoder only chooses the code — [`WireError::bad_params`] for what
//! a client sent, [`WireError::bad_json`] for what a daemon replied.

use llamatune::pipeline::{LlamaTuneConfig, ProjectionKind};
use llamatune::session::{EvalResult, TrialStatus};
use llamatune_obs::json::{self, JsonValue};
use llamatune_runtime::AdapterKind;
use llamatune_space::{Config, KnobValue};
use llamatune_store::{knob_value_from_token, knob_value_to_token};
use std::fmt::Write as _;
use std::io::{Read, Write};

/// Default cap on one frame's body, in bytes. A full session export of
/// a few thousand trials fits comfortably; anything larger is a
/// protocol violation, not a workload.
pub const MAX_FRAME: usize = 4 * 1024 * 1024;

/// The largest sizes a `create_session` may ask for. Each one sizes an
/// allocation when the session is opened (the initial design alone is
/// `n_init × dimensions` floats), and an allocation that fails aborts
/// the daemon with every other session in it — no `catch_unwind` sees a
/// SIGABRT. Set far above use, not at it: the paper runs 100
/// iterations, the repo benchmark 300 at batch 4, in 16 dimensions.
pub const MAX_ITERATIONS: u64 = 100_000;
/// See [`MAX_ITERATIONS`].
pub const MAX_N_INIT: u64 = 100_000;
/// See [`MAX_ITERATIONS`].
pub const MAX_BATCH_SIZE: u64 = 1_024;
/// See [`MAX_ITERATIONS`].
pub const MAX_TARGET_DIM: u64 = 1_024;

/// How reading a frame can fail.
#[derive(Debug)]
pub enum FrameError {
    /// Clean close between frames — the peer is simply done.
    Closed,
    /// The stream ended (or timed out) inside a frame.
    Truncated,
    /// The announced body length exceeds the receiver's limit.
    Oversized(usize),
    /// A socket read timeout elapsed between frames (no bytes of the
    /// next frame had arrived). The stream is still synchronized; the
    /// caller may keep reading.
    TimedOut,
    /// Transport failure.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::Oversized(n) => write!(f, "oversized frame ({n} bytes)"),
            FrameError::TimedOut => write!(f, "read timed out between frames"),
            FrameError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

/// Reads one frame, enforcing `max_frame` on the announced length.
pub fn read_frame(r: &mut dyn Read, max_frame: usize) -> Result<String, FrameError> {
    let mut header = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Err(FrameError::Closed),
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // A read timeout with nothing read yet is an idle
                // connection, not a wire fault; partway through the
                // header it is a truncated frame.
                return if got == 0 {
                    Err(FrameError::TimedOut)
                } else {
                    Err(FrameError::Truncated)
                };
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > max_frame {
        return Err(FrameError::Oversized(len));
    }
    let mut body = vec![0u8; len];
    let mut got = 0usize;
    while got < len {
        match r.read(&mut body[got..]) {
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Err(FrameError::Truncated)
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    String::from_utf8(body).map_err(|_| FrameError::Truncated)
}

/// Writes one frame.
pub fn write_frame(w: &mut dyn Write, body: &str) -> std::io::Result<()> {
    let len = u32::try_from(body.len())
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(body.as_bytes())?;
    w.flush()
}

/// Structured error codes of the protocol. Stable strings — clients
/// match on them.
pub mod code {
    /// The frame body was not a valid JSON document.
    pub const BAD_JSON: &str = "bad_json";
    /// The frame was truncated or oversized.
    pub const BAD_FRAME: &str = "bad_frame";
    /// The request envelope was malformed (missing id/method).
    pub const BAD_REQUEST: &str = "bad_request";
    /// The method name is not part of the protocol.
    pub const UNKNOWN_METHOD: &str = "unknown_method";
    /// The params were missing a field or carried a bad value.
    pub const BAD_PARAMS: &str = "bad_params";
    /// The named session does not exist on this daemon.
    pub const UNKNOWN_SESSION: &str = "unknown_session";
    /// A step of the session failed (store error, panic): the request
    /// that stepped it, and every `suggest_batch` until a
    /// `create_session` reopens it.
    pub const SESSION_FAILED: &str = "session_failed";
    /// A report did not match the pending round.
    pub const ROUND_CONFLICT: &str = "round_conflict";
    /// The daemon is shutting down.
    pub const SHUTTING_DOWN: &str = "shutting_down";
    /// `suggest_batch` found the session still being opened by another
    /// connection; the client re-asks. (No call waits server-side.)
    pub const TIMEOUT: &str = "timeout";
    /// Storage failure while serving the request.
    pub const STORE_ERROR: &str = "store_error";
}

/// A structured protocol error (`err` half of a response).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    pub code: String,
    pub message: String,
}

impl WireError {
    pub fn new(code: &str, message: impl Into<String>) -> Self {
        WireError { code: code.to_string(), message: message.into() }
    }

    /// A request's params were missing a field or carried a bad value —
    /// what a `llamatune_obs::json` accessor error means server-side.
    pub fn bad_params(message: String) -> Self {
        WireError::new(code::BAD_PARAMS, message)
    }

    /// A reply body did not have the documented shape — what the same
    /// accessor error means client-side.
    pub fn bad_json(message: String) -> Self {
        WireError::new(code::BAD_JSON, message)
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

/// A parsed request envelope.
#[derive(Debug, Clone)]
pub struct Request {
    pub id: u64,
    pub method: String,
    pub params: JsonValue,
}

impl Request {
    /// Serializes the envelope (`params` must already be a JSON
    /// object source string).
    pub fn encode(id: u64, method: &str, params: &str) -> String {
        format!("{{\"id\":{id},\"method\":\"{}\",\"params\":{params}}}", json::escape(method))
    }

    /// Parses an envelope out of a frame body.
    pub fn decode(body: &str) -> Result<Request, WireError> {
        let bad_request = |m: String| WireError::new(code::BAD_REQUEST, m);
        let doc = json::parse(body).map_err(WireError::bad_json)?;
        let id = doc.u64("id").map_err(bad_request)?;
        let method = doc.str("method").map_err(bad_request)?.to_string();
        let params = doc.get("params").cloned().unwrap_or(JsonValue::Obj(Vec::new()));
        Ok(Request { id, method, params })
    }
}

/// Serializes a success response.
pub fn encode_ok(id: u64, body: &str) -> String {
    format!("{{\"id\":{id},\"ok\":{body}}}")
}

/// Serializes an error response; `id` is `None` when the request was
/// too mangled to carry one.
pub fn encode_err(id: Option<u64>, err: &WireError) -> String {
    let id = id.map_or("null".to_string(), |id| id.to_string());
    format!(
        "{{\"id\":{id},\"err\":{{\"code\":\"{}\",\"message\":\"{}\"}}}}",
        json::escape(&err.code),
        json::escape(&err.message)
    )
}

/// A decoded response: the echoed id plus the ok body or the error.
#[derive(Debug, Clone)]
pub struct Response {
    pub id: Option<u64>,
    pub result: Result<JsonValue, WireError>,
}

impl Response {
    pub fn decode(body: &str) -> Result<Response, WireError> {
        let doc = json::parse(body).map_err(WireError::bad_json)?;
        let id = doc.get("id").and_then(JsonValue::as_u64);
        if let Some(ok) = doc.get("ok") {
            return Ok(Response { id, result: Ok(ok.clone()) });
        }
        let err = doc
            .get("err")
            .ok_or_else(|| WireError::new(code::BAD_JSON, "response carries neither ok nor err"))?;
        let code = err.str("code").unwrap_or("unknown").to_string();
        let message = err.str("message").unwrap_or("").to_string();
        Ok(Response { id, result: Err(WireError { code, message }) })
    }
}

// ---------------------------------------------------------------------------
// Typed payloads
// ---------------------------------------------------------------------------

/// Decodes a list of knob tokens into a configuration.
fn config_from_tokens(tokens: &[String]) -> Result<Config, WireError> {
    let values: Result<Vec<KnobValue>, String> =
        tokens.iter().map(|t| knob_value_from_token(t)).collect();
    values.map(Config::new).map_err(WireError::bad_json)
}

/// `create_session` request payload: the full identity of a session
/// plus its loop bounds. `create_session` is an idempotent *attach* —
/// re-sending it for a live or finished session re-attaches instead of
/// erroring, which is what lets a killed client reconnect and resume.
#[derive(Debug, Clone)]
pub struct CreateSession {
    pub workload: String,
    pub adapter: AdapterKind,
    pub optimizer: String,
    pub seed: u64,
    pub iterations: usize,
    pub n_init: usize,
    pub batch_size: usize,
}

fn write_adapter(out: &mut String, adapter: &AdapterKind) {
    match adapter {
        AdapterKind::Identity => out.push_str("{\"kind\":\"identity\"}"),
        AdapterKind::LlamaTune(cfg) => {
            let projection = match cfg.projection {
                ProjectionKind::Hesbo => "hesbo",
                ProjectionKind::Rembo => "rembo",
            };
            let _ = write!(
                out,
                "{{\"kind\":\"llamatune\",\"target_dim\":{},\"projection\":\"{projection}\",\
                 \"special_value_bias\":",
                cfg.target_dim
            );
            json::write_opt(out, cfg.special_value_bias, json::write_f64);
            out.push_str(",\"bucket_count\":");
            json::write_opt(out, cfg.bucket_count, json::write_u64);
            out.push('}');
        }
    }
}

/// A size a client sent, refused when outside `min..=max`.
fn bounded(v: &JsonValue, key: &str, min: u64, max: u64) -> Result<usize, String> {
    match v.u64(key)? {
        n if (min..=max).contains(&n) => Ok(n as usize),
        n => Err(format!("{key:?} must be in {min}..={max}, got {n}")),
    }
}

fn decode_adapter(v: &JsonValue) -> Result<AdapterKind, String> {
    match v.str("kind")? {
        "identity" => Ok(AdapterKind::Identity),
        "llamatune" => Ok(AdapterKind::LlamaTune(LlamaTuneConfig {
            target_dim: bounded(v, "target_dim", 1, MAX_TARGET_DIM)?,
            projection: match v.str("projection")? {
                "hesbo" => ProjectionKind::Hesbo,
                "rembo" => ProjectionKind::Rembo,
                other => return Err(format!("unknown projection {other:?}")),
            },
            special_value_bias: v.opt_f64("special_value_bias")?,
            bucket_count: match v.opt_u64("bucket_count")? {
                Some(k) if k < 2 => return Err(format!("\"bucket_count\" must be >= 2, got {k}")),
                k => k,
            },
        })),
        other => Err(format!("unknown kind {other:?}")),
    }
}

impl CreateSession {
    pub fn encode(&self) -> String {
        let mut out = String::from("{\"workload\":");
        json::write_str(&mut out, &self.workload);
        out.push_str(",\"adapter\":");
        write_adapter(&mut out, &self.adapter);
        out.push_str(",\"optimizer\":");
        json::write_str(&mut out, &self.optimizer);
        let _ = write!(
            out,
            ",\"seed\":{},\"iterations\":{},\"n_init\":{},\"batch_size\":{}}}",
            self.seed, self.iterations, self.n_init, self.batch_size
        );
        out
    }

    pub fn decode(params: &JsonValue) -> Result<CreateSession, WireError> {
        let decode = || -> Result<CreateSession, String> {
            let adapter = params.get("adapter").ok_or("missing \"adapter\"")?;
            Ok(CreateSession {
                workload: params.str("workload")?.to_string(),
                adapter: decode_adapter(adapter).map_err(|e| format!("adapter: {e}"))?,
                optimizer: params.str("optimizer")?.to_string(),
                seed: params.u64("seed")?,
                iterations: bounded(params, "iterations", 0, MAX_ITERATIONS)?,
                n_init: bounded(params, "n_init", 0, MAX_N_INIT)?,
                batch_size: bounded(params, "batch_size", 1, MAX_BATCH_SIZE)?,
            })
        };
        decode().map_err(WireError::bad_params)
    }
}

/// `create_session` reply: the canonical session label, whether the
/// session is already finished, and the quarantine preload — the
/// configurations (as knob-token lists) whose recorded trials failed
/// terminally in the replayed prefix, which a resuming client must
/// preload into its local executor before evaluating anything.
#[derive(Debug, Clone)]
pub struct SessionAttached {
    pub session: String,
    pub done: bool,
    pub quarantine: Vec<Vec<String>>,
}

impl SessionAttached {
    pub fn encode(&self) -> String {
        let mut out = String::from("{\"session\":");
        json::write_str(&mut out, &self.session);
        let _ = write!(out, ",\"done\":{},\"quarantine\":", self.done);
        json::write_array(&mut out, &self.quarantine, json::write_str_array);
        out.push('}');
        out
    }

    pub fn decode(body: &JsonValue) -> Result<SessionAttached, WireError> {
        let decode = || -> Result<SessionAttached, String> {
            Ok(SessionAttached {
                session: body.str("session")?.to_string(),
                done: body.bool("done")?,
                quarantine: body
                    .opt_array("quarantine")?
                    .iter()
                    .map(|cfg| cfg.as_str_array().ok_or("bad quarantine entry"))
                    .collect::<Result<_, _>>()?,
            })
        };
        decode().map_err(WireError::bad_json)
    }

    /// Decodes the quarantine token lists into configurations.
    pub fn quarantine_configs(&self) -> Result<Vec<Config>, WireError> {
        self.quarantine.iter().map(|tokens| config_from_tokens(tokens)).collect()
    }
}

/// One trial of a suggested round: the iteration index and the decoded
/// configuration as knob tokens.
#[derive(Debug, Clone)]
pub struct WireTrial {
    pub iteration: usize,
    pub config: Vec<String>,
}

/// `suggest_batch` reply: either the pending round or the news that the
/// session has finished. The round id is the iteration index of the
/// round's first trial — stable across redelivery, which is what makes
/// `report` idempotent.
#[derive(Debug, Clone)]
pub enum SuggestReply {
    Round { round: usize, trials: Vec<WireTrial> },
    Done,
}

impl SuggestReply {
    /// Builds the round form out of the session loop's trials.
    pub fn from_trials(round: usize, trials: &[(usize, Vec<KnobValue>)]) -> SuggestReply {
        SuggestReply::Round {
            round,
            trials: trials
                .iter()
                .map(|(iteration, config)| WireTrial {
                    iteration: *iteration,
                    config: config.iter().map(knob_value_to_token).collect(),
                })
                .collect(),
        }
    }

    pub fn encode(&self) -> String {
        match self {
            SuggestReply::Done => "{\"done\":true}".to_string(),
            SuggestReply::Round { round, trials } => {
                let mut out = format!("{{\"round\":{round},\"trials\":");
                json::write_array(&mut out, trials, |out, t| {
                    let _ = write!(out, "{{\"iteration\":{},\"config\":", t.iteration);
                    json::write_str_array(out, &t.config);
                    out.push('}');
                });
                out.push('}');
                out
            }
        }
    }

    pub fn decode(body: &JsonValue) -> Result<SuggestReply, WireError> {
        if body.get("done") == Some(&JsonValue::Bool(true)) {
            return Ok(SuggestReply::Done);
        }
        let decode = || -> Result<SuggestReply, String> {
            let trial = |t: &JsonValue| -> Result<WireTrial, String> {
                Ok(WireTrial {
                    iteration: t.u64("iteration")? as usize,
                    config: t.str_array("config")?,
                })
            };
            Ok(SuggestReply::Round {
                round: body.u64("round")? as usize,
                trials: body.array("trials")?.iter().map(trial).collect::<Result<_, _>>()?,
            })
        };
        decode().map_err(WireError::bad_json)
    }
}

impl WireTrial {
    /// Decodes the knob tokens into a configuration.
    pub fn to_config(&self) -> Result<Config, WireError> {
        config_from_tokens(&self.config)
    }
}

/// One evaluated trial result riding back to the daemon. Mirrors
/// [`EvalResult`]; `virtual_ms` is observability-only (never folded
/// into recorded history).
#[derive(Debug, Clone)]
pub struct WireResult {
    pub score: Option<f64>,
    pub metrics: Vec<f64>,
    pub status: TrialStatus,
    pub attempts: u32,
    pub virtual_ms: f64,
}

impl WireResult {
    pub fn from_eval(r: &EvalResult) -> WireResult {
        WireResult {
            score: r.score,
            metrics: r.metrics.clone(),
            status: r.status,
            attempts: r.attempts,
            virtual_ms: r.virtual_ms,
        }
    }

    pub fn to_eval(&self) -> EvalResult {
        EvalResult {
            score: self.score,
            metrics: self.metrics.clone(),
            status: self.status,
            attempts: self.attempts,
            virtual_ms: self.virtual_ms,
        }
    }

    fn write(&self, out: &mut String) {
        out.push_str("{\"score\":");
        json::write_opt(out, self.score, json::write_f64);
        out.push_str(",\"metrics\":");
        json::write_f64_array(out, &self.metrics);
        let _ = write!(
            out,
            ",\"status\":\"{}\",\"attempts\":{},\"virtual_ms\":",
            self.status.as_str(),
            self.attempts
        );
        json::write_f64(out, self.virtual_ms);
        out.push('}');
    }

    fn decode(v: &JsonValue) -> Result<WireResult, String> {
        let score = v.opt_f64("score")?;
        Ok(WireResult {
            score,
            // `write` can only spell a non-finite metric as `null` (JSON
            // has nothing else for it); it reads back as NaN, as in the
            // store's trial record.
            metrics: v
                .opt_array("metrics")?
                .iter()
                .map(|m| match m {
                    JsonValue::Null => Ok(f64::NAN),
                    m => m.as_f64().ok_or("bad metric"),
                })
                .collect::<Result<_, _>>()?,
            status: match v.opt_str("status")? {
                Some(s) => TrialStatus::parse(s)?,
                None => TrialStatus::derived(score),
            },
            attempts: v.opt_u64("attempts")?.unwrap_or(1).min(u64::from(u32::MAX)) as u32,
            virtual_ms: v.opt_f64("virtual_ms")?.unwrap_or(0.0),
        })
    }
}

/// `report` request payload: the evaluated results of one round,
/// positionally aligned with the round's trials.
#[derive(Debug, Clone)]
pub struct Report {
    pub session: String,
    pub round: usize,
    pub results: Vec<WireResult>,
}

impl Report {
    pub fn encode(&self) -> String {
        let mut out = String::from("{\"session\":");
        json::write_str(&mut out, &self.session);
        let _ = write!(out, ",\"round\":{},\"results\":", self.round);
        json::write_array(&mut out, &self.results, |out, r| r.write(out));
        out.push('}');
        out
    }

    pub fn decode(params: &JsonValue) -> Result<Report, WireError> {
        let decode = || -> Result<Report, String> {
            Ok(Report {
                session: params.str("session")?.to_string(),
                round: params.u64("round")? as usize,
                results: params
                    .array("results")?
                    .iter()
                    .map(WireResult::decode)
                    .collect::<Result<_, _>>()?,
            })
        };
        decode().map_err(WireError::bad_params)
    }
}

/// `session_status` reply.
#[derive(Debug, Clone)]
pub struct SessionStatusReply {
    /// `"running"`, `"done"`, or `"failed"`.
    pub status: String,
    /// Trials recorded in the store so far.
    pub trials: usize,
    /// Best penalized score recorded so far.
    pub best_score: Option<f64>,
    /// Failure message, for failed sessions.
    pub error: Option<String>,
}

impl SessionStatusReply {
    pub fn encode(&self) -> String {
        let mut out = String::from("{\"status\":");
        json::write_str(&mut out, &self.status);
        let _ = write!(out, ",\"trials\":{},\"best_score\":", self.trials);
        json::write_opt(&mut out, self.best_score, json::write_f64);
        out.push_str(",\"error\":");
        json::write_opt(&mut out, self.error.as_deref(), json::write_str);
        out.push('}');
        out
    }

    pub fn decode(body: &JsonValue) -> Result<SessionStatusReply, WireError> {
        let decode = || -> Result<SessionStatusReply, String> {
            Ok(SessionStatusReply {
                status: body.str("status")?.to_string(),
                trials: body.opt_u64("trials")?.unwrap_or(0) as usize,
                best_score: body.opt_f64("best_score")?,
                error: body.opt_str("error")?.filter(|e| !e.is_empty()).map(str::to_string),
            })
        };
        decode().map_err(WireError::bad_json)
    }
}

/// `warm_start_query` reply: the optimizer-space points recorded in the
/// session's metadata (empty when transfer found nothing or the
/// session is unknown to the store yet).
#[derive(Debug, Clone)]
pub struct WarmStartReply {
    pub points: Vec<Vec<f64>>,
}

impl WarmStartReply {
    pub fn encode(&self) -> String {
        let mut out = String::from("{\"points\":");
        json::write_array(&mut out, &self.points, |out, p| json::write_f64_array(out, p));
        out.push('}');
        out
    }

    pub fn decode(body: &JsonValue) -> Result<WarmStartReply, WireError> {
        let decode = || -> Result<WarmStartReply, String> {
            Ok(WarmStartReply {
                points: body
                    .opt_array("points")?
                    .iter()
                    .map(|p| p.as_f64_array().ok_or("bad warm-start point"))
                    .collect::<Result<_, _>>()?,
            })
        };
        decode().map_err(WireError::bad_json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"id\":1}").unwrap();
        write_frame(&mut buf, "{\"id\":2}").unwrap();
        let mut r = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r, MAX_FRAME).unwrap(), "{\"id\":1}");
        assert_eq!(read_frame(&mut r, MAX_FRAME).unwrap(), "{\"id\":2}");
        assert!(matches!(read_frame(&mut r, MAX_FRAME), Err(FrameError::Closed)));
    }

    #[test]
    fn truncated_and_oversized_frames_are_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"id\":1}").unwrap();
        buf.truncate(buf.len() - 3);
        let mut r = std::io::Cursor::new(buf);
        assert!(matches!(read_frame(&mut r, MAX_FRAME), Err(FrameError::Truncated)));

        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME as u32 + 1).to_be_bytes());
        let mut r = std::io::Cursor::new(buf);
        assert!(matches!(read_frame(&mut r, MAX_FRAME), Err(FrameError::Oversized(_))));
    }

    #[test]
    fn request_envelopes_round_trip() {
        let body = Request::encode(7, "suggest_batch", "{\"session\":\"a/b/c/s1\"}");
        let req = Request::decode(&body).unwrap();
        assert_eq!(req.id, 7);
        assert_eq!(req.method, "suggest_batch");
        assert_eq!(req.params.get("session").unwrap().as_str(), Some("a/b/c/s1"));
    }

    #[test]
    fn create_session_round_trips_every_adapter_form() {
        for adapter in [
            AdapterKind::Identity,
            AdapterKind::LlamaTune(LlamaTuneConfig::default()),
            AdapterKind::LlamaTune(LlamaTuneConfig {
                target_dim: 8,
                projection: ProjectionKind::Rembo,
                special_value_bias: None,
                bucket_count: None,
            }),
        ] {
            let req = CreateSession {
                workload: "ycsb_a".into(),
                adapter: adapter.clone(),
                optimizer: "smac".into(),
                seed: 11,
                iterations: 20,
                n_init: 5,
                batch_size: 3,
            };
            let decoded = CreateSession::decode(&json::parse(&req.encode()).unwrap()).unwrap();
            assert_eq!(decoded.workload, req.workload);
            assert_eq!(decoded.optimizer, req.optimizer);
            assert_eq!(decoded.seed, req.seed);
            assert_eq!(
                decoded.adapter.identity_tag(req.seed),
                adapter.identity_tag(req.seed),
                "adapter identity must survive the wire"
            );
        }
    }

    #[test]
    fn create_session_sizes_are_accepted_up_to_their_bounds_and_no_further() {
        let at_the_bounds = CreateSession {
            workload: "ycsb_a".into(),
            adapter: AdapterKind::LlamaTune(LlamaTuneConfig {
                target_dim: MAX_TARGET_DIM as usize,
                bucket_count: Some(2),
                ..LlamaTuneConfig::default()
            }),
            optimizer: "smac".into(),
            seed: 1,
            iterations: MAX_ITERATIONS as usize,
            n_init: MAX_N_INIT as usize,
            batch_size: MAX_BATCH_SIZE as usize,
        };
        let decode =
            |req: &CreateSession| CreateSession::decode(&json::parse(&req.encode()).unwrap());
        assert!(decode(&at_the_bounds).is_ok());
        assert!(
            decode(&CreateSession { iterations: 0, n_init: 0, ..at_the_bounds.clone() }).is_ok()
        );
        for (field, past) in [
            ("iterations", CreateSession { iterations: 100_001, ..at_the_bounds.clone() }),
            ("n_init", CreateSession { n_init: 100_001, ..at_the_bounds.clone() }),
            ("batch_size", CreateSession { batch_size: 1_025, ..at_the_bounds.clone() }),
        ] {
            let err = decode(&past).unwrap_err();
            assert_eq!(err.code, code::BAD_PARAMS);
            assert!(err.message.contains(field), "{err}");
        }
    }

    #[test]
    fn results_round_trip_bit_exactly() {
        let report = Report {
            session: "w/a/o/s1".into(),
            round: 4,
            results: vec![
                WireResult {
                    score: Some(1234.5678901234567),
                    metrics: vec![0.1, 2.0e-9],
                    status: TrialStatus::Ok,
                    attempts: 1,
                    virtual_ms: 12.5,
                },
                WireResult {
                    score: None,
                    metrics: vec![],
                    status: TrialStatus::Crashed,
                    attempts: 3,
                    virtual_ms: 0.0,
                },
            ],
        };
        let decoded = Report::decode(&json::parse(&report.encode()).unwrap()).unwrap();
        assert_eq!(decoded.round, 4);
        assert_eq!(decoded.results[0].score, report.results[0].score);
        assert_eq!(decoded.results[0].metrics, report.results[0].metrics);
        assert_eq!(decoded.results[1].status, TrialStatus::Crashed);
        assert_eq!(decoded.results[1].attempts, 3);
    }

    /// An evaluator may hand back a metric the DBMS could not produce.
    /// The store keeps such a trial; the wire must carry it there.
    #[test]
    fn non_finite_metrics_round_trip_as_nan() {
        let report = Report {
            session: "w/a/o/s1".into(),
            round: 0,
            results: vec![WireResult {
                score: Some(10.0),
                metrics: vec![1.0, f64::NAN, f64::INFINITY],
                status: TrialStatus::Ok,
                attempts: 1,
                virtual_ms: 0.0,
            }],
        };
        let encoded = report.encode();
        assert!(encoded.contains("\"metrics\":[1,null,null]"), "{encoded}");
        let decoded = Report::decode(&json::parse(&encoded).unwrap()).unwrap();
        let metrics = &decoded.results[0].metrics;
        assert_eq!(metrics[0], 1.0);
        assert!(metrics[1].is_nan() && metrics[2].is_nan(), "{metrics:?}");
        // Anything else in the array is still refused.
        let bad = json::parse(&encoded.replace("null,null", "\"x\",null")).unwrap();
        assert_eq!(Report::decode(&bad).unwrap_err().code, code::BAD_PARAMS);
    }

    #[test]
    fn error_responses_carry_code_and_message() {
        let body = encode_err(Some(9), &WireError::new(code::BAD_PARAMS, "missing \"seed\""));
        let resp = Response::decode(&body).unwrap();
        assert_eq!(resp.id, Some(9));
        let err = resp.result.unwrap_err();
        assert_eq!(err.code, code::BAD_PARAMS);
        assert!(err.message.contains("seed"));
    }
}
