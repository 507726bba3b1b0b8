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
//! (or read timeout) *inside* a frame is a truncated frame. A frame that
//! arrived whole but is not UTF-8 is neither: the stream is still in
//! step, and the daemon answers it like any other body that is not JSON.
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
//! A frame is written once and read once. **Writing**: each end keeps
//! one buffer per connection; the envelope is opened in it
//! ([`Request::begin`], [`begin_ok`]), the payload appends itself behind
//! (`write`: knob tokens, scores and metrics go straight from the values
//! into the frame) and the frame goes out. [`Request::encode`],
//! [`encode_ok`] and the payloads' `encode` are the same writers into a
//! fresh `String`. **Reading**: the envelope walks the body once on
//! `llamatune_obs::json::Scanner`, checking all of it as a JSON document
//! (syntax, repeated keys at any depth, nesting — a fault is `bad_json`)
//! and splitting off the payload — [`Request::params`], the `Ok` of
//! [`Response::result`] — as the *source text* of that member, borrowed
//! from the frame. The payload's `decode` takes that text. The two
//! messages of a round (`suggest_batch`'s reply, `report`'s request)
//! pull typed values straight off a second `Scanner` — a knob value is
//! parsed from the token's borrowed literal, no tree, no `String` per
//! knob; the once-per-session messages go through
//! [`json::parse`] and the tree's typed by-key accessors. Either way a
//! decoder only chooses the code — [`WireError::bad_params`] for what a
//! client sent, [`WireError::bad_json`] for what a daemon replied — and
//! reads an open document: members it does not know are passed over.

use llamatune::pipeline::{LlamaTuneConfig, ProjectionKind};
use llamatune::session::{EvalResult, TrialStatus};
use llamatune_obs::json::{self, JsonValue, Scanner};
use llamatune_runtime::AdapterKind;
use llamatune_space::{Config, KnobValue};
use llamatune_store::{knob_value_from_token, read_config, write_config};
use std::borrow::Cow;
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
    /// The frame arrived whole but its body is not UTF-8. The length
    /// prefix was honoured, so the stream is still synchronized.
    NotUtf8,
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
            FrameError::NotUtf8 => write!(f, "frame body is not UTF-8"),
            FrameError::TimedOut => write!(f, "read timed out between frames"),
            FrameError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

fn timed_out(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

/// Reads one frame into `buf` — the connection's, reused from frame to
/// frame — enforcing `max_frame` on the announced length, and returns
/// its body.
pub fn read_frame<'b>(
    r: &mut dyn Read,
    max_frame: usize,
    buf: &'b mut Vec<u8>,
) -> Result<&'b str, FrameError> {
    // A read timeout with nothing read yet is an idle connection, not a
    // wire fault; partway through the header it is a truncated frame.
    buf.clear();
    match r.take(4).read_to_end(buf) {
        Ok(4) => {}
        Ok(0) => return Err(FrameError::Closed),
        Ok(_) => return Err(FrameError::Truncated),
        Err(e) if timed_out(&e) && buf.is_empty() => return Err(FrameError::TimedOut),
        Err(e) if timed_out(&e) => return Err(FrameError::Truncated),
        Err(e) => return Err(FrameError::Io(e)),
    }
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > max_frame {
        return Err(FrameError::Oversized(len));
    }
    buf.clear();
    buf.reserve(len);
    match r.take(len as u64).read_to_end(buf) {
        Ok(got) if got == len => std::str::from_utf8(buf).map_err(|_| FrameError::NotUtf8),
        Ok(_) => Err(FrameError::Truncated),
        Err(e) if timed_out(&e) => Err(FrameError::Truncated),
        Err(e) => Err(FrameError::Io(e)),
    }
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
    /// what a `llamatune_obs::json` reader's error means server-side.
    pub fn bad_params(message: String) -> Self {
        WireError::new(code::BAD_PARAMS, message)
    }

    /// A reply body did not have the documented shape — what the same
    /// reader's error means client-side.
    pub fn bad_json(message: String) -> Self {
        WireError::new(code::BAD_JSON, message)
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

/// Walks a frame body once: checks all of it as [`json::parse`] would
/// and hands `member` the source text of each top-level member (a body
/// that is a document but no object has none).
fn envelope<'a>(body: &'a str, mut member: impl FnMut(&str, &'a str)) -> Result<(), WireError> {
    let mut sc = Scanner::new(body);
    let walked = match sc.peek() {
        Some(b'{') => sc.open_object(|key, sc| sc.skip().map(|value| member(key, value))),
        _ => sc.skip().map(drop),
    };
    walked.and_then(|()| sc.end()).map_err(WireError::bad_json)
}

fn required<T>(member: Option<T>, key: &str) -> Result<T, String> {
    member.ok_or_else(|| format!("missing \"{key}\""))
}

/// The string member `key` of the object `text`, its other members
/// passed over: the params of every method that names only a session,
/// and the `export_history` reply.
pub fn string_member<'a>(text: &'a str, key: &str) -> Result<Cow<'a, str>, String> {
    let mut found = None;
    Scanner::new(text).open_object(|k, sc| {
        if k == key {
            found = Some(sc.str_token()?);
        } else {
            sc.skip()?;
        }
        Ok(())
    })?;
    required(found, key)
}

/// A parsed request envelope, borrowed from the frame it came in.
#[derive(Debug, Clone)]
pub struct Request<'a> {
    pub id: u64,
    pub method: Cow<'a, str>,
    /// The source text of the `params` member (`{}` when absent), checked
    /// as a JSON document; the method's payload type decodes it.
    pub params: &'a str,
}

impl<'a> Request<'a> {
    /// Appends the envelope up to its params; the caller appends those
    /// (a JSON object's source text) and the closing `}`.
    pub fn begin(out: &mut String, id: u64, method: &str) {
        out.push_str("{\"id\":");
        json::write_u64(out, id);
        out.push_str(",\"method\":");
        json::write_str(out, method);
        out.push_str(",\"params\":");
    }

    /// Serializes the envelope (`params` must already be a JSON
    /// object source string).
    pub fn encode(id: u64, method: &str, params: &str) -> String {
        let mut out = String::with_capacity(params.len() + method.len() + 48);
        Request::begin(&mut out, id, method);
        out.push_str(params);
        out.push('}');
        out
    }

    /// Parses an envelope out of a frame body.
    pub fn decode(body: &'a str) -> Result<Request<'a>, WireError> {
        let (mut id, mut method, mut params) = (None, None, None);
        envelope(body, |key, value| match key {
            "id" => id = Some(value),
            "method" => method = Some(value),
            "params" => params = Some(value),
            _ => {}
        })?;
        let decode = || -> Result<Request<'a>, String> {
            Ok(Request {
                id: Scanner::new(required(id, "id")?).u64()?,
                method: Scanner::new(required(method, "method")?).str_token()?,
                params: params.unwrap_or("{}"),
            })
        };
        decode().map_err(|m| WireError::new(code::BAD_REQUEST, m))
    }
}

/// Appends a success response up to its body; the caller appends the
/// body and the closing `}`.
pub fn begin_ok(out: &mut String, id: u64) {
    out.push_str("{\"id\":");
    json::write_u64(out, id);
    out.push_str(",\"ok\":");
}

/// Serializes a success response.
pub fn encode_ok(id: u64, body: &str) -> String {
    let mut out = String::with_capacity(body.len() + 32);
    begin_ok(&mut out, id);
    out.push_str(body);
    out.push('}');
    out
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

/// A decoded response: the echoed id plus the ok body — its source
/// text, borrowed from the frame — or the error.
#[derive(Debug, Clone)]
pub struct Response<'a> {
    pub id: Option<u64>,
    pub result: Result<&'a str, WireError>,
}

impl<'a> Response<'a> {
    pub fn decode(body: &'a str) -> Result<Response<'a>, WireError> {
        let (mut id, mut ok, mut err) = (None, None, None);
        envelope(body, |key, value| match key {
            "id" => id = Some(value),
            "ok" => ok = Some(value),
            "err" => err = Some(value),
            _ => {}
        })?;
        let id = id.and_then(|id| Scanner::new(id).u64().ok());
        if let Some(ok) = ok {
            return Ok(Response { id, result: Ok(ok) });
        }
        let err = err
            .ok_or_else(|| WireError::new(code::BAD_JSON, "response carries neither ok nor err"))?;
        // Once per failed call: through the tree, any other shape
        // reading as the defaults.
        let err = json::parse(err).unwrap_or(JsonValue::Null);
        let code = err.str("code").unwrap_or("unknown").to_string();
        let message = err.str("message").unwrap_or("").to_string();
        Ok(Response { id, result: Err(WireError { code, message }) })
    }
}

// ---------------------------------------------------------------------------
// Typed payloads
// ---------------------------------------------------------------------------

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
            out.push_str("{\"kind\":\"llamatune\",\"target_dim\":");
            json::write_u64(out, cfg.target_dim as u64);
            out.push_str(",\"projection\":");
            json::write_opt(out, cfg.projection, |out, kind| json::write_str(out, kind.name()));
            out.push_str(",\"special_value_bias\":");
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
            projection: match v.opt_str("projection")? {
                None => None,
                Some("hesbo") => Some(ProjectionKind::Hesbo),
                Some("rembo") => Some(ProjectionKind::Rembo),
                Some(other) => return Err(format!("unknown projection {other:?}")),
            },
            special_value_bias: match v.opt_f64("special_value_bias")? {
                Some(p) if !(0.0..1.0).contains(&p) => {
                    return Err(format!("\"special_value_bias\" must be in [0, 1), got {p}"))
                }
                p => p,
            },
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
        out.push_str(",\"seed\":");
        json::write_u64(&mut out, self.seed);
        out.push_str(",\"iterations\":");
        json::write_u64(&mut out, self.iterations as u64);
        out.push_str(",\"n_init\":");
        json::write_u64(&mut out, self.n_init as u64);
        out.push_str(",\"batch_size\":");
        json::write_u64(&mut out, self.batch_size as u64);
        out.push('}');
        out
    }

    pub fn decode(params: &str) -> Result<CreateSession, WireError> {
        let decode = || -> Result<CreateSession, String> {
            let params = json::parse(params)?;
            let adapter = params.get("adapter").ok_or("missing \"adapter\"")?;
            Ok(CreateSession {
                workload: params.str("workload")?.to_string(),
                adapter: decode_adapter(adapter).map_err(|e| format!("adapter: {e}"))?,
                optimizer: params.str("optimizer")?.to_string(),
                seed: params.u64("seed")?,
                iterations: bounded(&params, "iterations", 0, MAX_ITERATIONS)?,
                n_init: bounded(&params, "n_init", 0, MAX_N_INIT)?,
                batch_size: bounded(&params, "batch_size", 1, MAX_BATCH_SIZE)?,
            })
        };
        decode().map_err(WireError::bad_params)
    }
}

/// `create_session` reply: the canonical session label, whether the
/// session is already finished, and the quarantine preload — the
/// configurations (knob-token lists on the wire) whose recorded trials
/// failed terminally in the replayed prefix, which a resuming client
/// must preload into its local executor before evaluating anything.
#[derive(Debug, Clone)]
pub struct SessionAttached {
    pub session: String,
    pub done: bool,
    pub quarantine: Vec<Config>,
}

impl SessionAttached {
    pub fn encode(&self) -> String {
        let mut out = String::from("{\"session\":");
        json::write_str(&mut out, &self.session);
        out.push_str(if self.done {
            ",\"done\":true,\"quarantine\":"
        } else {
            ",\"done\":false,\"quarantine\":"
        });
        json::write_array(&mut out, &self.quarantine, |out, c| write_config(out, c.values()));
        out.push('}');
        out
    }

    pub fn decode(body: &str) -> Result<SessionAttached, WireError> {
        let config = |tokens: &JsonValue| -> Result<Config, String> {
            let token = |t: &JsonValue| knob_value_from_token(t.as_str().ok_or("bad knob token")?);
            let tokens = tokens.as_array().ok_or("bad quarantine entry")?;
            tokens.iter().map(token).collect::<Result<_, _>>().map(Config::new)
        };
        let decode = || -> Result<SessionAttached, String> {
            let body = json::parse(body)?;
            Ok(SessionAttached {
                session: body.str("session")?.to_string(),
                done: body.bool("done")?,
                quarantine: body
                    .opt_array("quarantine")?
                    .iter()
                    .map(config)
                    .collect::<Result<_, _>>()?,
            })
        };
        decode().map_err(WireError::bad_json)
    }
}

/// One trial of a suggested round: the iteration index and the decoded
/// configuration's knob values (knob tokens on the wire).
#[derive(Debug, Clone, PartialEq)]
pub struct WireTrial {
    pub iteration: usize,
    pub config: Vec<KnobValue>,
}

impl WireTrial {
    /// The configuration to evaluate. Cannot fail since the tokens are
    /// parsed when the reply is decoded; still a `Result` because
    /// `benchmark/` reads it as one.
    pub fn to_config(&self) -> Result<Config, WireError> {
        Ok(Config::new(self.config.clone()))
    }

    fn scan(sc: &mut Scanner<'_>) -> Result<WireTrial, String> {
        let (mut iteration, mut config) = (None, None);
        sc.open_object(|key, sc| {
            match key {
                "iteration" => iteration = Some(sc.u64()? as usize),
                "config" => config = Some(read_config(sc)?),
                _ => drop(sc.skip()?),
            }
            Ok(())
        })?;
        Ok(WireTrial {
            iteration: required(iteration, "iteration")?,
            config: required(config, "config")?,
        })
    }
}

/// `suggest_batch` reply: either the pending round or the news that the
/// session has finished. The round id is the iteration index of the
/// round's first trial — stable across redelivery, which is what makes
/// `report` idempotent.
#[derive(Debug, Clone, PartialEq)]
pub enum SuggestReply {
    Round { round: usize, trials: Vec<WireTrial> },
    Done,
}

impl SuggestReply {
    /// Builds the round form out of the session loop's trials.
    pub fn from_trials(round: usize, trials: &[(usize, Vec<KnobValue>)]) -> SuggestReply {
        let trial = |(iteration, config): &(usize, Vec<KnobValue>)| WireTrial {
            iteration: *iteration,
            config: config.clone(),
        };
        SuggestReply::Round { round, trials: trials.iter().map(trial).collect() }
    }

    /// Appends the reply body, each knob value straight to its token.
    pub fn write(&self, out: &mut String) {
        match self {
            SuggestReply::Done => out.push_str("{\"done\":true}"),
            SuggestReply::Round { round, trials } => {
                out.push_str("{\"round\":");
                json::write_u64(out, *round as u64);
                out.push_str(",\"trials\":");
                json::write_array(out, trials, |out, t| {
                    out.push_str("{\"iteration\":");
                    json::write_u64(out, t.iteration as u64);
                    out.push_str(",\"config\":");
                    write_config(out, &t.config);
                    out.push('}');
                });
                out.push('}');
            }
        }
    }

    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    pub fn decode(body: &str) -> Result<SuggestReply, WireError> {
        let (mut done, mut round, mut trials) = (false, None, None);
        let mut sc = Scanner::new(body);
        let scanned = sc.open_object(|key, sc| {
            match key {
                "done" => done = sc.skip()? == "true",
                // A member of the wrong shape is passed over and its fault
                // kept: `"done":true`, scanned later, may still decide the
                // reply whatever else it holds.
                "round" => round = Some(Scanner::new(sc.skip()?).u64()),
                "trials" => {
                    let mut tried = sc.clone();
                    match tried.vec(WireTrial::scan) {
                        Ok(read) => (*sc, trials) = (tried, Some(Ok(read))),
                        Err(e) => trials = Some(sc.skip().map(|_| Err(e))?),
                    }
                }
                _ => drop(sc.skip()?),
            }
            Ok(())
        });
        let decode = || -> Result<SuggestReply, String> {
            scanned.and_then(|()| sc.end())?;
            if done {
                return Ok(SuggestReply::Done);
            }
            Ok(SuggestReply::Round {
                round: required(round, "round")?? as usize,
                trials: required(trials, "trials")??,
            })
        };
        decode().map_err(WireError::bad_json)
    }
}

/// One evaluated trial result riding back to the daemon: the
/// [`EvalResult`] itself, as the wire spells it. `virtual_ms` is
/// observability-only (never folded into recorded history).
#[derive(Debug, Clone)]
pub struct WireResult(pub EvalResult);

impl WireResult {
    pub fn from_eval(r: &EvalResult) -> WireResult {
        WireResult(r.clone())
    }

    pub fn to_eval(&self) -> EvalResult {
        self.0.clone()
    }

    fn write(&self, out: &mut String) {
        let r = &self.0;
        out.push_str("{\"score\":");
        json::write_opt(out, r.score, json::write_f64);
        out.push_str(",\"metrics\":");
        json::write_f64_array(out, &r.metrics);
        out.push_str(",\"status\":\"");
        out.push_str(r.status.as_str());
        out.push_str("\",\"attempts\":");
        json::write_u64(out, u64::from(r.attempts));
        out.push_str(",\"virtual_ms\":");
        json::write_f64(out, r.virtual_ms);
        out.push('}');
    }

    /// Every member is optional and `null` reads as absent. A result
    /// that is no object at all has no members — the by-key accessors
    /// this replaces found none on it either.
    fn scan(sc: &mut Scanner<'_>) -> Result<WireResult, String> {
        let (mut score, mut metrics, mut status) = (None, Vec::new(), None);
        let (mut attempts, mut virtual_ms) = (1, 0.0);
        if sc.peek() != Some(b'{') {
            sc.skip()?;
        } else {
            sc.open_object(|key, sc| {
                if sc.null() {
                    return Ok(());
                }
                match key {
                    "score" => score = Some(sc.number()?),
                    // `write` can only spell a non-finite metric as `null`
                    // (JSON has nothing else for it); it reads back as NaN,
                    // as in the store's trial record.
                    "metrics" => {
                        metrics =
                            sc.vec(|sc| Ok(if sc.null() { f64::NAN } else { sc.number()? }))?
                    }
                    "status" => status = Some(TrialStatus::parse(&sc.str_token()?)?),
                    "attempts" => attempts = sc.u64()?.min(u64::from(u32::MAX)) as u32,
                    "virtual_ms" => virtual_ms = sc.number()?,
                    _ => drop(sc.skip()?),
                }
                Ok(())
            })?;
        }
        let status = status.unwrap_or(TrialStatus::derived(score));
        Ok(WireResult(EvalResult { score, metrics, status, attempts, virtual_ms }))
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
    /// Appends the request's params.
    pub fn write(&self, out: &mut String) {
        out.push_str("{\"session\":");
        json::write_str(out, &self.session);
        out.push_str(",\"round\":");
        json::write_u64(out, self.round as u64);
        out.push_str(",\"results\":");
        json::write_array(out, &self.results, |out, r| r.write(out));
        out.push('}');
    }

    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    pub fn decode(params: &str) -> Result<Report, WireError> {
        let (mut session, mut round, mut results) = (None, None, None);
        let mut sc = Scanner::new(params);
        let scanned = sc.open_object(|key, sc| {
            match key {
                "session" => session = Some(sc.string()?),
                "round" => round = Some(sc.u64()? as usize),
                "results" => results = Some(sc.vec(WireResult::scan)?),
                _ => drop(sc.skip()?),
            }
            Ok(())
        });
        let decode = || -> Result<Report, String> {
            scanned.and_then(|()| sc.end())?;
            Ok(Report {
                session: required(session, "session")?,
                round: required(round, "round")?,
                results: required(results, "results")?,
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
        out.push_str(",\"trials\":");
        json::write_u64(&mut out, self.trials as u64);
        out.push_str(",\"best_score\":");
        json::write_opt(&mut out, self.best_score, json::write_f64);
        out.push_str(",\"error\":");
        json::write_opt(&mut out, self.error.as_deref(), json::write_str);
        out.push('}');
        out
    }

    pub fn decode(body: &str) -> Result<SessionStatusReply, WireError> {
        let decode = || -> Result<SessionStatusReply, String> {
            let body = json::parse(body)?;
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
/// session's metadata (empty when transfer found nothing or the live
/// session is not in the store yet). A session neither live nor stored
/// is `unknown_session`.
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

    pub fn decode(body: &str) -> Result<WarmStartReply, WireError> {
        let decode = || -> Result<WarmStartReply, String> {
            Ok(WarmStartReply {
                points: json::parse(body)?
                    .opt_array("points")?
                    .iter()
                    .map(|p| p.as_f64_array().ok_or("bad warm-start point"))
                    .collect::<Result<_, _>>()?,
            })
        };
        decode().map_err(WireError::bad_json)
    }
}

/// The codec this module had before frames were read and written in
/// place, kept as the oracle the one-pass codec is held to: a frame is
/// parsed into a [`JsonValue`] tree, the envelope clones its payload's
/// subtree out of it, payloads read their members by key, and a knob
/// value is a `String` token on the way in and on the way out. The bodies
/// are the parent commit's, with one repair: its knob-token reader split a
/// token after its first *byte* and panicked on `"é"`; an oracle that
/// panics cannot say what the answer is, so here that token is the unknown
/// tag it always should have been.
#[cfg(test)]
mod reference {
    use super::{code, WireError};
    use llamatune::session::TrialStatus;
    use llamatune_obs::json::{self, JsonValue};
    use llamatune_space::{Config, KnobValue};
    use std::fmt::Write as _;

    pub fn knob_value_to_token(v: &KnobValue) -> String {
        match v {
            KnobValue::Int(x) => format!("i{x}"),
            KnobValue::Float(x) => format!("f{x}"),
            KnobValue::Cat(x) => format!("c{x}"),
        }
    }

    pub fn knob_value_from_token(s: &str) -> Result<KnobValue, String> {
        let (tag, rest) = s.split_at_checked(s.len().min(1)).unwrap_or(("", s));
        match tag {
            "i" => {
                rest.parse().map(KnobValue::Int).map_err(|e| format!("bad int token {s:?}: {e}"))
            }
            "f" => rest
                .parse()
                .map(KnobValue::Float)
                .map_err(|e| format!("bad float token {s:?}: {e}")),
            "c" => {
                rest.parse().map(KnobValue::Cat).map_err(|e| format!("bad cat token {s:?}: {e}"))
            }
            _ => Err(format!("unknown knob token {s:?}")),
        }
    }

    #[derive(Debug, Clone)]
    pub struct Request {
        pub id: u64,
        pub method: String,
        pub params: JsonValue,
    }

    impl Request {
        pub fn encode(id: u64, method: &str, params: &str) -> String {
            format!("{{\"id\":{id},\"method\":\"{}\",\"params\":{params}}}", json::escape(method))
        }

        pub fn decode(body: &str) -> Result<Request, WireError> {
            let bad_request = |m: String| WireError::new(code::BAD_REQUEST, m);
            let doc = json::parse(body).map_err(WireError::bad_json)?;
            let id = doc.u64("id").map_err(bad_request)?;
            let method = doc.str("method").map_err(bad_request)?.to_string();
            let params = doc.get("params").cloned().unwrap_or(JsonValue::Obj(Vec::new()));
            Ok(Request { id, method, params })
        }
    }

    pub fn encode_ok(id: u64, body: &str) -> String {
        format!("{{\"id\":{id},\"ok\":{body}}}")
    }

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
            let err = doc.get("err").ok_or_else(|| {
                WireError::new(code::BAD_JSON, "response carries neither ok nor err")
            })?;
            let code = err.str("code").unwrap_or("unknown").to_string();
            let message = err.str("message").unwrap_or("").to_string();
            Ok(Response { id, result: Err(WireError { code, message }) })
        }
    }

    #[derive(Debug, Clone)]
    pub struct WireTrial {
        pub iteration: usize,
        pub config: Vec<String>,
    }

    impl WireTrial {
        pub fn to_config(&self) -> Result<Config, WireError> {
            let values: Result<Vec<KnobValue>, String> =
                self.config.iter().map(|t| knob_value_from_token(t)).collect();
            values.map(Config::new).map_err(WireError::bad_json)
        }
    }

    #[derive(Debug, Clone)]
    pub enum SuggestReply {
        Round { round: usize, trials: Vec<WireTrial> },
        Done,
    }

    impl SuggestReply {
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
                        json::write_array(out, &t.config, |out, s| json::write_str(out, s));
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
                    let tokens = t.array("config")?.iter().map(|v| v.as_str().map(str::to_string));
                    Ok(WireTrial {
                        iteration: t.u64("iteration")? as usize,
                        config: tokens
                            .collect::<Option<_>>()
                            .ok_or("\"config\" is not an array of strings")?,
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

    #[derive(Debug, Clone)]
    pub struct WireResult {
        pub score: Option<f64>,
        pub metrics: Vec<f64>,
        pub status: TrialStatus,
        pub attempts: u32,
        pub virtual_ms: f64,
    }

    impl WireResult {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"id\":1}").unwrap();
        write_frame(&mut buf, "{\"id\":2}").unwrap();
        let (mut r, mut frame) = (std::io::Cursor::new(buf), Vec::new());
        assert_eq!(read_frame(&mut r, MAX_FRAME, &mut frame).unwrap(), "{\"id\":1}");
        assert_eq!(read_frame(&mut r, MAX_FRAME, &mut frame).unwrap(), "{\"id\":2}");
        assert!(matches!(read_frame(&mut r, MAX_FRAME, &mut frame), Err(FrameError::Closed)));
    }

    #[test]
    fn truncated_and_oversized_frames_are_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"id\":1}").unwrap();
        buf.truncate(buf.len() - 3);
        let (mut r, mut frame) = (std::io::Cursor::new(buf), Vec::new());
        assert!(matches!(read_frame(&mut r, MAX_FRAME, &mut frame), Err(FrameError::Truncated)));

        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME as u32 + 1).to_be_bytes());
        let mut r = std::io::Cursor::new(buf);
        assert!(matches!(read_frame(&mut r, MAX_FRAME, &mut frame), Err(FrameError::Oversized(_))));
    }

    #[test]
    fn request_envelopes_round_trip() {
        let body = Request::encode(7, "suggest_batch", "{\"session\":\"a/b/c/s1\"}");
        let req = Request::decode(&body).unwrap();
        assert_eq!(req.id, 7);
        assert_eq!(req.method, "suggest_batch");
        assert_eq!(req.params, "{\"session\":\"a/b/c/s1\"}");
        assert_eq!(string_member(req.params, "session").unwrap(), "a/b/c/s1");
    }

    #[test]
    fn create_session_round_trips_every_adapter_form() {
        for adapter in [
            AdapterKind::Identity,
            AdapterKind::LlamaTune(LlamaTuneConfig::default()),
            AdapterKind::LlamaTune(LlamaTuneConfig {
                target_dim: 8,
                projection: Some(ProjectionKind::Rembo),
                special_value_bias: None,
                bucket_count: None,
            }),
            AdapterKind::LlamaTune(LlamaTuneConfig { projection: None, ..Default::default() }),
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
            let decoded = CreateSession::decode(&req.encode()).unwrap();
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
        let decode = |req: &CreateSession| CreateSession::decode(&req.encode());
        let with_bias = |p: f64| CreateSession {
            adapter: AdapterKind::LlamaTune(LlamaTuneConfig {
                special_value_bias: Some(p),
                ..LlamaTuneConfig::default()
            }),
            ..at_the_bounds.clone()
        };
        assert!(decode(&at_the_bounds).is_ok());
        assert!(
            decode(&CreateSession { iterations: 0, n_init: 0, ..at_the_bounds.clone() }).is_ok()
        );
        assert!(decode(&with_bias(0.0)).is_ok());
        assert!(decode(&with_bias(0.999)).is_ok());
        for (field, past) in [
            ("iterations", CreateSession { iterations: 100_001, ..at_the_bounds.clone() }),
            ("n_init", CreateSession { n_init: 100_001, ..at_the_bounds.clone() }),
            ("batch_size", CreateSession { batch_size: 1_025, ..at_the_bounds.clone() }),
            ("special_value_bias", with_bias(1.0)),
            ("special_value_bias", with_bias(-0.1)),
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
                WireResult(EvalResult {
                    score: Some(1234.5678901234567),
                    metrics: vec![0.1, 2.0e-9],
                    status: TrialStatus::Ok,
                    attempts: 1,
                    virtual_ms: 12.5,
                }),
                WireResult(EvalResult {
                    score: None,
                    metrics: vec![],
                    status: TrialStatus::Crashed,
                    attempts: 3,
                    virtual_ms: 0.0,
                }),
            ],
        };
        let decoded = Report::decode(&report.encode()).unwrap();
        assert_eq!(decoded.round, 4);
        assert_eq!(decoded.results[0].0.score, report.results[0].0.score);
        assert_eq!(decoded.results[0].0.metrics, report.results[0].0.metrics);
        assert_eq!(decoded.results[1].0.status, TrialStatus::Crashed);
        assert_eq!(decoded.results[1].0.attempts, 3);
    }

    /// An evaluator may hand back a metric the DBMS could not produce.
    /// The store keeps such a trial; the wire must carry it there.
    #[test]
    fn non_finite_metrics_round_trip_as_nan() {
        let report = Report {
            session: "w/a/o/s1".into(),
            round: 0,
            results: vec![WireResult(EvalResult {
                score: Some(10.0),
                metrics: vec![1.0, f64::NAN, f64::INFINITY],
                status: TrialStatus::Ok,
                attempts: 1,
                virtual_ms: 0.0,
            })],
        };
        let encoded = report.encode();
        assert!(encoded.contains("\"metrics\":[1,null,null]"), "{encoded}");
        let decoded = Report::decode(&encoded).unwrap();
        let metrics = &decoded.results[0].0.metrics;
        assert_eq!(metrics[0], 1.0);
        assert!(metrics[1].is_nan() && metrics[2].is_nan(), "{metrics:?}");
        // Anything else in the array is still refused.
        let bad = encoded.replace("null,null", "\"x\",null");
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

/// The one-pass codec against [`reference`]: the same bytes out, the same
/// values in, the same refusals with the same codes — over generated
/// messages, over the same messages re-rendered (members reordered,
/// unknown members added), over field-level mutations of them, and over
/// raw bytes.
#[cfg(test)]
mod oracle {
    use super::reference as old;
    use super::*;
    use proptest::prelude::*;

    const CODES: [&str; 11] = [
        code::BAD_JSON,
        code::BAD_FRAME,
        code::BAD_REQUEST,
        code::UNKNOWN_METHOD,
        code::BAD_PARAMS,
        code::UNKNOWN_SESSION,
        code::SESSION_FAILED,
        code::ROUND_CONFLICT,
        code::SHUTTING_DOWN,
        code::TIMEOUT,
        code::STORE_ERROR,
    ];

    type Words<'w> = &'w mut dyn Iterator<Item = u64>;

    fn word(words: Words) -> u64 {
        words.next().expect("enough words")
    }

    /// Floats of every kind a `f64` has: small, huge, subnormal, negative
    /// zero, non-finite.
    fn float(words: Words) -> f64 {
        match word(words) % 8 {
            0 => (word(words) % 1000) as f64 / 8.0,
            1 => f64::from_bits(word(words) % (1 << 52)), // subnormal
            2 => [f64::NAN, f64::INFINITY, -0.0, f64::MAX, f64::MIN_POSITIVE]
                [word(words) as usize % 5],
            _ => f64::from_bits(word(words)),
        }
    }

    fn knob(words: Words) -> KnobValue {
        match word(words) % 3 {
            0 => KnobValue::Int(word(words) as i64 >> (word(words) % 64)),
            1 => KnobValue::Float(float(words)),
            _ => KnobValue::Cat((word(words) % 40) as usize),
        }
    }

    fn trials(words: Words, max_knobs: u64) -> Vec<(usize, Vec<KnobValue>)> {
        let (n, knobs) = (1 + word(words) % 8, word(words) % (max_knobs + 1));
        let first = (word(words) % 5000) as usize;
        (0..n as usize).map(|i| (first + i, (0..knobs).map(|_| knob(words)).collect())).collect()
    }

    fn result(words: Words, max_metrics: u64) -> EvalResult {
        const STATUSES: [TrialStatus; 4] = [
            TrialStatus::Ok,
            TrialStatus::Crashed,
            TrialStatus::TimedOut,
            TrialStatus::Quarantined,
        ];
        EvalResult {
            score: (!word(words).is_multiple_of(4)).then(|| float(words)),
            metrics: (0..word(words) % (max_metrics + 1)).map(|_| float(words)).collect(),
            status: STATUSES[word(words) as usize % 4],
            attempts: if word(words).is_multiple_of(2) { 1 } else { 1 + (word(words) % 9) as u32 },
            virtual_ms: float(words),
        }
    }

    fn session(words: Words) -> String {
        const PARTS: [&str; 6] = ["ycsb_a", "/", "s1", "é\"", "\\", "\n"];
        (0..word(words) % 6).map(|_| PARTS[word(words) as usize % 6]).collect()
    }

    fn old_result(r: &EvalResult) -> old::WireResult {
        old::WireResult {
            score: r.score,
            metrics: r.metrics.clone(),
            status: r.status,
            attempts: r.attempts,
            virtual_ms: r.virtual_ms,
        }
    }

    // -- What a decoded message is, in a form the two codecs share. Floats
    // -- by their bits: a NaN is a value like any other here.

    fn knob_bits(v: &KnobValue) -> (u8, u64) {
        match v {
            KnobValue::Int(x) => (0, *x as u64),
            KnobValue::Float(x) => (1, x.to_bits()),
            KnobValue::Cat(x) => (2, *x as u64),
        }
    }

    type Round = Option<(usize, Vec<(usize, Vec<(u8, u64)>)>)>;
    type Answer<T> = Result<T, String>;

    fn new_reply(frame: &str) -> Answer<(Option<u64>, Result<Round, WireError>)> {
        let resp = Response::decode(frame).map_err(|e| e.code)?;
        let round = |body| -> Result<Round, WireError> {
            Ok(match SuggestReply::decode(body)? {
                SuggestReply::Done => None,
                SuggestReply::Round { round, trials } => Some((
                    round,
                    trials
                        .iter()
                        .map(|t| {
                            Ok((
                                t.iteration,
                                t.to_config()?.values().iter().map(knob_bits).collect(),
                            ))
                        })
                        .collect::<Result<_, WireError>>()?,
                )),
            })
        };
        match resp.result {
            Ok(body) => Ok((resp.id, Ok(round(body).map_err(|e| e.code)?))),
            Err(e) => Ok((resp.id, Err(e))),
        }
    }

    fn old_reply(frame: &str) -> Answer<(Option<u64>, Result<Round, WireError>)> {
        let resp = old::Response::decode(frame).map_err(|e| e.code)?;
        let round = |body| -> Result<Round, WireError> {
            Ok(match old::SuggestReply::decode(body)? {
                old::SuggestReply::Done => None,
                old::SuggestReply::Round { round, trials } => Some((
                    round,
                    trials
                        .iter()
                        .map(|t| {
                            Ok((
                                t.iteration,
                                t.to_config()?.values().iter().map(knob_bits).collect(),
                            ))
                        })
                        .collect::<Result<_, WireError>>()?,
                )),
            })
        };
        match resp.result {
            Ok(body) => Ok((resp.id, Ok(round(&body).map_err(|e| e.code)?))),
            Err(e) => Ok((resp.id, Err(e))),
        }
    }

    type Results = Vec<(Option<u64>, Vec<u64>, TrialStatus, u32, u64)>;
    type Reported = (u64, String, Option<String>, (String, usize, Results));

    fn result_bits(
        score: Option<f64>,
        metrics: &[f64],
        status: TrialStatus,
        attempts: u32,
        virtual_ms: f64,
    ) -> (Option<u64>, Vec<u64>, TrialStatus, u32, u64) {
        let metrics = metrics.iter().map(|m| m.to_bits()).collect();
        (score.map(f64::to_bits), metrics, status, attempts, virtual_ms.to_bits())
    }

    /// A request frame read as the daemon reads a `report` — and, on the
    /// way, as it reads the params of a method that names only a session.
    fn new_report(frame: &str) -> Answer<Reported> {
        let req = Request::decode(frame).map_err(|e| e.code)?;
        let session = string_member(req.params, "session").ok().map(Cow::into_owned);
        let report = Report::decode(req.params).map_err(|e| e.code)?;
        let bits = |r: &WireResult| {
            result_bits(r.0.score, &r.0.metrics, r.0.status, r.0.attempts, r.0.virtual_ms)
        };
        let results = report.results.iter().map(bits).collect();
        Ok((req.id, req.method.into_owned(), session, (report.session, report.round, results)))
    }

    fn old_report(frame: &str) -> Answer<Reported> {
        let req = old::Request::decode(frame).map_err(|e| e.code)?;
        let session = req.params.str("session").ok().map(str::to_string);
        let report = old::Report::decode(&req.params).map_err(|e| e.code)?;
        let bits = |r: &old::WireResult| {
            result_bits(r.score, &r.metrics, r.status, r.attempts, r.virtual_ms)
        };
        let results = report.results.iter().map(bits).collect();
        Ok((req.id, req.method, session, (report.session, report.round, results)))
    }

    /// Both codecs on one frame, read both ways: neither panics, they
    /// agree on acceptance, on every accepted value, and on the code of
    /// every refusal, which is one of the protocol's.
    fn agree(frame: &str) {
        let (reply, report) = (new_reply(frame), new_report(frame));
        assert_eq!(reply, old_reply(frame), "as a reply: {frame}");
        assert_eq!(report, old_report(frame), "as a report: {frame}");
        for refusal in [reply.err(), report.err()].into_iter().flatten() {
            assert!(CODES.contains(&refusal.as_str()), "{refusal} refusing {frame}");
        }
    }

    fn write_value(out: &mut String, v: &JsonValue) {
        match v {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) => json::write_f64(out, *n),
            JsonValue::Str(s) => json::write_str(out, s),
            JsonValue::Arr(items) => json::write_array(out, items, write_value),
            JsonValue::Obj(members) => {
                json::write_object(out, members.iter().map(|(k, v)| (k, v)), write_value)
            }
        }
    }

    fn rendered(v: &JsonValue) -> String {
        let mut out = String::new();
        write_value(&mut out, v);
        out
    }

    /// Something of another type than whatever it replaces.
    fn stray(words: Words) -> JsonValue {
        match word(words) % 9 {
            0 => JsonValue::Null,
            1 => JsonValue::Bool(word(words).is_multiple_of(2)),
            2 => JsonValue::Num((word(words) % 7) as f64 - 2.5),
            3 => JsonValue::Num(f64::INFINITY), // renders as `null`
            4 => JsonValue::Str(
                ["é", "i1", "ok", "f1e999", ""][word(words) as usize % 5].to_string(),
            ),
            5 => JsonValue::Arr(vec![JsonValue::Num(1.0), JsonValue::Str("cé".to_string())]),
            6 => JsonValue::Arr(Vec::new()),
            7 => JsonValue::Obj(vec![("done".to_string(), JsonValue::Bool(true))]),
            _ => JsonValue::Obj(Vec::new()),
        }
    }

    /// Every object of `v` with its members in another order and, now and
    /// then, a member nobody knows — nothing a reader of an open document
    /// may notice.
    fn reordered(v: &mut JsonValue, words: Words) {
        match v {
            JsonValue::Arr(items) => items.iter_mut().for_each(|v| reordered(v, words)),
            JsonValue::Obj(members) => {
                members.iter_mut().for_each(|(_, v)| reordered(v, words));
                if word(words).is_multiple_of(3) {
                    members.push((format!("x{}", word(words) % 3), stray(words)));
                }
                for i in (1..members.len()).rev() {
                    members.swap(i, word(words) as usize % (i + 1));
                }
            }
            _ => {}
        }
    }

    /// The paths of every value in `v` (root first), for picking one.
    fn paths(v: &JsonValue, at: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        out.push(at.clone());
        let children: Vec<&JsonValue> = match v {
            JsonValue::Arr(items) => items.iter().collect(),
            JsonValue::Obj(members) => members.iter().map(|(_, v)| v).collect(),
            _ => Vec::new(),
        };
        for (i, child) in children.into_iter().enumerate() {
            at.push(i);
            paths(child, at, out);
            at.pop();
        }
    }

    fn child(v: &mut JsonValue, i: usize) -> &mut JsonValue {
        match v {
            JsonValue::Arr(items) => &mut items[i],
            JsonValue::Obj(members) => &mut members[i].1,
            _ => unreachable!("paths only descend into containers"),
        }
    }

    /// One field-level fault somewhere in `v`: a value retyped, a member
    /// (or element) dropped, duplicated, or renamed onto its neighbour.
    fn mutated(v: &mut JsonValue, words: Words) {
        let mut all = Vec::new();
        paths(v, &mut Vec::new(), &mut all);
        let path = &all[word(words) as usize % all.len()];
        let Some((&last, parents)) = path.split_last() else {
            *v = stray(words);
            return;
        };
        let parent = parents.iter().fold(v, |v, &i| child(v, i));
        match (word(words) % 5, parent) {
            (0, parent) => *child(parent, last) = stray(words),
            (1, JsonValue::Arr(items)) => drop(items.remove(last)),
            (1, JsonValue::Obj(members)) => drop(members.remove(last)),
            (2, JsonValue::Arr(items)) => items.insert(last, items[last].clone()),
            (2, JsonValue::Obj(members)) => members.insert(last, members[last].clone()),
            (3, JsonValue::Obj(members)) => {
                members[last].0 = members[(last + 1) % members.len()].0.clone()
            }
            (4, JsonValue::Obj(members)) => {
                members.insert(last, ("done".to_string(), JsonValue::Bool(true)))
            }
            (_, parent) => *child(parent, last) = stray(words),
        }
    }

    proptest! {
        /// (i) Generated messages: the bytes are the reference's, the values
        /// read back are equal, and encode ∘ decode is the identity —
        /// whatever order the members come in and whatever else rides along.
        #[test]
        fn valid_messages_are_coded_byte_for_byte(
            words in proptest::collection::vec(any::<u64>(), 8192)
        ) {
            let words: Words = &mut words.into_iter();
            let (id, trials) = (word(words) >> (word(words) % 64), trials(words, 200));
            let round = trials[0].0;
            let reply = SuggestReply::from_trials(round, &trials);
            let body = reply.encode();
            prop_assert_eq!(&body, &old::SuggestReply::from_trials(round, &trials).encode());
            let frame = encode_ok(id, &body);
            prop_assert_eq!(&frame, &old::encode_ok(id, &body));
            let mut framed = String::new();
            begin_ok(&mut framed, id);
            reply.write(&mut framed);
            framed.push('}');
            prop_assert_eq!(&framed, &frame);
            let decoded = SuggestReply::decode(Response::decode(&frame).unwrap().result.unwrap());
            prop_assert_eq!(decoded.unwrap().encode(), body);
            agree(&frame);
            agree(&encode_ok(id, "{\"done\":true}"));

            let results: Vec<EvalResult> =
                (0..1 + word(words) % 8).map(|_| result(words, 30)).collect();
            let report = Report {
                session: session(words),
                round,
                results: results.iter().map(WireResult::from_eval).collect(),
            };
            let params = report.encode();
            let reference = old::Report {
                session: report.session.clone(),
                round,
                results: results.iter().map(old_result).collect(),
            };
            prop_assert_eq!(&params, &reference.encode());
            let method = ["report", "suggest_batch", "é\"\n"][word(words) as usize % 3];
            let request = Request::encode(id, method, &params);
            prop_assert_eq!(&request, &old::Request::encode(id, method, &params));
            let mut framed = String::new();
            Request::begin(&mut framed, id, method);
            report.write(&mut framed);
            framed.push('}');
            prop_assert_eq!(&framed, &request);
            // A non-finite number is written `null`, and a `null` reads back
            // as itself everywhere but in `virtual_ms` (absent: 0): encode ∘
            // decode is the identity where that is finite, and from the
            // second trip on everywhere.
            let again = Report::decode(Request::decode(&request).unwrap().params).unwrap().encode();
            if results.iter().all(|r| r.virtual_ms.is_finite()) {
                prop_assert_eq!(&again, &params);
            }
            prop_assert_eq!(Report::decode(&again).unwrap().encode(), again);
            agree(&request);

            for frame in [frame, request] {
                let mut doc = json::parse(&frame).unwrap();
                reordered(&mut doc, words);
                agree(&rendered(&doc));
            }
        }

        /// (ii) One field-level fault in a valid frame, then the frame cut
        /// at every byte.
        #[test]
        fn mutated_frames_are_refused_alike(
            words in proptest::collection::vec(any::<u64>(), 4096)
        ) {
            let words: Words = &mut words.into_iter();
            let (id, trials) = (word(words) % 100, trials(words, 6));
            let reply = encode_ok(id, &SuggestReply::from_trials(trials[0].0, &trials).encode());
            let report = Report {
                session: session(words),
                round: trials[0].0,
                results: (0..1 + word(words) % 3).map(|_| WireResult(result(words, 3))).collect(),
            };
            let request = Request::encode(id, "report", &report.encode());
            for frame in [reply, request] {
                let mut doc = json::parse(&frame).unwrap();
                for _ in 0..1 + word(words) % 2 {
                    mutated(&mut doc, words);
                }
                let frame = rendered(&doc);
                agree(&frame);
                // Every byte of a frame of ordinary size; a subnormal float
                // is three hundred digits, and those are sampled.
                let step = frame.len() / 512 + 1;
                for cut in (0..frame.len()).step_by(step).filter(|&c| frame.is_char_boundary(c)) {
                    agree(&frame[..cut]);
                }
            }
        }

        /// (ii) Raw bytes, as far as they are text at all.
        #[test]
        fn raw_bytes_are_refused_alike(words in proptest::collection::vec(any::<u64>(), 64)) {
            let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            agree(&String::from_utf8_lossy(&bytes[..words[0] as usize % bytes.len()]));
            const ALPHABET: &[u8] = b"{}[]\",:\\ 0-1.e+tfn\"\"{}[]::,,";
            let text: String =
                words.iter().map(|w| ALPHABET[*w as usize % ALPHABET.len()] as char).collect();
            agree(&text);
        }
    }

    /// The faults a generator does not stumble on.
    #[test]
    fn awkward_frames_are_refused_alike() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let deep = format!("{{\"id\":1,\"ok\":{},\"params\":{}}}", nest(127), nest(127));
        let too_deep = format!("{{\"id\":1,\"ok\":{},\"params\":{}}}", nest(128), nest(128));
        for frame in [
            deep.as_str(),
            too_deep.as_str(),
            r#"{"id":1,"ok":{"round":0,"trials":[{"iteration":0,"config":["é"]}]}}"#,
            r#"{"id":1,"ok":{"round":0,"trials":[{"iteration":0,"config":["i1","f1e999","c0"]}]}}"#,
            r#"{"id":1,"ok":{"round":1e999,"trials":[]}}"#,
            r#"{"id":1,"ok":{"round":"x","trials":7,"done":true}}"#,
            r#"{"id":1,"ok":{"round":"x","trials":7,"done":false}}"#,
            r#"{"id":1,"ok":{"round":2,"trials":[{"iteration":2,"config":[],"config":[]}]}}"#,
            r#"{"id":1.5,"ok":{}}"#,
            r#"{"id":1,"err":7}"#,
            r#"{"id":1,"err":{"code":7,"message":null}}"#,
            r#"{"id":1,"ok":null,"err":{"code":"timeout"}}"#,
            r#"{"id":1,"method":"report","params":{"session":"s","round":0,"results":[5,null,"x",[]]}}"#,
            r#"{"id":1,"method":"report","params":{"session":"s","round":0,"results":[{"score":1e999,"metrics":[null,1e999,-0.0],"attempts":1e30}]}}"#,
            r#"{"id":1,"method":"report","params":{"session":"s","round":0,"results":[{"attempts":5000000000}]}}"#,
            r#"{"id":1,"method":"report","params":{"session":"s","round":0,"results":[{"status":"running"}]}}"#,
            r#"{"id":1,"method":"report","params":{"session":"s","round":0,"results":[{"status":null,"score":null,"metrics":null,"attempts":null,"virtual_ms":null}]}}"#,
            r#"{"id":1,"method":"report","params":{"session":"s","round":-1,"results":[]}}"#,
            r#"{"id":1,"method":"report","params":[]}"#,
            r#"{"id":1,"method":"report"}"#,
            r#"{"id":1,"method":7,"params":{}}"#,
            r#"{"id":1,"method":"m","id":2}"#,
            r#"[1,2]"#,
            "42",
            "",
            " { \"id\" : 1 , \"ok\" : { \"done\" : true } } ",
        ] {
            agree(frame);
        }
        assert_eq!(new_reply(&deep).unwrap_err(), code::BAD_JSON);
        assert_eq!(new_reply(&too_deep).unwrap_err(), code::BAD_JSON);
    }

    /// A knob token that opens with a multi-byte character is refused, not
    /// split in the middle of it (the reader at the parent commit panicked).
    #[test]
    fn a_non_ascii_knob_token_is_bad_json_not_a_panic() {
        let body = r#"{"round":0,"trials":[{"iteration":0,"config":["é"]}]}"#;
        assert_eq!(SuggestReply::decode(body).unwrap_err().code, code::BAD_JSON);
        let attached = r#"{"session":"s","done":false,"quarantine":[["i1","é1"]]}"#;
        assert_eq!(SessionAttached::decode(attached).unwrap_err().code, code::BAD_JSON);
    }
}
