//! The TCP daemon: accept loop, per-connection worker threads, and
//! request dispatch into the [`SessionRegistry`].
//!
//! No async runtime: the protocol is request/response over long-lived
//! connections, and a session is a value in the registry that the
//! connection thread of the request at hand steps — so a plain
//! thread-per-connection loop over [`std::net::TcpListener`] is the
//! only place this crate spawns a thread, and each one spends its life
//! blocked on a socket read, cheap to park. A session nobody is talking
//! to costs its optimizer state and nothing else.

use crate::session::{Attach, SessionRegistry};
use crate::wire::{
    self, encode_err, read_frame, write_frame, CreateSession, FrameError, Report, Request,
    SessionAttached, WireError,
};
use llamatune_obs::json;
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Largest frame body accepted from a client, in bytes.
    pub max_frame: usize,
    /// Socket read timeout per connection; `None` blocks forever. An
    /// idle timeout closes the connection cleanly (clients reconnect
    /// and re-attach — attachment is idempotent by design).
    pub read_timeout: Option<Duration>,
    /// Bounds nothing: `suggest_batch` reads a round that is already
    /// drawn and never waits (it once blocked this long for a session
    /// thread to publish one). Still a field because `benchmark/` sets
    /// it; it goes, with the `timeout` parameter of
    /// [`SessionRegistry::suggest`], in the next PR that may edit
    /// `benchmark/`.
    pub suggest_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_frame: wire::MAX_FRAME,
            read_timeout: None,
            suggest_timeout: Duration::from_secs(60),
        }
    }
}

/// A remote handle onto a bound daemon: address + shutdown trigger.
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
}

impl ServerHandle {
    /// Asks the accept loop to stop. The loop notices on its next
    /// wakeup: a throwaway self-connection unblocks a parked `accept`.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }

    /// Whether shutdown has been requested.
    pub(crate) fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

/// The daemon: a bound listener plus the session registry it serves.
pub struct Server {
    listener: TcpListener,
    registry: Arc<SessionRegistry>,
    cfg: ServerConfig,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) over `registry`.
    pub fn bind(
        addr: &str,
        registry: Arc<SessionRegistry>,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server { listener, registry, cfg, stop: Arc::new(AtomicBool::new(false)) })
    }

    /// The bound address (the ephemeral port, after `bind("…:0")`).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop this daemon from any thread.
    pub fn handle(&self) -> std::io::Result<ServerHandle> {
        Ok(ServerHandle { addr: self.local_addr()?, stop: self.stop.clone() })
    }

    /// Runs the accept loop until a handle (or a `shutdown` request)
    /// stops it, then closes the registry to new rounds and joins the
    /// connection threads. Sessions stopped mid-round stay `Running` in
    /// the store — which holds every round a `report` was acknowledged
    /// for — and resume under the next daemon over the same backend.
    pub fn serve(self) -> std::io::Result<()> {
        let mut workers = Vec::new();
        for conn in self.listener.incoming() {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = match conn {
                Ok(s) => s,
                // A failed accept (peer vanished between SYN and
                // accept) is the peer's problem, not the daemon's.
                Err(_) => continue,
            };
            let registry = self.registry.clone();
            let cfg = self.cfg.clone();
            let stop = self.stop.clone();
            let addr = self.listener.local_addr()?;
            workers.push(std::thread::spawn(move || {
                serve_connection(stream, &registry, &cfg, &ServerHandle { addr, stop });
            }));
        }
        self.registry.shutdown_all();
        for w in workers {
            let _ = w.join();
        }
        Ok(())
    }
}

/// One connection's request loop. Close conditions: clean peer close,
/// transport error, or a frame so damaged resynchronization is
/// impossible (truncated/oversized). A body that is not JSON — not even
/// UTF-8 — inside a well-formed frame keeps the connection: framing
/// still delimits the next request, so the daemon answers a structured
/// error and reads on.
fn serve_connection(
    stream: TcpStream,
    registry: &SessionRegistry,
    cfg: &ServerConfig,
    handle: &ServerHandle,
) {
    // Between frames the socket wakes every poll interval so the thread
    // notices daemon shutdown (and the configured idle limit) even with
    // a silent peer. Within a frame, a timeout is a truncation.
    const STOP_POLL: Duration = Duration::from_millis(200);
    let poll = cfg.read_timeout.map_or(STOP_POLL, |t| t.min(STOP_POLL));
    let _ = stream.set_read_timeout(Some(poll));
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(write_half);
    let mut idle = Duration::ZERO;
    // The frame being read and the frame being written, one buffer
    // each for the life of the connection.
    let (mut frame, mut reply) = (Vec::new(), String::new());

    loop {
        if handle.is_stopped() {
            return;
        }
        let req = match read_frame(&mut reader, cfg.max_frame, &mut frame) {
            Ok(body) => Request::decode(body),
            Err(e @ FrameError::NotUtf8) => Err(WireError::bad_json(e.to_string())),
            Err(FrameError::TimedOut) => {
                idle += poll;
                if cfg.read_timeout.is_some_and(|limit| idle >= limit) {
                    // Idle past the configured limit: close cleanly.
                    // The client reconnects and re-attaches (attach is
                    // idempotent), losing nothing.
                    return;
                }
                continue;
            }
            Err(FrameError::Closed) => return,
            Err(e @ (FrameError::Truncated | FrameError::Oversized(_))) => {
                // The stream position is unknowable now — answer once,
                // structured, and hang up.
                let err = WireError::new(wire::code::BAD_FRAME, e.to_string());
                let _ = write_frame(&mut writer, &encode_err(None, &err));
                return;
            }
            Err(FrameError::Io(_)) => return,
        };
        idle = Duration::ZERO;
        let req = match req {
            Ok(req) => req,
            Err(err) => {
                if write_frame(&mut writer, &encode_err(None, &err)).is_err() {
                    return;
                }
                continue;
            }
        };
        reply.clear();
        wire::begin_ok(&mut reply, req.id);
        match dispatch(registry, cfg, &req, &mut reply) {
            Ok(()) => reply.push('}'),
            Err(err) => reply = encode_err(Some(req.id), &err),
        }
        if write_frame(&mut writer, &reply).is_err() {
            return;
        }
        if req.method == "shutdown" {
            handle.shutdown();
            return;
        }
    }
}

/// Routes one request into the registry and appends the `ok` body to
/// `out`, behind the envelope the caller opened there.
fn dispatch(
    registry: &SessionRegistry,
    cfg: &ServerConfig,
    req: &Request<'_>,
    out: &mut String,
) -> Result<(), WireError> {
    let session = || wire::string_member(req.params, "session").map_err(WireError::bad_params);
    match &*req.method {
        "ping" | "shutdown" => out.push_str("{}"),
        "create_session" => {
            let create = CreateSession::decode(req.params)?;
            let reply = match registry.attach(&create)? {
                Attach::Done { label } => {
                    SessionAttached { session: label, done: true, quarantine: Vec::new() }
                }
                Attach::Live { label, quarantine } => {
                    SessionAttached { session: label, done: false, quarantine }
                }
            };
            out.push_str(&reply.encode());
        }
        "suggest_batch" => registry.suggest(&session()?, cfg.suggest_timeout)?.write(out),
        "report" => {
            registry.report(&Report::decode(req.params)?)?;
            out.push_str("{}");
        }
        "warm_start_query" => {
            let points = registry.warm_points(&session()?)?;
            out.push_str(&wire::WarmStartReply { points }.encode());
        }
        "session_status" => out.push_str(&registry.status(&session()?)?.encode()),
        "export_history" => {
            out.push_str("{\"jsonl\":\"");
            json::write_escaped(out, &registry.export(&session()?)?);
            out.push_str("\"}");
        }
        other => {
            return Err(WireError::new(
                wire::code::UNKNOWN_METHOD,
                format!("unknown method {other:?}"),
            ))
        }
    }
    Ok(())
}
