//! Session multiplexing: the registry of live tuning sessions and the
//! remote-trial executor that bridges each session's driver thread to
//! whichever client connection currently evaluates its trials.
//!
//! One daemon owns one shared [`StoreBackend`] and holds **one**
//! [`TrialStore`] handle on it: fleet writer `svc`, opened by the first
//! request that needs the store (an open failure is that request's
//! `store_error`) and kept until the registry is dropped. Every session
//! thread appends through that handle, and `create_session`,
//! `session_status`, `warm_start_query` and `export_history` answer
//! from its in-memory index, so what one session costs does not grow
//! with what the store already holds. The index is complete by
//! construction: opening replays everything earlier incarnations of the
//! daemon wrote (the tag `svc` reclaims its own active segment; the
//! `svc0…svcN` segments an older daemon registered per session are read
//! like any other writer's), and everything since went through the
//! handle itself. What it does *not* see is a record some other process
//! appends to the same backend while the daemon is up — one daemon per
//! backend is the premise; [`TrialStore::refresh`] exists for a process
//! that wants the merged view.
//!
//! Each session runs as a dedicated thread driving
//! [`SessionDriver::run_with_executor`] with a `RemoteExecutor`: the
//! driver's suggest→evaluate→observe fold runs server-side (optimizer
//! state, store checkpoints, lease metadata), while evaluation blocks
//! on a round slot until a client reports results over the wire. The
//! slot is connection-agnostic — a client may die mid-round, reconnect,
//! re-attach, and fetch the *same* pending round again; nothing is
//! recorded until results arrive, so the recorded history stays
//! byte-identical to an uninterrupted run.

use crate::wire::{self, CreateSession, Report, SessionStatusReply, SuggestReply, WireError};
use llamatune::history_io::events_to_jsonl;
use llamatune::session::{EvalResult, Trial, TrialExecutor};
use llamatune_obs::trace::Tracer;
use llamatune_optim::OptimizerKind;
use llamatune_runtime::{CampaignOptions, CellSpec, SessionDriver};
use llamatune_space::{ConfigSpace, KnobValue};
use llamatune_store::{
    lock_recover, SessionStatus, StoreBackend, StoreOptions, StoredTrial, TrialStore,
};
use llamatune_workloads::workload_by_name;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn store_err(e: std::io::Error) -> WireError {
    WireError::new(wire::code::STORE_ERROR, e.to_string())
}

/// Silences the default panic hook for [`ShutdownToken`] unwinds (the
/// deliberate mechanism that aborts a session thread's blocked
/// evaluation on daemon shutdown) while delegating every real panic to
/// the previously installed hook. Installed once per process, by the
/// first registry constructed.
fn install_quiet_shutdown_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !info.payload().is::<ShutdownToken>() {
                previous(info);
            }
        }));
    });
}

/// Panic payload the [`RemoteExecutor`] throws to unwind a session
/// thread out of the driver on daemon shutdown. Nothing is recorded for
/// the aborted round: the session stays `Running` in the store and
/// resumes from its last recorded round boundary — fabricating results
/// to exit cleanly would corrupt the history.
pub(crate) struct ShutdownToken;

/// Where a session thread currently is, as the registry sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Phase {
    /// The driver loop is live (or replaying its recorded prefix).
    Running,
    /// The driver finished; the store records the session as done.
    Done,
    /// The driver returned an error (store I/O, invalid state).
    Failed(String),
    /// Daemon shutdown unwound the thread mid-session; the session is
    /// resumable by a future daemon over the same backend.
    Detached,
}

/// One round published by a session's driver, awaiting client results.
struct PendingRound {
    /// Iteration index of the round's first trial — the round id.
    round: usize,
    /// `(iteration, decoded configuration)` per trial.
    trials: Vec<(usize, Vec<KnobValue>)>,
}

struct RoundState {
    pending: Option<PendingRound>,
    results: Option<Vec<EvalResult>>,
    /// Round id of the last fully reported round, kept so a client that
    /// re-sends a report after losing the ack sees success, not a
    /// conflict.
    last_done: Option<usize>,
    phase: Phase,
    shutdown: bool,
}

/// A live session: the rendezvous slot between its driver thread and
/// client connections.
pub struct SessionHandle {
    label: String,
    batch_size: usize,
    state: Mutex<RoundState>,
    cv: Condvar,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl SessionHandle {
    fn new(label: String, batch_size: usize) -> SessionHandle {
        SessionHandle {
            label,
            batch_size,
            state: Mutex::new(RoundState {
                pending: None,
                results: None,
                last_done: None,
                phase: Phase::Running,
                shutdown: false,
            }),
            cv: Condvar::new(),
            thread: Mutex::new(None),
        }
    }

    /// The session's canonical label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The session's current phase.
    pub fn phase(&self) -> Phase {
        lock_recover(&self.state).phase.clone()
    }

    fn set_phase(&self, phase: Phase) {
        lock_recover(&self.state).phase = phase;
        self.cv.notify_all();
    }
}

/// The [`TrialExecutor`] a session thread hands its driver: publishes
/// each suggested round to the session's slot and blocks until a client
/// reports results (or shutdown unwinds the thread).
struct RemoteExecutor {
    handle: Arc<SessionHandle>,
}

impl TrialExecutor for RemoteExecutor {
    fn run_batch(&mut self, trials: &[Trial]) -> Vec<EvalResult> {
        let round = trials.first().map(|t| t.iteration).unwrap_or(0);
        let mut st = lock_recover(&self.handle.state);
        st.pending = Some(PendingRound {
            round,
            trials: trials.iter().map(|t| (t.iteration, t.config.values().to_vec())).collect(),
        });
        st.results = None;
        self.handle.cv.notify_all();
        loop {
            // Results first: `report` acknowledged them, so a shutdown
            // that lands before this thread wakes must not drop them.
            if let Some(results) = st.results.take() {
                st.pending = None;
                st.last_done = Some(round);
                self.handle.cv.notify_all();
                return results;
            }
            if st.shutdown {
                drop(st);
                std::panic::panic_any(ShutdownToken);
            }
            st = self.handle.cv.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn max_parallelism(&self) -> usize {
        self.handle.batch_size
    }
}

/// What `create_session` resolved to.
pub enum Attach {
    /// The session is finished in the store; nothing runs.
    Done { label: String },
    /// The session is live (fresh, or re-attached to a running one);
    /// the quarantine preload is what a client-side executor must know
    /// before evaluating anything.
    Live { label: String, quarantine: Vec<Vec<String>> },
}

/// The daemon's session table: owns the shared backend, the one store
/// handle on it, and one driver thread per live session.
pub struct SessionRegistry {
    backend: Arc<dyn StoreBackend>,
    catalog: ConfigSpace,
    base: CampaignOptions,
    store_opts: StoreOptions,
    tracer: Option<Arc<dyn Tracer>>,
    /// Opened on first use ([`SessionRegistry::store`]), never replaced.
    store: Mutex<Option<Arc<TrialStore>>>,
    sessions: Mutex<HashMap<String, Arc<SessionHandle>>>,
    shutdown: AtomicBool,
}

impl SessionRegistry {
    /// A registry over `backend`, tuning `catalog`. `base` supplies
    /// everything `create_session` does not carry per session (policy,
    /// constant liar, early stopping, warm-start transfer, …).
    pub fn new(
        backend: Arc<dyn StoreBackend>,
        catalog: ConfigSpace,
        base: CampaignOptions,
        store_opts: StoreOptions,
    ) -> SessionRegistry {
        install_quiet_shutdown_hook();
        SessionRegistry {
            backend,
            catalog,
            base,
            store_opts,
            tracer: None,
            store: Mutex::new(None),
            sessions: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Tees every session's trace stream into `tracer` (and installs it
    /// on the daemon's store handle).
    pub fn with_tracer(mut self, tracer: Arc<dyn Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Number of sessions currently tracked (any phase).
    pub fn session_count(&self) -> usize {
        lock_recover(&self.sessions).len()
    }

    /// The daemon's store handle, opened (and replayed) by the first
    /// caller. [`SessionRegistry::new`] cannot fail, so a backend that
    /// does not open is the `store_error` of each request that needs it.
    fn store(&self) -> Result<Arc<TrialStore>, WireError> {
        let mut slot = lock_recover(&self.store);
        if let Some(store) = &*slot {
            return Ok(store.clone());
        }
        let store = TrialStore::open_shared(self.backend.clone(), "svc", self.store_opts.clone())
            .map_err(store_err)?;
        if let Some(t) = &self.tracer {
            store.set_tracer(t.clone());
        }
        Ok(slot.insert(Arc::new(store)).clone())
    }

    /// Per-session options: the daemon's base template with the
    /// request's loop bounds folded in.
    fn options_for(&self, req: &CreateSession) -> CampaignOptions {
        let mut opts = self.base.clone();
        opts.session.iterations = req.iterations;
        opts.session.n_init = req.n_init;
        opts.batch_size = req.batch_size;
        opts
    }

    fn cell_for(&self, req: &CreateSession) -> Result<CellSpec, WireError> {
        let optimizer = OptimizerKind::parse(&req.optimizer).ok_or_else(|| {
            WireError::new(wire::code::BAD_PARAMS, format!("unknown optimizer {:?}", req.optimizer))
        })?;
        if workload_by_name(&req.workload).is_none() {
            return Err(WireError::new(
                wire::code::BAD_PARAMS,
                format!("unknown workload {:?}", req.workload),
            ));
        }
        Ok(CellSpec::new(req.workload.clone(), req.adapter.clone(), optimizer, req.seed))
    }

    /// `create_session`: idempotent attach. A label the registry already
    /// runs re-attaches (same pending round, recomputed quarantine); a
    /// label the store records as done answers `done` without running
    /// anything; anything else spawns a fresh driver thread (resuming
    /// from the store's recorded prefix if there is one).
    pub fn attach(&self, req: &CreateSession) -> Result<Attach, WireError> {
        if self.shutdown.load(Ordering::SeqCst) {
            return Err(WireError::new(wire::code::SHUTTING_DOWN, "daemon is shutting down"));
        }
        let cell = self.cell_for(req)?;
        let opts = self.options_for(req);

        // The store is the authority on completion — consult it before
        // touching the live table, so a session finished by a previous
        // daemon incarnation answers `done` instead of spawning.
        let store = self.store()?;
        if let Some(m) = store.session_meta(&cell.label) {
            if m.status == SessionStatus::Done {
                self.reap(&cell.label);
                return Ok(Attach::Done { label: cell.label });
            }
        }
        let quarantine: Vec<Vec<String>> = SessionDriver::new(&self.catalog, &opts, cell.clone())
            .with_store(&store)
            .quarantine_preload()
            .iter()
            .map(|cfg| cfg.values().iter().map(llamatune_store::knob_value_to_token).collect())
            .collect();

        let mut sessions = lock_recover(&self.sessions);
        if let Some(handle) = sessions.get(&cell.label) {
            match handle.phase() {
                Phase::Running => {
                    if handle.batch_size != req.batch_size {
                        return Err(WireError::new(
                            wire::code::ROUND_CONFLICT,
                            format!(
                                "session {} is live with batch_size {}, not {}",
                                cell.label, handle.batch_size, req.batch_size
                            ),
                        ));
                    }
                    return Ok(Attach::Live { label: cell.label, quarantine });
                }
                Phase::Done => return Ok(Attach::Done { label: cell.label }),
                // A failed or detached thread is gone; drop the stale
                // handle and respawn — the store still has every
                // recorded trial, so the new thread resumes.
                Phase::Failed(_) | Phase::Detached => {
                    sessions.remove(&cell.label);
                }
            }
        }

        let handle = Arc::new(SessionHandle::new(cell.label.clone(), req.batch_size));
        let thread = self.spawn_session(handle.clone(), store, cell.clone(), opts);
        *lock_recover(&handle.thread) = Some(thread);
        sessions.insert(cell.label.clone(), handle);
        Ok(Attach::Live { label: cell.label, quarantine })
    }

    fn spawn_session(
        &self,
        handle: Arc<SessionHandle>,
        store: Arc<TrialStore>,
        cell: CellSpec,
        opts: CampaignOptions,
    ) -> JoinHandle<()> {
        let catalog = self.catalog.clone();
        let tracer = self.tracer.clone();
        std::thread::spawn(move || {
            let run = || -> std::io::Result<()> {
                let mut driver = SessionDriver::new(&catalog, &opts, cell).with_store(&store);
                if let Some(t) = &tracer {
                    driver = driver.with_tracer(t.clone());
                }
                let mut executor = RemoteExecutor { handle: handle.clone() };
                driver.run_with_executor(&mut executor)?;
                Ok(())
            };
            match catch_unwind(AssertUnwindSafe(run)) {
                Ok(Ok(())) => handle.set_phase(Phase::Done),
                Ok(Err(e)) => handle.set_phase(Phase::Failed(e.to_string())),
                Err(payload) if payload.is::<ShutdownToken>() => handle.set_phase(Phase::Detached),
                Err(_) => handle.set_phase(Phase::Failed("session thread panicked".to_string())),
            }
        })
    }

    fn get(&self, label: &str) -> Result<Arc<SessionHandle>, WireError> {
        lock_recover(&self.sessions).get(label).cloned().ok_or_else(|| {
            WireError::new(wire::code::UNKNOWN_SESSION, format!("no live session {label:?}"))
        })
    }

    /// Drops a tracked handle whose thread has finished (used when the
    /// store already records the session done).
    fn reap(&self, label: &str) {
        let mut sessions = lock_recover(&self.sessions);
        if let Some(h) = sessions.get(label) {
            if h.phase() != Phase::Running {
                sessions.remove(label);
            }
        }
    }

    /// `suggest_batch`: blocks until the session has a pending round
    /// (redelivering an unanswered one verbatim), finishes, or the wait
    /// times out.
    pub fn suggest(&self, label: &str, timeout: Duration) -> Result<SuggestReply, WireError> {
        let handle = self.get(label)?;
        let deadline = Instant::now() + timeout;
        let mut st = lock_recover(&handle.state);
        loop {
            match &st.phase {
                Phase::Done => return Ok(SuggestReply::Done),
                Phase::Failed(e) => {
                    return Err(WireError::new(wire::code::SESSION_FAILED, e.clone()))
                }
                Phase::Detached => {
                    return Err(WireError::new(
                        wire::code::SHUTTING_DOWN,
                        "session detached by daemon shutdown",
                    ))
                }
                Phase::Running => {}
            }
            if st.results.is_none() {
                if let Some(p) = &st.pending {
                    return Ok(SuggestReply::from_trials(p.round, &p.trials));
                }
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(WireError::new(
                    wire::code::TIMEOUT,
                    format!("no round became ready within {timeout:?}"),
                ));
            }
            let (guard, _) = handle
                .cv
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            st = guard;
        }
    }

    /// `report`: delivers one round's results to the session thread.
    /// Idempotent on the last completed round; anything else that does
    /// not match the pending round is a conflict.
    pub fn report(&self, report: &Report) -> Result<(), WireError> {
        let handle = self.get(&report.session)?;
        let mut st = lock_recover(&handle.state);
        match &st.pending {
            Some(p) if p.round == report.round => {
                if st.results.is_some() {
                    // Already delivered (duplicate report racing the
                    // executor's wakeup) — an ack, not a conflict.
                    return Ok(());
                }
                if report.results.len() != p.trials.len() {
                    return Err(WireError::new(
                        wire::code::BAD_PARAMS,
                        format!(
                            "round {} has {} trials, report carries {} results",
                            p.round,
                            p.trials.len(),
                            report.results.len()
                        ),
                    ));
                }
                st.results = Some(report.results.iter().map(wire::WireResult::to_eval).collect());
                handle.cv.notify_all();
                Ok(())
            }
            _ if st.last_done == Some(report.round) => Ok(()),
            Some(p) => Err(WireError::new(
                wire::code::ROUND_CONFLICT,
                format!("pending round is {}, report names {}", p.round, report.round),
            )),
            None => match &st.phase {
                Phase::Failed(e) => Err(WireError::new(wire::code::SESSION_FAILED, e.clone())),
                _ => Err(WireError::new(
                    wire::code::ROUND_CONFLICT,
                    format!("no pending round to match report for round {}", report.round),
                )),
            },
        }
    }

    /// `session_status`: phase from the live table when present,
    /// otherwise the store; trial count and best score always from the
    /// store's index.
    pub fn status(&self, label: &str) -> Result<SessionStatusReply, WireError> {
        let store = self.store()?;
        let live = lock_recover(&self.sessions).get(label).cloned();
        let meta = store.session_meta(label);
        if live.is_none() && meta.is_none() {
            return Err(WireError::new(
                wire::code::UNKNOWN_SESSION,
                format!("session {label:?} is neither live nor stored"),
            ));
        }
        let (status, error) = match live.map(|h| h.phase()) {
            Some(Phase::Running) | Some(Phase::Detached) => ("running".to_string(), None),
            Some(Phase::Done) => ("done".to_string(), None),
            Some(Phase::Failed(e)) => ("failed".to_string(), Some(e)),
            None => match meta.as_ref().map(|m| m.status) {
                Some(SessionStatus::Done) => ("done".to_string(), None),
                _ => ("running".to_string(), None),
            },
        };
        let trials = store.trials_for(label);
        let best_score = trials
            .iter()
            .filter(|t| t.iteration >= 1)
            .map(|t| t.score)
            .fold(None, |best: Option<f64>, s| Some(best.map_or(s, |b| b.max(s))));
        Ok(SessionStatusReply { status, trials: trials.len(), best_score, error })
    }

    /// `warm_start_query`: the optimizer-space warm points recorded in
    /// the session's store metadata.
    pub fn warm_points(&self, label: &str) -> Result<Vec<Vec<f64>>, WireError> {
        Ok(self.store()?.session_meta(label).map(|m| m.warm_points).unwrap_or_default())
    }

    /// `export_history`: the session's trials (dedup, iteration order)
    /// projected onto the event schema the store's canonical export
    /// uses, as JSONL — the byte-identity surface of the acceptance
    /// contract.
    pub fn export(&self, label: &str) -> Result<String, WireError> {
        let store = self.store()?;
        let events: Vec<_> = store.trials_for(label).iter().map(StoredTrial::to_event).collect();
        if events.is_empty() && store.session_meta(label).is_none() {
            return Err(WireError::new(
                wire::code::UNKNOWN_SESSION,
                format!("session {label:?} has no stored history"),
            ));
        }
        Ok(events_to_jsonl(&events))
    }

    /// Stops every session thread: marks shutdown, wakes all waiters
    /// (blocked executors unwind via `ShutdownToken`), joins threads.
    /// Live sessions stay `Running` in the store and resume later.
    pub fn shutdown_all(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let handles: Vec<Arc<SessionHandle>> =
            lock_recover(&self.sessions).values().cloned().collect();
        for h in &handles {
            let mut st = lock_recover(&h.state);
            st.shutdown = true;
            h.cv.notify_all();
        }
        for h in &handles {
            if let Some(t) = lock_recover(&h.thread).take() {
                let _ = t.join();
            }
        }
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}
