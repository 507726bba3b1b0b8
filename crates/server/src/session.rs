//! Session multiplexing: the registry of live tuning sessions, each a
//! value the daemon steps when a client's request arrives.
//!
//! One daemon owns one shared [`StoreBackend`] and holds **one**
//! [`TrialStore`] handle on it: fleet writer `svc`, opened by the first
//! request that needs the store (an open failure is that request's
//! `store_error`) and kept until the registry is dropped. Every session
//! appends through that handle, and `create_session`,
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
//! A live session is a [`LiveSession`] behind its own mutex — no thread,
//! no rendezvous. The driver's seam is called from the connection
//! thread of whichever client's request moves the session:
//!
//! * `create_session` opens it ([`SessionDriver::open`]: optimizer
//!   state, lease metadata, replay of what the store holds) and draws
//!   its first round, so it answers after both;
//! * `suggest_batch` reads the drawn round — the *same* round, however
//!   often and from whichever connection it is asked, until it is
//!   reported: a client may die mid-round, reconnect, re-attach and
//!   fetch it again;
//! * `report` folds the round in ([`SessionDriver::report`]) and draws
//!   the next one — the optimizer's suggest runs on the thread of the
//!   client that reported, which would have waited for it anyway — or,
//!   after the last round, appends the session's `Done` record.
//!
//! **An acknowledged `report` is a recorded round**: every trial of it
//! is in the store before the call answers. A store error or a panic
//! inside a step fails the session — its value is dropped, the call
//! that stepped it answers `session_failed`, and so does every later
//! `suggest_batch` until a `create_session` reopens the session, which
//! resumes from the store's last recorded round boundary. Nothing of an
//! unanswered round is recorded, so the history stays byte-identical to
//! an uninterrupted run. Shutdown drops nothing it has to undo: sessions
//! stay `Running` in the store and resume under the next daemon.

use crate::wire::{
    self, CreateSession, Report, SessionStatusReply, SuggestReply, WireError, WireTrial,
};
use llamatune::history_io::events_to_jsonl;
use llamatune_optim::OptimizerKind;
use llamatune_runtime::{CampaignOptions, CellSpec, LiveSession, Opened, SessionDriver};
use llamatune_space::{Config, ConfigSpace};
use llamatune_store::{lock_recover, SessionStatus, StoreBackend, StoreOptions, TrialStore};
use llamatune_workloads::workload_by_name;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Where a tracked session is.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
enum Phase {
    /// The session has rounds left (or is being opened right now).
    #[default]
    Running,
    /// The session finished; the store records it as done.
    Done,
    /// A step returned an error (store I/O, invalid state) or panicked.
    Failed(String),
}

/// An opened session between two requests: what the driver that steps
/// it is rebuilt from, and the session itself.
struct Live {
    opts: CampaignOptions,
    cell: CellSpec,
    session: LiveSession,
}

/// One tracked session. Its mutex is held for the length of a step, so
/// requests for one session serialize; the registry's table lock is
/// never held while a session's is taken.
#[derive(Default)]
struct Tracked {
    /// `Some` from a successful open until the session is done or
    /// failed. Its pending round is `session.next_round()`.
    live: Option<Live>,
    /// Round id of the last fully recorded round, kept so a client that
    /// re-sends a report after losing the ack sees success, not a
    /// conflict.
    last_done: Option<usize>,
    phase: Phase,
}

/// What `create_session` resolved to.
pub enum Attach {
    /// The session is finished in the store; nothing runs.
    Done { label: String },
    /// The session is live (fresh, or re-attached to a running one);
    /// the quarantine preload is what a client-side executor must know
    /// before evaluating anything.
    Live { label: String, quarantine: Vec<Config> },
}

/// The daemon's session table: owns the shared backend, the one store
/// handle on it, and the value of every live session.
pub struct SessionRegistry {
    backend: Arc<dyn StoreBackend>,
    catalog: ConfigSpace,
    base: CampaignOptions,
    store_opts: StoreOptions,
    /// Opened on first use ([`SessionRegistry::store`]), never replaced.
    store: Mutex<Option<Arc<TrialStore>>>,
    sessions: Mutex<HashMap<String, Arc<Mutex<Tracked>>>>,
    shutdown: AtomicBool,
}

impl SessionRegistry {
    /// A registry over `backend`, tuning `catalog`. `base` supplies
    /// everything `create_session` does not carry per session (policy,
    /// constant liar, early stopping, warm-start transfer, tracer, …).
    pub fn new(
        backend: Arc<dyn StoreBackend>,
        catalog: ConfigSpace,
        base: CampaignOptions,
        store_opts: StoreOptions,
    ) -> SessionRegistry {
        SessionRegistry {
            backend,
            catalog,
            base,
            store_opts,
            store: Mutex::new(None),
            sessions: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Number of sessions currently tracked (any phase).
    pub fn session_count(&self) -> usize {
        lock_recover(&self.sessions).len()
    }

    /// The daemon's store handle, opened (and replayed) by the first
    /// caller, tracing into the base options' tracer like every session.
    /// [`SessionRegistry::new`] cannot fail, so a backend that does not
    /// open is the `store_error` of each request that needs it.
    fn store(&self) -> Result<Arc<TrialStore>, WireError> {
        let mut slot = lock_recover(&self.store);
        if let Some(store) = &*slot {
            return Ok(store.clone());
        }
        let store = TrialStore::open_shared(self.backend.clone(), "svc", self.store_opts.clone())
            .map_err(|e| WireError::new(wire::code::STORE_ERROR, e.to_string()))?;
        store.set_tracer(self.base.tracer.clone());
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

    fn driver<'a>(
        &'a self,
        store: &'a TrialStore,
        opts: &'a CampaignOptions,
        cell: &CellSpec,
    ) -> SessionDriver<'a> {
        SessionDriver::new(&self.catalog, opts, cell.clone()).with_store(store)
    }

    /// Runs one step of a session under its lock. An error or a panic
    /// inside fails the session: its value is dropped (the store keeps
    /// every recorded trial, so the next attach resumes) and the
    /// request that stepped it answers `session_failed`.
    fn step(
        st: &mut Tracked,
        f: impl FnOnce(&mut Tracked) -> std::io::Result<()>,
    ) -> Result<(), WireError> {
        let failure = match catch_unwind(AssertUnwindSafe(|| f(st))) {
            Ok(Ok(())) => return Ok(()),
            Ok(Err(e)) => e.to_string(),
            Err(_) => "session step panicked".to_string(),
        };
        st.live = None;
        st.phase = Phase::Failed(failure.clone());
        Err(WireError::new(wire::code::SESSION_FAILED, failure))
    }

    /// The tail of every step: draws the round the next `suggest` hands
    /// out or, when none is left, finishes the session (its `Done`
    /// record).
    fn advance(&self, store: &TrialStore, st: &mut Tracked) -> std::io::Result<()> {
        let live = st.live.as_mut().expect("a step advances a live session");
        if live.session.next_round().is_none() {
            let Live { opts, cell, session } = st.live.take().expect("checked above");
            self.driver(store, &opts, &cell).finish(session)?;
            st.phase = Phase::Done;
        }
        Ok(())
    }

    /// `create_session`: idempotent attach. A label the registry already
    /// runs re-attaches (same pending round, recomputed quarantine); a
    /// label the store records as done answers `done` without running
    /// anything; anything else — new, or failed earlier — is opened
    /// (resuming from the store's recorded prefix if there is one) and
    /// its first round drawn before the call answers.
    pub fn attach(&self, req: &CreateSession) -> Result<Attach, WireError> {
        if self.shutdown.load(Ordering::SeqCst) {
            return Err(WireError::new(wire::code::SHUTTING_DOWN, "daemon is shutting down"));
        }
        let cell = self.cell_for(req)?;
        let opts = self.options_for(req);
        let label = cell.label.clone();

        // The store is the authority on completion — consult it before
        // touching the live table, so a session finished by a previous
        // daemon incarnation answers `done` instead of opening.
        let store = self.store()?;
        if let Some(m) = store.session_meta(&label) {
            if m.status == SessionStatus::Done {
                self.reap(&label);
                return Ok(Attach::Done { label });
            }
        }
        let quarantine = self.driver(&store, &opts, &cell).quarantine_preload();

        let tracked = lock_recover(&self.sessions).entry(label.clone()).or_default().clone();
        let mut st = lock_recover(&tracked);
        match (&st.phase, &st.live) {
            (Phase::Done, _) => return Ok(Attach::Done { label }),
            (Phase::Running, Some(live)) => {
                if live.opts.batch_size != req.batch_size {
                    return Err(WireError::new(
                        wire::code::ROUND_CONFLICT,
                        format!(
                            "session {label} is live with batch_size {}, not {}",
                            live.opts.batch_size, req.batch_size
                        ),
                    ));
                }
                return Ok(Attach::Live { label, quarantine });
            }
            // Never opened, or failed and dropped: open it here. The
            // store still has every recorded trial, so a failed session
            // resumes.
            _ => st.phase = Phase::Running,
        }
        Self::step(&mut st, |st| {
            match self.driver(&store, &opts, &cell).open()? {
                Opened::Done(_) => st.phase = Phase::Done,
                Opened::Live(session) => {
                    st.live = Some(Live { opts, cell, session: *session });
                    self.advance(&store, st)?;
                }
            }
            Ok(())
        })?;
        Ok(match st.phase {
            Phase::Done => Attach::Done { label },
            _ => Attach::Live { label, quarantine },
        })
    }

    fn get(&self, label: &str) -> Result<Arc<Mutex<Tracked>>, WireError> {
        lock_recover(&self.sessions).get(label).cloned().ok_or_else(|| {
            WireError::new(wire::code::UNKNOWN_SESSION, format!("no live session {label:?}"))
        })
    }

    /// Drops a tracked session that is not running (used when the store
    /// already records the session done).
    fn reap(&self, label: &str) {
        let Ok(tracked) = self.get(label) else { return };
        if lock_recover(&tracked).phase != Phase::Running {
            lock_recover(&self.sessions).remove(label);
        }
    }

    /// `suggest_batch`: the session's pending round — redelivered
    /// verbatim until it is reported — or `done`. It never waits: the
    /// round was drawn by the `create_session` or `report` before it.
    ///
    /// `timeout` bounds nothing since no call waits for a round; it is
    /// still a parameter because `benchmark/` passes it, and goes with
    /// [`ServerConfig::suggest_timeout`](crate::ServerConfig). The
    /// `timeout` wire code is left for one case: a session another
    /// connection is opening this instant (the client re-asks).
    pub fn suggest(&self, label: &str, _timeout: Duration) -> Result<SuggestReply, WireError> {
        let tracked = self.get(label)?;
        let mut st = lock_recover(&tracked);
        match &st.phase {
            Phase::Done => return Ok(SuggestReply::Done),
            Phase::Failed(e) => return Err(WireError::new(wire::code::SESSION_FAILED, e.clone())),
            Phase::Running => {}
        }
        if self.shutdown.load(Ordering::SeqCst) {
            return Err(WireError::new(wire::code::SHUTTING_DOWN, "daemon is shutting down"));
        }
        match st.live.as_mut().and_then(|live| live.session.next_round()) {
            Some(trials) => Ok(SuggestReply::Round {
                round: trials[0].iteration,
                trials: trials
                    .iter()
                    .map(|t| WireTrial {
                        iteration: t.iteration,
                        config: t.config.values().to_vec(),
                    })
                    .collect(),
            }),
            None => Err(WireError::new(wire::code::TIMEOUT, "session is still being opened")),
        }
    }

    /// `report`: folds one round's results into the session, records
    /// them, and draws the next round (or finishes the session) before
    /// answering — so `Ok` means every trial of the round is in the
    /// store. Idempotent on the last recorded round; anything else that
    /// does not match the pending round is a conflict.
    pub fn report(&self, report: &Report) -> Result<(), WireError> {
        let tracked = self.get(&report.session)?;
        let mut st = lock_recover(&tracked);
        let pending = st
            .live
            .as_mut()
            .and_then(|live| live.session.next_round())
            .map(|trials| (trials[0].iteration, trials.len()));
        match pending {
            Some((round, trials)) if round == report.round => {
                if report.results.len() != trials {
                    return Err(WireError::new(
                        wire::code::BAD_PARAMS,
                        format!(
                            "round {round} has {trials} trials, report carries {} results",
                            report.results.len()
                        ),
                    ));
                }
            }
            _ if st.last_done == Some(report.round) => return Ok(()),
            Some((round, _)) => {
                return Err(WireError::new(
                    wire::code::ROUND_CONFLICT,
                    format!("pending round is {round}, report names {}", report.round),
                ))
            }
            None => {
                return Err(match &st.phase {
                    Phase::Failed(e) => WireError::new(wire::code::SESSION_FAILED, e.clone()),
                    _ => WireError::new(
                        wire::code::ROUND_CONFLICT,
                        format!("no pending round to match report for round {}", report.round),
                    ),
                })
            }
        }
        let store = self.store()?;
        let results = report.results.iter().map(wire::WireResult::to_eval).collect();
        Self::step(&mut st, |st| {
            let Live { opts, cell, session } = st.live.as_mut().expect("the round was pending");
            self.driver(&store, opts, cell).report(session, results)?;
            st.last_done = Some(report.round);
            self.advance(&store, st)
        })
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
        let (status, error) = match live.map(|t| lock_recover(&t).phase.clone()) {
            Some(Phase::Running) => ("running".to_string(), None),
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
        let trials = store.trials_for(label);
        if trials.is_empty() && store.session_meta(label).is_none() {
            return Err(WireError::new(
                wire::code::UNKNOWN_SESSION,
                format!("session {label:?} has no stored history"),
            ));
        }
        Ok(events_to_jsonl(&trials))
    }

    /// Refuses new sessions and further rounds from now on. There is
    /// nothing to stop or join: the store already holds every
    /// acknowledged round, live sessions stay `Running` there and
    /// resume under the next daemon over the same backend; their values
    /// go when the registry is dropped.
    pub fn shutdown_all(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }
}
