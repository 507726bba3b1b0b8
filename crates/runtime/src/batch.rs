//! Constant-liar batch suggestion.
//!
//! Sequential optimizers propose one point, observe its result, and only
//! then propose the next — useless when a pool can evaluate q trials at
//! once. The constant-liar strategy (Ginsbourger et al. 2010, the
//! standard q-point fantasizing trick) extracts a diverse batch from any
//! unmodified [`Optimizer`]:
//!
//! 1. ask for a suggestion;
//! 2. *fantasize* its outcome by observing a pessimistic pseudo-score
//!    (the "lie": the worst real score seen so far), which pushes the
//!    optimizer's model away from the pending point;
//! 3. repeat until q points are collected;
//! 4. when real results arrive, *retract* the lies.
//!
//! Retraction has two implementations, and the wrapped optimizer picks
//! the cheaper one for itself through [`Optimizer::snapshot_beats_replay`]:
//!
//! * **Snapshot-restore**: before fantasizing, the wrapper captures the
//!   inner optimizer's state via [`Optimizer::snapshot`]; retracting
//!   restores it and feeds only the real observations that arrived
//!   since — O(state copy) instead of O(rebuild + full-history replay).
//!   Restoration is exact by contract (bit-identical state), so this
//!   path preserves the reproducibility guarantees unchanged. GP-BO
//!   retracts this way.
//! * **Rebuild-and-replay**: rebuild the optimizer from its factory and
//!   replay every real observation in iteration order. SMAC retracts
//!   this way (its snapshot clones the cached forest that replay would
//!   simply not rebuild), and so does every optimizer whose state
//!   cannot be copied out (`snapshot()` returns `None`: DDPG's replay
//!   buffer and target networks).
//!
//! For campaigns driven entirely through `suggest_batch`/`observe_batch`
//! rounds — the only way the session loops use the wrapper — the two
//! are interchangeable: each round starts from a state that is a pure
//! function of the real history, so retraction by exact restore and
//! retraction by rebuild-and-replay land on identical states and the
//! suggestion streams match (pinned by
//! `retraction_modes_produce_identical_streams` below, which forces each
//! strategy through a wrapper answering the hint); the hint is purely
//! about cost, which the `optimizer_hot_path` bench quantifies.
//! Interleaving *bare* `suggest()` calls between rounds voids that
//! equivalence: a single suggest advances inner RNG that a later
//! snapshot preserves but a rebuild discards (sequential use must
//! degenerate to the wrapped optimizer, so the wrapper cannot unwind
//! it). Resumable campaigns never do this.

use llamatune_optim::{Observation, Optimizer};

/// The lie: the minimum real score so far (the classic pessimistic
/// "CL-min", which strongly repels pending points under maximization);
/// a neutral `0.0` before anything real was observed.
fn cl_min(real: &[Observation]) -> f64 {
    if real.is_empty() {
        return 0.0;
    }
    real.iter().map(|o| o.y).fold(f64::INFINITY, f64::min)
}

/// Builds a fresh, identically-seeded optimizer. Called once up front and
/// once per retraction.
pub type OptimizerFactory = Box<dyn Fn() -> Box<dyn Optimizer> + Send>;

/// Wraps any [`Optimizer`] with constant-liar batch suggestion. Itself an
/// [`Optimizer`], so it drops into `run_session_parallel` (or any other
/// session loop) unchanged.
pub struct BatchSuggest {
    factory: OptimizerFactory,
    inner: Box<dyn Optimizer>,
    /// All real observations, in the order they were reported.
    real: Vec<Observation>,
    /// Number of fantasized observations currently inside `inner`.
    fantasized: usize,
    /// The inner optimizer's state captured just before the current
    /// round's fantasizing, plus the real-history length it covers.
    snapshot: Option<(Box<dyn std::any::Any + Send>, usize)>,
}

impl BatchSuggest {
    /// Wraps the optimizer produced by `factory`.
    pub fn new(factory: OptimizerFactory) -> Self {
        let inner = factory();
        BatchSuggest { factory, inner, real: Vec::new(), fantasized: 0, snapshot: None }
    }

    /// Number of real observations replayed into the wrapped optimizer.
    pub fn observed(&self) -> usize {
        self.real.len()
    }

    /// Retracts any outstanding lies. Fast path: restore the pre-batch
    /// snapshot and feed only the real observations recorded since it
    /// was taken. Fallback (no snapshot taken, or restore refused):
    /// rebuild the wrapped optimizer from the factory and replay the
    /// whole real history in order.
    fn retract(&mut self) {
        // Observations are handed to the inner optimizer as batches so
        // surrogates with batched incremental paths (the GP's deferred
        // weight refresh) pay their per-batch costs once — the trait
        // contract makes `observe_batch` sequentially equivalent.
        let restored = match self.snapshot.take() {
            Some((snap, covered)) if self.inner.restore(snap.as_ref()) => {
                self.inner.observe_batch(self.real[covered..].to_vec());
                true
            }
            _ => false,
        };
        if !restored {
            self.inner = (self.factory)();
            self.inner.observe_batch(self.real.clone());
        }
        self.fantasized = 0;
    }

    fn ensure_clean(&mut self) {
        if self.fantasized > 0 {
            self.retract();
        }
    }
}

impl Optimizer for BatchSuggest {
    fn suggest(&mut self) -> Vec<f64> {
        self.ensure_clean();
        self.inner.suggest()
    }

    fn observe(&mut self, obs: Observation) {
        self.real.push(obs.clone());
        if self.fantasized > 0 {
            self.retract();
        } else {
            self.inner.observe(obs);
        }
    }

    fn name(&self) -> &'static str {
        "constant-liar"
    }

    fn suggest_batch(&mut self, q: usize) -> Vec<Vec<f64>> {
        self.ensure_clean();
        // Capture the pre-fantasy state so retraction is an O(copy)
        // restore instead of a rebuild, where the optimizer says that is
        // cheaper; optimizers that cannot snapshot (DDPG) return None
        // here and keep the rebuild fallback.
        self.snapshot = if self.inner.snapshot_beats_replay() {
            self.inner.snapshot().map(|snap| (snap, self.real.len()))
        } else {
            None
        };
        let lie = cl_min(&self.real);
        let mut batch = Vec::with_capacity(q);
        for _ in 0..q {
            let x = self.inner.suggest();
            // Fantasize: the pending point "scored" the lie, repelling
            // the next suggestion. Retracted when real results arrive.
            self.inner.observe(Observation { x: x.clone(), y: lie, metrics: Vec::new() });
            self.fantasized += 1;
            batch.push(x);
        }
        batch
    }

    fn observe_batch(&mut self, obs: Vec<Observation>) {
        if self.fantasized > 0 {
            self.real.extend(obs);
            self.retract();
        } else {
            // No outstanding lies (LHS-init rounds, history replay on
            // resume): feed the results straight through as one batch,
            // hitting the inner optimizer's incremental batch path.
            self.real.extend(obs.iter().cloned());
            self.inner.observe_batch(obs);
        }
    }

    fn drain_degradations(&mut self) -> Vec<llamatune_optim::DegradationEvent> {
        self.inner.drain_degradations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llamatune_optim::{RandomSearch, SearchSpec, Smac, SmacConfig};

    fn smac_factory(seed: u64, d: usize) -> OptimizerFactory {
        Box::new(move || -> Box<dyn Optimizer> {
            Box::new(Smac::new(SearchSpec::continuous(d), SmacConfig::default(), seed))
        })
    }

    fn sphere(x: &[f64]) -> f64 {
        -x.iter().map(|v| (v - 0.5) * (v - 0.5)).sum::<f64>()
    }

    /// Drives `opt` for `rounds` rounds of batch size `q` on the sphere.
    fn drive(mut opt: BatchSuggest, q: usize, rounds: usize) -> Vec<Vec<f64>> {
        let mut all = Vec::new();
        for _ in 0..rounds {
            let batch = opt.suggest_batch(q);
            let obs: Vec<Observation> = batch
                .iter()
                .map(|x| Observation { x: x.clone(), y: sphere(x), metrics: vec![] })
                .collect();
            all.extend(batch);
            opt.observe_batch(obs);
        }
        all
    }

    #[test]
    fn batches_are_diverse_under_the_liar() {
        let mut opt = BatchSuggest::new(smac_factory(1, 2));
        // Give the model something to fit.
        for i in 0..10 {
            let t = i as f64 / 10.0;
            let x = vec![t, 1.0 - t];
            let y = sphere(&x);
            opt.observe(Observation { x, y, metrics: vec![] });
        }
        let batch = opt.suggest_batch(4);
        assert_eq!(batch.len(), 4);
        // No two points in the batch are identical.
        for i in 0..batch.len() {
            for j in i + 1..batch.len() {
                assert_ne!(batch[i], batch[j], "points {i} and {j} collide");
            }
        }
    }

    #[test]
    fn lies_are_retracted_exactly() {
        // After a batch round, the wrapper's state must equal a plain
        // optimizer that saw only the real observations.
        let mut wrapped = BatchSuggest::new(smac_factory(9, 2));
        let mut plain = Smac::new(SearchSpec::continuous(2), SmacConfig::default(), 9);

        let batch = wrapped.suggest_batch(3);
        let obs: Vec<Observation> = batch
            .iter()
            .map(|x| Observation { x: x.clone(), y: sphere(x), metrics: vec![] })
            .collect();
        wrapped.observe_batch(obs.clone());
        for o in obs {
            plain.observe(o);
        }
        // Identical state ⇒ identical next suggestions.
        for _ in 0..3 {
            assert_eq!(wrapped.suggest(), plain.suggest());
        }
    }

    #[test]
    fn sequential_use_degenerates_to_the_wrapped_optimizer() {
        let mut wrapped = BatchSuggest::new(Box::new(|| {
            Box::new(RandomSearch::new(SearchSpec::continuous(3), 4)) as Box<dyn Optimizer>
        }));
        let mut plain = RandomSearch::new(SearchSpec::continuous(3), 4);
        for _ in 0..5 {
            let a = wrapped.suggest();
            let b = plain.suggest();
            assert_eq!(a, b);
            wrapped.observe(Observation { x: a, y: 0.0, metrics: vec![] });
            plain.observe(Observation { x: b, y: 0.0, metrics: vec![] });
        }
    }

    /// Random search draws from a stream reseeded by every observation,
    /// so restoring the pre-batch state and feeding the real results
    /// moves the next round on instead of redrawing the retracted one.
    #[test]
    fn random_search_rounds_never_repeat_under_the_liar() {
        let opt = BatchSuggest::new(Box::new(|| {
            Box::new(RandomSearch::new(SearchSpec::continuous(3), 4)) as Box<dyn Optimizer>
        }));
        let all = drive(opt, 4, 6);
        for (round, pair) in all.chunks(4).collect::<Vec<_>>().windows(2).enumerate() {
            assert_ne!(pair[0], pair[1], "round {} redrew round {round}", round + 1);
        }
        let distinct: std::collections::HashSet<Vec<u64>> =
            all.iter().map(|x| x.iter().map(|v| v.to_bits()).collect()).collect();
        assert_eq!(distinct.len(), all.len(), "every suggestion is a fresh point");
    }

    #[test]
    fn liar_strategies_use_the_real_history() {
        let real = [
            Observation { x: vec![0.0], y: -4.0, metrics: vec![] },
            Observation { x: vec![0.1], y: 2.0, metrics: vec![] },
            Observation { x: vec![0.2], y: 8.0, metrics: vec![] },
        ];
        assert_eq!(cl_min(&real), -4.0);
        assert_eq!(cl_min(&[]), 0.0, "no history: neutral lie");
    }

    #[test]
    fn batched_optimization_still_approaches_the_optimum() {
        let opt = BatchSuggest::new(smac_factory(7, 2));
        let all = drive(opt, 4, 10);
        let best = all.iter().map(|x| sphere(x)).fold(f64::NEG_INFINITY, f64::max);
        assert!(best > -0.05, "40 evaluations in batches of 4 should near (0.5, 0.5): {best}");
    }

    /// An optimizer whose retraction strategy is forced: it answers
    /// `snapshot_beats_replay` with `snapshot` and forwards the rest.
    struct Forced {
        inner: Box<dyn Optimizer>,
        snapshot: bool,
    }

    impl Optimizer for Forced {
        fn suggest(&mut self) -> Vec<f64> {
            self.inner.suggest()
        }
        fn observe(&mut self, obs: Observation) {
            self.inner.observe(obs)
        }
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn suggest_batch(&mut self, q: usize) -> Vec<Vec<f64>> {
            self.inner.suggest_batch(q)
        }
        fn observe_batch(&mut self, obs: Vec<Observation>) {
            self.inner.observe_batch(obs)
        }
        fn snapshot(&self) -> Option<Box<dyn std::any::Any + Send>> {
            self.inner.snapshot()
        }
        fn snapshot_beats_replay(&self) -> bool {
            self.snapshot
        }
        fn restore(&mut self, snapshot: &(dyn std::any::Any + Send)) -> bool {
            self.inner.restore(snapshot)
        }
        fn drain_degradations(&mut self) -> Vec<llamatune_optim::DegradationEvent> {
            self.inner.drain_degradations()
        }
    }

    /// `factory`'s optimizer, retracting by snapshot-restore (`true`) or
    /// by rebuild-and-replay (`false`) whatever its own hint says.
    fn forced(factory: fn() -> Box<dyn Optimizer>, snapshot: bool) -> OptimizerFactory {
        Box::new(move || Box::new(Forced { inner: factory(), snapshot }) as Box<dyn Optimizer>)
    }

    /// The determinism contract of snapshot-based retraction: restoring
    /// the pre-batch snapshot and feeding the new reals leaves the inner
    /// optimizer in exactly the state rebuild-and-replay would — so both
    /// strategies, and the optimizer's own choice between them, emit
    /// bit-identical suggestion streams over a whole batched campaign,
    /// for every snapshot-capable optimizer.
    #[test]
    fn retraction_modes_produce_identical_streams() {
        use llamatune_optim::{GpBo, GpConfig, OptimizerKind};
        type TestFactory = fn() -> Box<dyn Optimizer>;
        let factories: Vec<(&str, TestFactory)> = vec![
            ("smac", || Box::new(Smac::new(SearchSpec::continuous(2), SmacConfig::default(), 5))),
            ("gp-bo", || Box::new(GpBo::new(SearchSpec::continuous(2), GpConfig::default(), 5))),
            ("random", || Box::new(RandomSearch::new(SearchSpec::continuous(2), 5))),
            ("ddpg", || OptimizerKind::Ddpg.build(&SearchSpec::continuous(2), 5)),
        ];
        for (name, factory) in factories {
            let reference = drive(BatchSuggest::new(Box::new(factory)), 3, 5);
            let a = drive(BatchSuggest::new(forced(factory, true)), 3, 5);
            let b = drive(BatchSuggest::new(forced(factory, false)), 3, 5);
            assert_eq!(reference, a, "{name}: snapshot retraction changed the suggestion stream");
            assert_eq!(a, b, "{name}: retraction strategy changed the suggestion stream");
        }
    }

    /// A snapshot-capable optimizer retracts without touching the
    /// factory when snapshot-restore is forced.
    #[test]
    fn snapshot_retraction_skips_the_factory_rebuild() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let rebuilds = Arc::new(AtomicUsize::new(0));
        let counter = rebuilds.clone();
        let mut opt = BatchSuggest::new(Box::new(move || -> Box<dyn Optimizer> {
            counter.fetch_add(1, Ordering::SeqCst);
            let smac = Smac::new(SearchSpec::continuous(2), SmacConfig::default(), 3);
            Box::new(Forced { inner: Box::new(smac), snapshot: true })
        }));
        assert_eq!(rebuilds.load(Ordering::SeqCst), 1, "one build at construction");
        drop(drive_mut(&mut opt, 3, 4));
        assert_eq!(
            rebuilds.load(Ordering::SeqCst),
            1,
            "snapshot retraction must never rebuild a snapshot-capable optimizer"
        );
    }

    /// Retraction follows each optimizer's cost hint: SMAC (whose
    /// snapshot clones the cached forest) retracts by rebuild-and-
    /// replay, GP-BO by snapshot-restore.
    #[test]
    fn auto_mode_follows_the_optimizer_cost_hint() {
        use llamatune_optim::{GpBo, GpConfig};
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let rebuilds = Arc::new(AtomicUsize::new(0));
        let counter = rebuilds.clone();
        let mut smac = BatchSuggest::new(Box::new(move || -> Box<dyn Optimizer> {
            counter.fetch_add(1, Ordering::SeqCst);
            Box::new(Smac::new(SearchSpec::continuous(2), SmacConfig::default(), 3))
        }));
        drop(drive_mut(&mut smac, 3, 4));
        assert!(rebuilds.load(Ordering::SeqCst) > 1, "SMAC must retract via rebuild-and-replay");

        let rebuilds = Arc::new(AtomicUsize::new(0));
        let counter = rebuilds.clone();
        let mut gp = BatchSuggest::new(Box::new(move || -> Box<dyn Optimizer> {
            counter.fetch_add(1, Ordering::SeqCst);
            Box::new(GpBo::new(SearchSpec::continuous(2), GpConfig::default(), 3))
        }));
        drop(drive_mut(&mut gp, 3, 4));
        assert_eq!(rebuilds.load(Ordering::SeqCst), 1, "GP-BO must retract via snapshot-restore");
    }

    /// Like `drive` but borrowing, so the caller keeps the wrapper.
    fn drive_mut(opt: &mut BatchSuggest, q: usize, rounds: usize) -> Vec<Vec<f64>> {
        let mut all = Vec::new();
        for _ in 0..rounds {
            let batch = opt.suggest_batch(q);
            let obs: Vec<Observation> = batch
                .iter()
                .map(|x| Observation { x: x.clone(), y: sphere(x), metrics: vec![] })
                .collect();
            all.extend(batch);
            opt.observe_batch(obs);
        }
        all
    }
}
