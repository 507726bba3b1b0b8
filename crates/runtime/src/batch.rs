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
//! Retraction is a restore: before fantasizing, the wrapper captures the
//! inner optimizer's state through [`Optimizer::snapshot`]; when the real
//! results arrive it restores that state and feeds in only those results
//! — a state copy, never a rebuild of the optimizer or a replay of its
//! history. Restoration is exact by contract (bit-identical state), so
//! when a campaign is driven entirely through `suggest_batch` /
//! `observe_batch` rounds — the only way the session loops use the
//! wrapper — each round starts from a state that is a pure function of
//! the real history: the state a fresh optimizer reaches by replaying
//! that history, which is what lets a resumed session continue
//! bit-identically. `retraction_modes_produce_identical_streams` below
//! holds the wrapper to that rebuild-and-replay liar, kept there as the
//! oracle. An optimizer that cannot snapshot is refused at construction.
//!
//! Interleaving *bare* `suggest()` calls between rounds voids the
//! pure-function property: a single suggest advances inner RNG that the
//! next snapshot preserves (sequential use must degenerate to the
//! wrapped optimizer, so the wrapper cannot unwind it). Resumable
//! campaigns never do this.

use llamatune_optim::{Observation, Optimizer};
use std::any::Any;

/// Wraps any snapshot-capable [`Optimizer`] with constant-liar batch
/// suggestion. Itself an [`Optimizer`], so it drops into
/// [`llamatune::run_session_resumable`] (or any other session loop)
/// unchanged.
pub struct BatchSuggest {
    inner: Box<dyn Optimizer>,
    /// The minimum real score so far, `None` before the first one.
    worst: Option<f64>,
    /// The inner optimizer's state from just before the current round's
    /// fantasizing; `Some` while lies are outstanding.
    pending: Option<Box<dyn Any + Send>>,
}

/// `inner`'s state, or a panic naming the capability the liar needs.
fn snapshot(inner: &dyn Optimizer) -> Box<dyn Any + Send> {
    inner.snapshot().unwrap_or_else(|| {
        panic!(
            "constant-liar batching retracts its lies by restoring a snapshot, \
             and `{}` returns None from Optimizer::snapshot",
            inner.name()
        )
    })
}

impl BatchSuggest {
    /// Wraps the optimizer `build` returns. Panics when that optimizer
    /// cannot snapshot its state.
    pub fn new(build: impl FnOnce() -> Box<dyn Optimizer>) -> Self {
        let inner = build();
        snapshot(inner.as_ref());
        BatchSuggest { inner, worst: None, pending: None }
    }

    /// The lie: the minimum real score so far (the classic pessimistic
    /// "CL-min", which strongly repels pending points under
    /// maximization); a neutral `0.0` before anything real was observed.
    fn lie(&self) -> f64 {
        self.worst.unwrap_or(0.0)
    }

    fn record(&mut self, obs: &Observation) {
        self.worst = Some(self.worst.unwrap_or(f64::INFINITY).min(obs.y));
    }

    /// Restores the pre-round state if lies are outstanding, then feeds
    /// `real` in as one batch, so surrogates with batched incremental
    /// paths (the GP's deferred weight refresh) pay their per-batch costs
    /// once — the trait contract makes `observe_batch` sequentially
    /// equivalent.
    fn retract(&mut self, real: Vec<Observation>) {
        if let Some(snapshot) = self.pending.take() {
            let restored = self.inner.restore(snapshot.as_ref());
            assert!(restored, "`{}` refused its own snapshot", self.inner.name());
        }
        self.inner.observe_batch(real);
    }
}

impl Optimizer for BatchSuggest {
    fn suggest(&mut self) -> Vec<f64> {
        if self.pending.is_some() {
            self.retract(Vec::new());
        }
        self.inner.suggest()
    }

    fn observe(&mut self, obs: Observation) {
        self.record(&obs);
        if self.pending.is_some() {
            self.retract(vec![obs]);
        } else {
            self.inner.observe(obs);
        }
    }

    fn name(&self) -> &'static str {
        "constant-liar"
    }

    fn suggest_batch(&mut self, q: usize) -> Vec<Vec<f64>> {
        if self.pending.is_some() {
            self.retract(Vec::new());
        }
        self.pending = Some(snapshot(self.inner.as_ref()));
        let lie = self.lie();
        let mut batch = Vec::with_capacity(q);
        for _ in 0..q {
            let x = self.inner.suggest();
            // Fantasize: the pending point "scored" the lie, repelling
            // the next suggestion. Retracted when real results arrive.
            self.inner.observe(Observation { x: x.clone(), y: lie, metrics: Vec::new() });
            batch.push(x);
        }
        batch
    }

    fn observe_batch(&mut self, obs: Vec<Observation>) {
        for o in &obs {
            self.record(o);
        }
        // With no lies outstanding (LHS-init rounds, history replay on
        // resume) this feeds the results straight through.
        self.retract(obs);
    }

    fn drain_degradations(&mut self) -> Vec<llamatune_optim::DegradationEvent> {
        self.inner.drain_degradations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llamatune_optim::{GpBo, OptimizerKind, RandomSearch, SearchSpec, Smac};

    fn smac(seed: u64, d: usize) -> Box<dyn Optimizer> {
        Box::new(Smac::new(SearchSpec::continuous(d), seed))
    }

    fn random(seed: u64, d: usize) -> Box<dyn Optimizer> {
        Box::new(RandomSearch::new(SearchSpec::continuous(d), seed))
    }

    fn sphere(x: &[f64]) -> f64 {
        -x.iter().map(|v| (v - 0.5) * (v - 0.5)).sum::<f64>()
    }

    /// Drives `opt` for `rounds` rounds of batch size `q` on the sphere;
    /// the point itself stands in for DDPG's metrics.
    fn drive(opt: &mut dyn Optimizer, q: usize, rounds: usize) -> Vec<Vec<f64>> {
        let mut all = Vec::new();
        for _ in 0..rounds {
            let batch = opt.suggest_batch(q);
            let obs: Vec<Observation> = batch
                .iter()
                .map(|x| Observation { x: x.clone(), y: sphere(x), metrics: x.clone() })
                .collect();
            all.extend(batch);
            opt.observe_batch(obs);
        }
        all
    }

    #[test]
    fn batches_are_diverse_under_the_liar() {
        let mut opt = BatchSuggest::new(|| smac(1, 2));
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
        let mut wrapped = BatchSuggest::new(|| smac(9, 2));
        let mut plain = Smac::new(SearchSpec::continuous(2), 9);

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
        let mut wrapped = BatchSuggest::new(|| random(4, 3));
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
        let all = drive(&mut BatchSuggest::new(|| random(4, 3)), 4, 6);
        for (round, pair) in all.chunks(4).collect::<Vec<_>>().windows(2).enumerate() {
            assert_ne!(pair[0], pair[1], "round {} redrew round {round}", round + 1);
        }
        let distinct: std::collections::HashSet<Vec<u64>> =
            all.iter().map(|x| x.iter().map(|v| v.to_bits()).collect()).collect();
        assert_eq!(distinct.len(), all.len(), "every suggestion is a fresh point");
    }

    #[test]
    fn liar_strategies_use_the_real_history() {
        let mut opt = BatchSuggest::new(|| random(1, 1));
        assert_eq!(opt.lie(), 0.0, "no history: neutral lie");
        opt.observe(Observation { x: vec![0.0], y: 2.0, metrics: vec![] });
        opt.observe_batch(vec![
            Observation { x: vec![0.1], y: -4.0, metrics: vec![] },
            Observation { x: vec![0.2], y: 8.0, metrics: vec![] },
        ]);
        assert_eq!(opt.lie(), -4.0);
        // Lies are not history: a fantasized round leaves the lie alone.
        let batch = opt.suggest_batch(2);
        let obs = batch.into_iter().map(|x| Observation { x, y: 1.0, metrics: vec![] });
        opt.observe_batch(obs.collect());
        assert_eq!(opt.lie(), -4.0);
    }

    #[test]
    fn batched_optimization_still_approaches_the_optimum() {
        let all = drive(&mut BatchSuggest::new(|| smac(7, 2)), 4, 10);
        let best = all.iter().map(|x| sphere(x)).fold(f64::NEG_INFINITY, f64::max);
        assert!(best > -0.05, "40 evaluations in batches of 4 should near (0.5, 0.5): {best}");
    }

    /// An optimizer that keeps the default `snapshot` (`None`).
    struct Unsnapshottable;

    impl Optimizer for Unsnapshottable {
        fn suggest(&mut self) -> Vec<f64> {
            vec![0.5]
        }
        fn observe(&mut self, _: Observation) {}
        fn name(&self) -> &'static str {
            "unsnapshottable"
        }
    }

    #[test]
    #[should_panic(expected = "`unsnapshottable` returns None from Optimizer::snapshot")]
    fn optimizers_that_cannot_snapshot_are_refused() {
        BatchSuggest::new(|| Box::new(Unsnapshottable));
    }

    /// The rebuild-and-replay liar that restoring replaced, kept as the
    /// oracle: each retraction builds a fresh optimizer and replays every
    /// real observation in order.
    struct RebuildLiar {
        build: fn() -> Box<dyn Optimizer>,
        inner: Box<dyn Optimizer>,
        real: Vec<Observation>,
        fantasized: bool,
    }

    impl RebuildLiar {
        fn new(build: fn() -> Box<dyn Optimizer>) -> Self {
            RebuildLiar { build, inner: build(), real: Vec::new(), fantasized: false }
        }

        fn retract(&mut self) {
            if self.fantasized {
                self.inner = (self.build)();
                self.inner.observe_batch(self.real.clone());
                self.fantasized = false;
            }
        }
    }

    impl Optimizer for RebuildLiar {
        fn suggest(&mut self) -> Vec<f64> {
            self.retract();
            self.inner.suggest()
        }
        fn observe(&mut self, obs: Observation) {
            self.observe_batch(vec![obs]);
        }
        fn name(&self) -> &'static str {
            "rebuild-liar"
        }
        fn suggest_batch(&mut self, q: usize) -> Vec<Vec<f64>> {
            self.retract();
            let lie = if self.real.is_empty() {
                0.0
            } else {
                self.real.iter().map(|o| o.y).fold(f64::INFINITY, f64::min)
            };
            let mut batch = Vec::with_capacity(q);
            for _ in 0..q {
                let x = self.inner.suggest();
                self.inner.observe(Observation { x: x.clone(), y: lie, metrics: Vec::new() });
                self.fantasized = true;
                batch.push(x);
            }
            batch
        }
        fn observe_batch(&mut self, obs: Vec<Observation>) {
            self.real.extend(obs.iter().cloned());
            if self.fantasized {
                self.retract();
            } else {
                self.inner.observe_batch(obs);
            }
        }
    }

    /// The determinism contract of restore-based retraction: restoring
    /// the pre-batch snapshot and feeding the new reals leaves the inner
    /// optimizer in exactly the state rebuild-and-replay would, so the
    /// two liars emit bit-identical suggestion streams over a whole
    /// batched campaign, for every optimizer family and batch width.
    #[test]
    fn retraction_modes_produce_identical_streams() {
        type Build = fn() -> Box<dyn Optimizer>;
        let builds: [(&str, Build); 4] = [
            ("random", || random(5, 2)),
            ("smac", || smac(5, 2)),
            ("gp-bo", || Box::new(GpBo::new(SearchSpec::continuous(2), 5))),
            ("ddpg", || OptimizerKind::Ddpg.build(&SearchSpec::continuous(2), 5)),
        ];
        for (name, build) in builds {
            for q in [1, 3, 8] {
                let restored = drive(&mut BatchSuggest::new(build), q, 5);
                let rebuilt = drive(&mut RebuildLiar::new(build), q, 5);
                assert_eq!(restored, rebuilt, "{name}, q = {q}: restoring changed the stream");
            }
        }
    }
}
