//! DDPG: Deep Deterministic Policy Gradient (Lillicrap et al. 2016), in
//! the CDBTune/QTune configuration-tuning formulation [38, 18]:
//!
//! * **state** — the DBMS's internal metrics vector for the current
//!   configuration (27 system-wide metrics in the paper);
//! * **action** — the next configuration, as a unit-space vector;
//! * **reward** — CDBTune's compound delta against both the initial and
//!   the previous performance.
//!
//! # Settings
//!
//! DDPG runs at one fixed setting, private constants beside the code that
//! reads them. The state is the first `DEFAULT_METRIC_DIM` = 27 metrics.
//! The actor and the critic each have two hidden layers of `HIDDEN` = 64
//! units, with target copies soft-updated at `TAU` = 0.01. Both train by
//! Adam at `ACTOR_LR` = `CRITIC_LR` = 1e-3, with TD targets discounted by
//! `GAMMA` = 0.9. Each observation runs `TRAIN_STEPS_PER_OBSERVE` = 5
//! steps on minibatches of `BATCH_SIZE` = 32 transitions, drawn from a
//! replay buffer of `REPLAY_CAPACITY` = 2 000. Exploration is OU noise
//! that starts at `NOISE_SIGMA` = 0.4 and decays by `NOISE_DECAY` = 0.985
//! per suggestion. The structure (metrics as state, replay, target
//! networks, OU exploration, the reward) is CDBTune's setup; the values
//! are this crate's.
//!
//! A training step (`Ddpg::train`) runs its whole minibatch through each
//! network at once, on scratch the optimizer owns; [`crate::nn`] states
//! the layout and the bit-identity contract, and `reference::train` (test
//! builds only) is the one-sample-at-a-time loop it replaced, which the
//! equivalence proptest below drives side by side with it.
//!
//! [`Optimizer::snapshot`] is one clone of the whole optimizer — the four
//! networks with their gradients and Adam moments, the replay buffer, the
//! noise and the RNG: about 1 MB at d = 16 — and `restore` copies it
//! back, so the constant liar rewinds a round without rebuilding DDPG.

use crate::nn::{scatter, Activation, Mlp, Tape};
use crate::spec::{Observation, Optimizer, SearchSpec, DEFAULT_METRIC_DIM};
use llamatune_math::{Normal, RunningStats};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Units in each of the two hidden layers of all four networks.
const HIDDEN: usize = 64;
/// Adam step size of the actor.
const ACTOR_LR: f64 = 1e-3;
/// Adam step size of the critic.
const CRITIC_LR: f64 = 1e-3;
/// Discount of the TD target.
const GAMMA: f64 = 0.9;
/// Soft-update rate of the target networks.
const TAU: f64 = 0.01;
/// Transitions per minibatch.
const BATCH_SIZE: usize = 32;
/// Training steps per observation.
const TRAIN_STEPS_PER_OBSERVE: usize = 5;
/// Transitions the replay buffer holds before it overwrites the oldest.
const REPLAY_CAPACITY: usize = 2_000;
/// Initial OU noise scale.
const NOISE_SIGMA: f64 = 0.4;
/// Multiplicative decay of the OU noise scale per suggestion.
const NOISE_DECAY: f64 = 0.985;

/// The shape of the networks and of a training step: [`Ddpg::new`] always
/// builds `Shape::DDPG`, the constants above over `DEFAULT_METRIC_DIM`
/// metrics. The kernel's equivalence test builds other shapes.
#[derive(Clone, Copy)]
struct Shape {
    /// Metrics-vector length: the state the actor and critic read.
    state_dim: usize,
    hidden: usize,
    batch_size: usize,
    train_steps_per_observe: usize,
}

impl Shape {
    const DDPG: Shape = Shape {
        state_dim: DEFAULT_METRIC_DIM,
        hidden: HIDDEN,
        batch_size: BATCH_SIZE,
        train_steps_per_observe: TRAIN_STEPS_PER_OBSERVE,
    };
}

#[derive(Clone)]
struct Transition {
    state: Vec<f64>,
    action: Vec<f64>,
    reward: f64,
    next_state: Vec<f64>,
}

/// The DDPG optimizer.
#[derive(Clone)]
pub struct Ddpg {
    spec: SearchSpec,
    shape: Shape,
    rng: StdRng,

    actor: Mlp,
    critic: Mlp,
    actor_target: Mlp,
    critic_target: Mlp,

    replay: Vec<Transition>,
    replay_cursor: usize,

    /// Per-metric normalization statistics.
    norms: Vec<RunningStats>,

    /// OU noise state, one per action dimension.
    noise: Vec<f64>,
    sigma: f64,

    /// Rolling episode state.
    last_state: Option<Vec<f64>>,
    last_action: Option<Vec<f64>>,
    initial_perf: Option<f64>,
    previous_perf: Option<f64>,

    scratch: Scratch,
}

/// What a training step works in, sized once for the minibatch
/// and reused, so a step allocates nothing.
#[derive(Clone)]
struct Scratch {
    /// The step's replay indices, in minibatch order.
    picks: Vec<usize>,
    /// The actor's shape: the target policy's pass, then the policy's own.
    actor: Tape,
    /// The critic's shape: the target critic's pass, then the critic's two.
    critic: Tape,
    /// TD targets, one per pick.
    td_targets: Vec<f64>,
}

/// The `i`-th DBMS metric as the statistics and the state read it: a
/// missing one (a crashed run reports none) and a non-finite one (a
/// counter the DBMS could not produce) both read `0.0`, so one bad
/// reading cannot turn a running mean — and through it every later
/// state and the first-layer weights — into NaN.
fn metric(metrics: &[f64], i: usize) -> f64 {
    metrics.get(i).copied().filter(|m| m.is_finite()).unwrap_or(0.0)
}

impl Ddpg {
    /// Creates a DDPG optimizer over `spec` whose state is the first
    /// [`DEFAULT_METRIC_DIM`] metrics of each observation (the simulated
    /// DBMS reports that many; a shorter vector reads zeros past its end).
    pub fn new(spec: SearchSpec, seed: u64) -> Self {
        Self::build(spec, Shape::DDPG, seed)
    }

    fn build(spec: SearchSpec, shape: Shape, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let (state_dim, hidden, batch) = (shape.state_dim, shape.hidden, shape.batch_size);
        let a_dim = spec.len();
        let actor = Mlp::new(&[state_dim, hidden, hidden, a_dim], Activation::Sigmoid, &mut rng);
        let critic =
            Mlp::new(&[state_dim + a_dim, hidden, hidden, 1], Activation::Linear, &mut rng);
        let actor_target = actor.clone();
        let critic_target = critic.clone();
        let scratch = Scratch {
            picks: Vec::with_capacity(batch),
            actor: Tape::new(&actor, batch),
            critic: Tape::new(&critic, batch),
            td_targets: vec![0.0; batch],
        };
        Ddpg {
            spec,
            rng,
            actor,
            critic,
            actor_target,
            critic_target,
            replay: Vec::new(),
            replay_cursor: 0,
            norms: vec![RunningStats::new(); state_dim],
            noise: vec![0.0; a_dim],
            sigma: NOISE_SIGMA,
            shape,
            last_state: None,
            last_action: None,
            initial_perf: None,
            previous_perf: None,
            scratch,
        }
    }

    fn normalize(&self, metrics: &[f64]) -> Vec<f64> {
        (0..self.shape.state_dim)
            .map(|i| {
                let raw = metric(metrics, i);
                let s = &self.norms[i];
                if s.count() < 2 || s.std_dev() < 1e-9 {
                    0.0
                } else {
                    ((raw - s.mean()) / s.std_dev()).clamp(-5.0, 5.0)
                }
            })
            .collect()
    }

    /// CDBTune's reward (Section 4.2 of \[38\]): combines the change against
    /// the initial performance and against the previous iteration.
    fn reward(&self, perf: f64) -> f64 {
        let (Some(initial), Some(previous)) = (self.initial_perf, self.previous_perf) else {
            return 0.0;
        };
        let d0 = (perf - initial) / initial.abs().max(1e-9);
        let dp = (perf - previous) / previous.abs().max(1e-9);
        if d0 > 0.0 {
            ((1.0 + d0).powi(2) - 1.0) * (1.0 + dp).abs()
        } else {
            -(((1.0 - d0).powi(2) - 1.0) * (1.0 - dp).abs())
        }
    }

    fn push_transition(&mut self, t: Transition) {
        if self.replay.len() < REPLAY_CAPACITY {
            self.replay.push(t);
        } else {
            self.replay[self.replay_cursor] = t;
            self.replay_cursor = (self.replay_cursor + 1) % REPLAY_CAPACITY;
        }
    }

    fn train(&mut self) {
        let Ddpg {
            shape, rng, replay, actor, critic, actor_target, critic_target, scratch, ..
        } = self;
        let batch = shape.batch_size;
        if replay.len() < batch {
            return;
        }
        let s_rows = shape.state_dim * batch;
        let action_rows = shape.state_dim..shape.state_dim + actor.output_dim();
        let Scratch { picks, actor: actor_tape, critic: critic_tape, td_targets } = scratch;
        for _ in 0..shape.train_steps_per_observe {
            // The step's minibatch: the loop's only draws.
            picks.clear();
            picks.extend((0..batch).map(|_| rng.random_range(0..replay.len())));

            // TD targets through the target networks: r + γ·Q'(s', μ'(s')).
            scatter(actor_tape.input_mut(), batch, picks.iter().map(|&p| &replay[p].next_state));
            actor_target.forward_batch(actor_tape);
            let (next_states, next_actions) = critic_tape.input_mut().split_at_mut(s_rows);
            next_states.copy_from_slice(&actor_tape.input()[..s_rows]);
            next_actions.copy_from_slice(actor_tape.output());
            critic_target.forward_batch(critic_tape);
            for ((target, &p), next_q) in
                td_targets.iter_mut().zip(&*picks).zip(critic_tape.output())
            {
                *target = replay[p].reward + GAMMA * next_q;
            }

            // Critic update on the minibatch.
            let (states, actions) = critic_tape.input_mut().split_at_mut(s_rows);
            scatter(states, batch, picks.iter().map(|&p| &replay[p].state));
            scatter(actions, batch, picks.iter().map(|&p| &replay[p].action));
            critic.forward_batch(critic_tape);
            let (q, grad) = critic_tape.output_and_grad_mut();
            for ((grad, q), target) in grad.iter_mut().zip(q).zip(&*td_targets) {
                // 0.5 * (q - target)^2 -> grad = q - target.
                *grad = q - target;
            }
            critic.backward(critic_tape);
            critic.adam_step(CRITIC_LR, batch);

            // Actor update: ascend dQ/da through the (fresh) critic.
            actor_tape.input_mut().copy_from_slice(&critic_tape.input()[..s_rows]);
            actor.forward_batch(actor_tape);
            critic_tape.input_mut()[s_rows..].copy_from_slice(actor_tape.output());
            critic.forward_batch(critic_tape);
            critic_tape.output_grad_mut().fill(1.0);
            let dq_da = critic.input_gradient(critic_tape, action_rows.clone());
            // Gradient *descent* on -Q.
            for (neg, g) in actor_tape.output_grad_mut().iter_mut().zip(dq_da) {
                *neg = -g;
            }
            actor.backward(actor_tape);
            actor.adam_step(ACTOR_LR, batch);

            // Soft-update targets.
            actor_target.soft_update_from(actor, TAU);
            critic_target.soft_update_from(critic, TAU);
        }
    }
}

impl Optimizer for Ddpg {
    fn suggest(&mut self) -> Vec<f64> {
        let action = match &self.last_state {
            None => self.spec.sample(&mut self.rng),
            Some(state) => {
                let mut a = self.actor.forward(state);
                // Ornstein–Uhlenbeck exploration noise, one draw per
                // action dimension.
                let (theta, normal) = (0.15, Normal::new(0.0, 1.0));
                for (v, n) in a.iter_mut().zip(&mut self.noise) {
                    *n += theta * (0.0 - *n) + self.sigma * normal.sample(&mut self.rng);
                    *v = (*v + *n).clamp(0.0, 1.0);
                }
                self.sigma *= NOISE_DECAY;
                self.spec.snap(&a)
            }
        };
        self.last_action = Some(action.clone());
        action
    }

    fn observe(&mut self, obs: Observation) {
        // Update normalization statistics first.
        for (i, stat) in self.norms.iter_mut().enumerate() {
            stat.push(metric(&obs.metrics, i));
        }
        let state = self.normalize(&obs.metrics);
        let reward = self.reward(obs.y);
        if let (Some(prev_state), Some(action)) = (self.last_state.take(), self.last_action.take())
        {
            self.push_transition(Transition {
                state: prev_state,
                action,
                reward,
                next_state: state.clone(),
            });
            self.train();
        }
        if self.initial_perf.is_none() {
            self.initial_perf = Some(obs.y);
        }
        self.previous_perf = Some(obs.y);
        self.last_state = Some(state);
    }

    fn name(&self) -> &'static str {
        "ddpg"
    }

    fn snapshot(&self) -> Option<Box<dyn std::any::Any + Send>> {
        Some(Box::new(self.clone()))
    }

    fn restore(&mut self, snapshot: &(dyn std::any::Any + Send)) -> bool {
        let Some(s) = snapshot.downcast_ref::<Ddpg>() else { return false };
        self.clone_from(s);
        true
    }
}

/// The training loop the minibatch kernel replaced, as the parent commit
/// had it: one replayed sample at a time through [`crate::nn::reference`].
/// The oracle of the equivalence proptest below.
#[cfg(test)]
mod reference {
    use super::{Ddpg, ACTOR_LR, CRITIC_LR, GAMMA, TAU};
    use crate::nn::reference as nn;
    use rand::RngExt;

    pub(super) fn train(ddpg: &mut Ddpg) {
        let shape = ddpg.shape;
        if ddpg.replay.len() < shape.batch_size {
            return;
        }
        for _ in 0..shape.train_steps_per_observe {
            // Critic update on a minibatch.
            let mut actor_grads: Vec<(Vec<f64>, Vec<f64>)> = Vec::new();
            for _ in 0..shape.batch_size {
                let idx = ddpg.rng.random_range(0..ddpg.replay.len());
                let (state, action, reward, next_state) = {
                    let t = &ddpg.replay[idx];
                    (t.state.clone(), t.action.clone(), t.reward, t.next_state.clone())
                };
                // TD target through the target networks.
                let next_action = nn::forward(&ddpg.actor_target, &next_state);
                let mut ns_input = next_state.clone();
                ns_input.extend_from_slice(&next_action);
                let target_q = reward + GAMMA * nn::forward(&ddpg.critic_target, &ns_input)[0];

                let mut sa = state.clone();
                sa.extend_from_slice(&action);
                let q = nn::forward(&ddpg.critic, &sa)[0];
                // 0.5 * (q - target)^2 -> grad = q - target.
                nn::backward(&mut ddpg.critic, &sa, &[q - target_q]);
                actor_grads.push((state, action));
            }
            nn::adam_step(&mut ddpg.critic, CRITIC_LR, shape.batch_size);

            // Actor update: ascend dQ/da through the (fresh) critic.
            for (state, _) in &actor_grads {
                let action = nn::forward(&ddpg.actor, state);
                let mut sa = state.clone();
                sa.extend_from_slice(&action);
                // dQ/d(input) of the critic; take the action slice.
                let dq = nn::input_gradient(&ddpg.critic, &sa, &[1.0]);
                let dq_da = &dq[shape.state_dim..];
                // Gradient *descent* on -Q.
                let neg: Vec<f64> = dq_da.iter().map(|g| -g).collect();
                nn::backward(&mut ddpg.actor, state, &neg);
            }
            nn::adam_step(&mut ddpg.actor, ACTOR_LR, shape.batch_size);

            // Soft-update targets.
            nn::soft_update_from(&mut ddpg.actor_target, &ddpg.actor, TAU);
            nn::soft_update_from(&mut ddpg.critic_target, &ddpg.critic, TAU);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::reference as nn_reference;

    fn spec() -> SearchSpec {
        SearchSpec::continuous(4)
    }

    /// Synthetic environment: performance peaks when the action matches a
    /// target vector; "metrics" leak the current action (so the state is
    /// informative, mimicking how DBMS metrics reflect the configuration).
    fn env(action: &[f64]) -> (f64, Vec<f64>) {
        let target = [0.9, 0.1, 0.6, 0.4];
        let d: f64 = action.iter().zip(target).map(|(a, t)| (a - t) * (a - t)).sum();
        let perf = 100.0 * (-d).exp();
        let mut metrics = action.to_vec();
        metrics.extend([perf / 100.0, d]);
        (perf, metrics)
    }

    #[test]
    fn ddpg_improves_over_its_own_start() {
        // RL needs many samples (the paper makes the same observation);
        // average the learning effect over seeds to keep the test stable.
        let mut improvements = Vec::new();
        for seed in 0..3 {
            let mut opt = Ddpg::new(spec(), seed);
            let mut early = Vec::new();
            let mut late = Vec::new();
            for i in 0..160 {
                let a = opt.suggest();
                let (perf, metrics) = env(&a);
                if i < 20 {
                    early.push(perf);
                }
                if i >= 140 {
                    late.push(perf);
                }
                opt.observe(Observation { x: a, y: perf, metrics });
            }
            improvements.push(llamatune_math::mean(&late) - llamatune_math::mean(&early));
        }
        let mean_improvement = llamatune_math::mean(&improvements);
        assert!(
            mean_improvement > 0.0,
            "policy should improve with training: mean improvement {mean_improvement:.2} \
             ({improvements:?})"
        );
    }

    #[test]
    fn reward_signs_follow_cdbtune() {
        let mut opt = Ddpg::new(spec(), 1);
        opt.initial_perf = Some(100.0);
        opt.previous_perf = Some(110.0);
        assert!(opt.reward(120.0) > 0.0, "better than initial -> positive");
        assert!(opt.reward(80.0) < 0.0, "worse than initial -> negative");
        // Improvement against initial dominated by the squared term.
        let small = opt.reward(101.0);
        let large = opt.reward(150.0);
        assert!(large > small);
    }

    #[test]
    fn first_suggestion_is_random_then_policy_driven() {
        let mut opt = Ddpg::new(spec(), 9);
        let a1 = opt.suggest();
        assert_eq!(a1.len(), 4);
        let (perf, metrics) = env(&a1);
        opt.observe(Observation { x: a1, y: perf, metrics });
        let a2 = opt.suggest();
        assert!(a2.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn replay_buffer_is_bounded() {
        let mut opt = Ddpg::new(spec(), 5);
        let transition = |reward: usize| Transition {
            state: vec![0.0; DEFAULT_METRIC_DIM],
            action: vec![0.5; 4],
            reward: reward as f64,
            next_state: vec![0.0; DEFAULT_METRIC_DIM],
        };
        for i in 0..REPLAY_CAPACITY + 10 {
            opt.push_transition(transition(i));
        }
        assert_eq!(opt.replay.len(), REPLAY_CAPACITY);
        // The ten oldest were overwritten in place, oldest first.
        let rewards: Vec<f64> = opt.replay[..11].iter().map(|t| t.reward).collect();
        let want: Vec<f64> =
            (REPLAY_CAPACITY..REPLAY_CAPACITY + 10).chain([10]).map(|r| r as f64).collect();
        assert_eq!(rewards, want);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = Ddpg::new(spec(), 21);
        let mut b = Ddpg::new(spec(), 21);
        for _ in 0..6 {
            let xa = a.suggest();
            let xb = b.suggest();
            assert_eq!(xa, xb);
            let (perf, metrics) = env(&xa);
            a.observe(Observation { x: xa, y: perf, metrics: metrics.clone() });
            b.observe(Observation { x: xb, y: perf, metrics });
        }
    }

    #[test]
    fn short_metrics_vectors_are_padded() {
        // A crashed run reports an all-zero metrics vector; shorter vectors
        // must not panic either.
        let mut opt = Ddpg::new(spec(), 2);
        let a = opt.suggest();
        opt.observe(Observation { x: a, y: 1.0, metrics: vec![1.0, 2.0] });
        let a2 = opt.suggest();
        assert_eq!(a2.len(), 4);
    }

    /// PR 16 made a NaN/±inf metric storable and replayable; fed to the
    /// running statistics it made that metric's mean NaN for good, every
    /// later state carried a NaN, and within one training step the policy
    /// collapsed to a constant ≈ 0.5 in every dimension.
    #[test]
    fn a_non_finite_metric_does_not_kill_the_policy() {
        let mut opt = Ddpg::new(spec(), 3);
        // No exploration noise: the spread below is the policy's own.
        opt.sigma = 0.0;
        let mut late = Vec::new();
        for i in 0..80 {
            let a = opt.suggest();
            assert!(a.iter().all(|v| v.is_finite()), "trial {i}: {a:?}");
            let (perf, mut metrics) = env(&a);
            match i {
                40 => metrics[1] = f64::NAN,
                41 => metrics[4] = f64::INFINITY,
                42 => metrics[0] = f64::NEG_INFINITY,
                _ => {}
            }
            if i > 42 {
                late.push(a.clone());
            }
            opt.observe(Observation { x: a, y: perf, metrics });
        }
        assert!(opt.norms.iter().all(|s| s.mean().is_finite() && s.std_dev().is_finite()));
        for net in [&opt.actor, &opt.critic, &opt.actor_target, &opt.critic_target] {
            let out = net.forward(&vec![0.25; net.input_dim()]);
            assert!(out.iter().all(|v| v.is_finite()), "{out:?}");
        }
        // Still a policy: the action depends on the state, and the late
        // suggestions are not one repeated point.
        let at = |m: f64| opt.actor.forward(&[m; DEFAULT_METRIC_DIM]);
        assert_ne!(at(-1.0), at(1.0), "the actor ignores its input");
        let spread = (0..4)
            .map(|d| {
                let column: Vec<f64> = late.iter().map(|a| a[d]).collect();
                llamatune_math::std_dev(&column)
            })
            .fold(0.0, f64::max);
        assert!(spread > 1e-3, "suggestions collapsed to one point: {:?}", late.last());
    }

    /// A DDPG instance of a random shape — widths below, at and past every
    /// block width of the kernel, any pair of heads, a few units silenced
    /// into exact ReLU ties — over a replay buffer barely larger than the
    /// minibatch (so indices repeat) whose states mix ordinary values with
    /// `0.0`, `-0.0` and all-zero vectors. Built twice from one seed, it
    /// gives the kernel and the reference identical starting points.
    fn random_instance(seed: u64) -> Ddpg {
        use crate::nn::Activation::{Linear, Sigmoid, Tanh};
        let mut rng = StdRng::seed_from_u64(seed);
        let (state_dim, a_dim) = (rng.random_range(1..30), rng.random_range(1..96));
        let shape = Shape {
            state_dim,
            hidden: rng.random_range(1..70),
            batch_size: rng.random_range(1..40),
            train_steps_per_observe: rng.random_range(1..4),
        };
        let mut opt = Ddpg::build(SearchSpec::continuous(a_dim), shape, seed ^ 0x5eed);
        let heads = [Sigmoid, Tanh, Linear];
        let (actor_head, critic_head) =
            (heads[rng.random_range(0..3usize)], heads[rng.random_range(0..3usize)]);
        for _ in 0..rng.random_range(0..4) {
            let (layer, unit) = (rng.random_range(0..2), rng.random_range(0..shape.hidden));
            nn_reference::silence_unit(&mut opt.actor, layer, unit);
            nn_reference::silence_unit(&mut opt.critic, layer, unit);
        }
        nn_reference::set_head(&mut opt.actor, actor_head);
        nn_reference::set_head(&mut opt.critic, critic_head);
        opt.actor_target = opt.actor.clone();
        opt.critic_target = opt.critic.clone();

        let state = |rng: &mut StdRng| -> Vec<f64> {
            let all_zero = rng.random_range(0..6) == 0;
            (0..state_dim)
                .map(|_| match rng.random_range(0..8) {
                    _ if all_zero => 0.0,
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.random_range(-5.0..5.0),
                })
                .collect()
        };
        for _ in 0..shape.batch_size + rng.random_range(0..5usize) {
            let transition = Transition {
                state: state(&mut rng),
                action: (0..a_dim)
                    .map(|_| [0.0, 1.0, rng.random()][rng.random_range(0..3usize)])
                    .collect(),
                reward: rng.random_range(-2.0..2.0),
                next_state: state(&mut rng),
            };
            opt.push_transition(transition);
        }
        opt
    }

    proptest::proptest! {
        /// The kernel's contract: after the same training steps on the
        /// same replay buffer and RNG, every weight, bias, Adam moment and
        /// target parameter of the one-sample-at-a-time loop, bit for bit,
        /// and the RNG left where that loop leaves it — on every copy of
        /// the kernel the CPU runs.
        #[test]
        fn train_matches_the_reference_bit_for_bit(seed in proptest::any::<u64>()) {
            for isa in llamatune_math::Isa::available() {
                let (mut kernel, mut oracle) = (random_instance(seed), random_instance(seed));
                let batch = kernel.shape.batch_size;
                kernel.scratch.actor = Tape::new_on(isa, &kernel.actor, batch);
                kernel.scratch.critic = Tape::new_on(isa, &kernel.critic, batch);
                for round in 0..2 {
                    kernel.train();
                    reference::train(&mut oracle);
                    let nets = |d: &Ddpg| {
                        [&d.actor, &d.critic, &d.actor_target, &d.critic_target]
                            .map(nn_reference::bits)
                    };
                    assert_eq!(nets(&kernel), nets(&oracle), "seed {seed}, round {round}, {isa:?}");
                    assert_eq!(kernel.rng.random::<u64>(), oracle.rng.random::<u64>());
                }
            }
        }
    }
}
