//! The state-checkpoint contract of [`Optimizer::snapshot`] /
//! [`Optimizer::restore`], pinned across every snapshot-capable
//! optimizer with seeded equivalence loops: restoring a snapshot must
//! return the optimizer to a state whose subsequent suggestions are
//! *identical* to an optimizer that never took the detour. This is the
//! exactness the runtime's constant-liar wrapper builds its O(copy)
//! lie retraction on.

use llamatune_optim::{
    Ddpg, GpBo, Observation, Optimizer, ParamKind, RandomSearch, SearchSpec, Smac,
};

/// A deterministic multi-modal objective over the unit cube.
fn objective(x: &[f64]) -> f64 {
    let bowl: f64 = x.iter().map(|v| -(v - 0.6) * (v - 0.6)).sum();
    let ripple: f64 = x.iter().map(|v| (7.0 * v).sin() * 0.05).sum();
    bowl + ripple
}

fn mixed_spec() -> SearchSpec {
    SearchSpec {
        params: vec![
            ParamKind::Continuous { buckets: None },
            ParamKind::Categorical { n: 3 },
            ParamKind::Continuous { buckets: Some(50) },
        ],
    }
}

type Builder = fn(u64) -> Box<dyn Optimizer>;

fn snapshot_capable_builders() -> Vec<(&'static str, Builder)> {
    vec![
        ("random", |seed| Box::new(RandomSearch::new(mixed_spec(), seed))),
        ("smac", |seed| Box::new(Smac::new(mixed_spec(), seed))),
        ("gp-bo", |seed| Box::new(GpBo::new(mixed_spec(), seed))),
        ("ddpg", |seed| Box::new(Ddpg::new(mixed_spec(), seed))),
    ]
}

/// Steps taken before the snapshot. DDPG trains once its replay buffer
/// holds a minibatch of 32 transitions (one per step after the first),
/// so it warms up past that: the detour then moves the weights, the Adam
/// moments, the replay buffer, the noise and the RNG.
fn warm_up(name: &str) -> usize {
    if name == "ddpg" {
        36
    } else {
        8
    }
}

/// One suggest→evaluate→observe step.
fn step(opt: &mut dyn Optimizer) -> Vec<f64> {
    let x = opt.suggest();
    let y = objective(&x);
    opt.observe(Observation { x: x.clone(), y, metrics: vec![y, -y] });
    x
}

/// The headline equivalence: `snapshot → observe k (and suggest) →
/// restore` returns the optimizer to a state whose next suggestions
/// match a twin that was simply paused at the snapshot point.
#[test]
fn snapshot_then_restore_rewinds_to_the_twin_state() {
    for seed in [1u64, 7, 42] {
        for (name, build) in snapshot_capable_builders() {
            let mut live = build(seed);
            let mut twin = build(seed);
            // Identical warm-up drives both to the same mid-session state.
            for i in 0..warm_up(name) {
                let a = step(live.as_mut());
                let b = step(twin.as_mut());
                assert_eq!(a, b, "{name} seed {seed}: warm-up diverged at step {i}");
            }
            let snap = live.snapshot().unwrap_or_else(|| {
                panic!("{name} must support snapshots");
            });
            // Detour: more observations (batched and single) plus
            // suggestions, perturbing every piece of mutable state.
            live.observe_batch(
                (0..3)
                    .map(|i| {
                        let x = vec![0.1 * i as f64, 0.5, 0.9];
                        let y = objective(&x);
                        Observation { x, y, metrics: vec![] }
                    })
                    .collect(),
            );
            for _ in 0..4 {
                step(live.as_mut());
            }
            assert!(live.restore(snap.as_ref()), "{name}: restore of own snapshot");
            for i in 0..3 {
                assert_eq!(
                    live.suggest(),
                    twin.suggest(),
                    "{name} seed {seed}: post-restore suggestion {i} diverged"
                );
            }
        }
    }
}

/// Restoring from a foreign snapshot type must refuse and leave the
/// optimizer untouched.
#[test]
fn foreign_snapshots_are_refused_without_side_effects() {
    for (name, build) in snapshot_capable_builders() {
        let mut live = build(3);
        let mut twin = build(3);
        for _ in 0..5 {
            step(live.as_mut());
            step(twin.as_mut());
        }
        let foreign: Box<dyn std::any::Any + Send> = Box::new(("not", "a", "snapshot"));
        assert!(!live.restore(foreign.as_ref()), "{name}: foreign snapshot accepted");
        // Cross-optimizer snapshots are foreign too.
        for (other_name, other_build) in snapshot_capable_builders() {
            if other_name == name {
                continue;
            }
            let other_snap = other_build(3).snapshot().unwrap();
            assert!(!live.restore(other_snap.as_ref()), "{name} accepted a {other_name} snapshot");
        }
        assert_eq!(live.suggest(), twin.suggest(), "{name}: refused restore mutated state");
    }
}

/// Batched observation (the replay path's entry point) must leave the
/// GP in exactly the state sequential observes produce, including when
/// the batch crosses refit boundaries.
#[test]
fn gp_observe_batch_is_sequentially_equivalent() {
    for batch_len in [1usize, 3, 7, 12] {
        let mut batched = GpBo::new(mixed_spec(), 13);
        let mut sequential = GpBo::new(mixed_spec(), 13);
        let obs: Vec<Observation> = (0..batch_len)
            .map(|i| {
                let t = i as f64 / batch_len as f64;
                let x = vec![t, 1.0 - t, (t * 2.0) % 1.0];
                let y = objective(&x);
                Observation { x, y, metrics: vec![] }
            })
            .collect();
        for o in obs.clone() {
            sequential.observe(o);
        }
        batched.observe_batch(obs);
        for i in 0..3 {
            assert_eq!(
                batched.suggest(),
                sequential.suggest(),
                "batch_len {batch_len}: suggestion {i} diverged"
            );
        }
    }
}
