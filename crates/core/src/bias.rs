//! Special-value biasing (Section 4.1).
//!
//! Hybrid knobs carry a special value (`0`, `-1`) whose behaviour is
//! discontinuous with the rest of the range. Left alone, an optimizer is
//! unlikely to ever sample it (the probability of hitting exactly one value
//! out of hundreds of thousands is negligible), so LlamaTune reserves a
//! fixed probability slice `p` of the knob's *scaled* `[0, 1]` range:
//! values landing in `[0, p)` become the special value; the remainder is
//! uniformly re-scaled onto the non-special range. The method needs no
//! optimizer changes because it is applied after suggestions are made.

use llamatune_space::{ConfigSpace, Domain, KnobValue};

/// Default bias probability: 20% gives a ~90% chance of evaluating each
/// special value at least once among 10 random initial samples.
pub(crate) const DEFAULT_BIAS: f64 = 0.2;

/// Applies special-value biasing to a unit-space point over `space`,
/// mutating it in place. Only hybrid knobs are touched — "otherwise, we
/// might unnecessarily skew the values of other knobs towards non-existent
/// special values" (Section 5). Returns the indices of knobs that were
/// biased to their special value.
pub(crate) fn apply_special_value_bias(
    space: &ConfigSpace,
    unit: &mut [f64],
    p: f64,
) -> Vec<usize> {
    assert_eq!(unit.len(), space.len(), "unit point arity mismatch");
    assert!((0.0..1.0).contains(&p), "bias probability must be in [0, 1): {p}");
    if p == 0.0 {
        return Vec::new();
    }
    let mut hit = Vec::new();
    for (idx, knob) in space.knobs().iter().enumerate() {
        let Some(special) = knob.special else { continue };
        let Domain::Integer { min, max } = knob.domain else { continue };
        let u = unit[idx].clamp(0.0, 1.0);
        if u < p {
            // Bias to the special value.
            unit[idx] = space.value_to_unit(idx, &KnobValue::Int(special.value));
            hit.push(idx);
        } else {
            // Re-scale [p, 1] onto the non-special portion of the range.
            let u_rest = (u - p) / (1.0 - p);
            let value = if special.value == min {
                // Non-special range is [min+1, max].
                let span = (max - min - 1).max(0) as f64;
                min + 1 + (u_rest * span).round() as i64
            } else if special.value == max {
                // Non-special range is [min, max-1].
                let span = (max - min - 1).max(0) as f64;
                min + (u_rest * span).round() as i64
            } else {
                // Interior special values (not present in the PostgreSQL
                // catalogs): plain scaling, skipping the special value.
                let v = min + (u_rest * (max - min) as f64).round() as i64;
                if v == special.value {
                    v + 1
                } else {
                    v
                }
            };
            unit[idx] = space.value_to_unit(idx, &KnobValue::Int(value.clamp(min, max)));
        }
    }
    hit
}

#[cfg(test)]
mod tests {
    use super::*;
    use llamatune_space::catalog::postgres_v9_6;
    use llamatune_space::{Knob, SpecialValue, Unit};
    use proptest::prelude::*;

    fn hybrid_space() -> ConfigSpace {
        ConfigSpace::new(vec![
            Knob {
                name: "hybrid_zero",
                domain: Domain::Integer { min: 0, max: 256 },
                default: KnobValue::Int(0),
                special: Some(SpecialValue { value: 0, meaning: "disabled" }),
                unit: Unit::Pages8k,
                description: "",
            },
            Knob {
                name: "hybrid_minus_one",
                domain: Domain::Integer { min: -1, max: 100 },
                default: KnobValue::Int(-1),
                special: Some(SpecialValue { value: -1, meaning: "auto" }),
                unit: Unit::Count,
                description: "",
            },
            Knob {
                name: "plain",
                domain: Domain::Integer { min: 0, max: 1000 },
                default: KnobValue::Int(500),
                special: None,
                unit: Unit::Count,
                description: "",
            },
        ])
    }

    #[test]
    fn low_values_map_to_special() {
        let space = hybrid_space();
        let mut unit = vec![0.1, 0.19, 0.1];
        let hit = apply_special_value_bias(&space, &mut unit, 0.2);
        assert_eq!(hit, vec![0, 1]);
        let cfg = space.config_from_unit(&unit);
        assert_eq!(cfg.values()[0], KnobValue::Int(0));
        assert_eq!(cfg.values()[1], KnobValue::Int(-1));
        // Plain knob untouched.
        assert_eq!(cfg.values()[2], KnobValue::Int(100));
    }

    #[test]
    fn high_values_rescale_to_non_special_range() {
        let space = hybrid_space();
        // u = 0.2 is the very start of the non-special range -> min+1.
        let mut unit = vec![0.2, 0.2, 0.5];
        apply_special_value_bias(&space, &mut unit, 0.2);
        let cfg = space.config_from_unit(&unit);
        assert_eq!(cfg.values()[0], KnobValue::Int(1), "just past the bias window");
        assert_eq!(cfg.values()[1], KnobValue::Int(0), "-1 excluded, range starts at 0");
        // u = 1.0 maps to max.
        let mut unit = vec![1.0, 1.0, 0.5];
        apply_special_value_bias(&space, &mut unit, 0.2);
        let cfg = space.config_from_unit(&unit);
        assert_eq!(cfg.values()[0], KnobValue::Int(256));
        assert_eq!(cfg.values()[1], KnobValue::Int(100));
    }

    #[test]
    fn zero_bias_is_identity() {
        let space = hybrid_space();
        let mut unit = vec![0.05, 0.5, 0.9];
        let original = unit.clone();
        let hit = apply_special_value_bias(&space, &mut unit, 0.0);
        assert!(hit.is_empty());
        assert_eq!(unit, original);
    }

    #[test]
    fn statistical_hit_rate_matches_bias() {
        // Across a uniform grid of suggestions, ~p of them should bias.
        let space = hybrid_space();
        let n = 10_000;
        let mut hits = 0;
        for i in 0..n {
            let u = i as f64 / n as f64;
            let mut unit = vec![u, 0.5, 0.5];
            if !apply_special_value_bias(&space, &mut unit, 0.2).is_empty() {
                hits += 1;
            }
        }
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.01, "bias rate {rate}");
    }

    #[test]
    fn real_catalog_hybrids_bias_correctly() {
        let space = postgres_v9_6();
        let mut unit = vec![0.05; space.len()];
        let hit = apply_special_value_bias(&space, &mut unit, 0.2);
        assert_eq!(hit.len(), 17, "all 17 hybrid knobs hit at u=0.05");
        let cfg = space.config_from_unit(&unit);
        assert!(space.validate(&cfg).is_ok());
        let bfa = space.index_of("backend_flush_after").unwrap();
        assert_eq!(cfg.values()[bfa], KnobValue::Int(0));
        let wb = space.index_of("wal_buffers").unwrap();
        assert_eq!(cfg.values()[wb], KnobValue::Int(-1));
    }

    proptest! {
        /// Biased points always produce valid configurations and hybrid
        /// knobs never land on the special value unless biased there.
        #[test]
        fn biased_points_remain_valid(us in proptest::collection::vec(0.0f64..=1.0, 3),
                                      p in 0.01f64..0.5) {
            let space = hybrid_space();
            let mut unit = us.clone();
            let hit = apply_special_value_bias(&space, &mut unit, p);
            let cfg = space.config_from_unit(&unit);
            prop_assert!(space.validate(&cfg).is_ok());
            // Knob 0: special value 0 appears iff biased.
            let is_special = cfg.values()[0] == KnobValue::Int(0);
            prop_assert_eq!(is_special, hit.contains(&0));
        }

        /// Rescaling preserves order: larger u never produces a smaller
        /// knob value within the non-special range.
        #[test]
        fn rescaling_is_monotone(a in 0.5f64..1.0, b in 0.5f64..1.0) {
            let space = hybrid_space();
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let mut ua = vec![lo, 0.5, 0.5];
            let mut ub = vec![hi, 0.5, 0.5];
            apply_special_value_bias(&space, &mut ua, 0.2);
            apply_special_value_bias(&space, &mut ub, 0.2);
            let ca = space.config_from_unit(&ua);
            let cb = space.config_from_unit(&ub);
            prop_assert!(ca.values()[0].as_int() <= cb.values()[0].as_int());
        }
    }
}
