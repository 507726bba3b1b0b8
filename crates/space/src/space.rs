//! [`ConfigSpace`]: an ordered knob collection with the unit-space
//! conversions from Section 3.3 of the paper.

use crate::types::{Domain, Knob, KnobValue};
use std::collections::HashMap;

/// A concrete configuration: one value per knob of some [`ConfigSpace`],
/// in the same order.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    values: Vec<KnobValue>,
}

impl Config {
    /// Wraps raw values. Callers normally go through
    /// [`ConfigSpace::config_from_unit`] instead.
    pub fn new(values: Vec<KnobValue>) -> Self {
        Config { values }
    }

    /// The values, ordered like the owning space's knobs.
    pub fn values(&self) -> &[KnobValue] {
        &self.values
    }

    /// Mutable access, for targeted overrides in tests and sweeps.
    pub fn values_mut(&mut self) -> &mut [KnobValue] {
        &mut self.values
    }
}

/// A name → value view of a configuration. Subset spaces (e.g. the paper's
/// "top-8 knobs" experiments) produce assignments that only mention the
/// tuned knobs; consumers fall back to catalog defaults for the rest.
pub type KnobAssignment = HashMap<&'static str, KnobValue>;

/// An ordered, immutable collection of knobs plus conversion logic between
/// DBMS values and the optimizer-facing unit hypercube `[0, 1]^D`.
#[derive(Debug, Clone)]
pub struct ConfigSpace {
    knobs: Vec<Knob>,
    by_name: HashMap<&'static str, usize>,
}

impl ConfigSpace {
    /// Builds a space from a knob list.
    ///
    /// # Panics
    /// Panics if two knobs share a name or a knob's default violates its own
    /// domain — both are catalog bugs worth failing loudly on.
    pub fn new(knobs: Vec<Knob>) -> Self {
        let mut by_name = HashMap::with_capacity(knobs.len());
        for (i, k) in knobs.iter().enumerate() {
            assert!(
                k.validates(&k.default),
                "default {:?} of knob {} violates its domain",
                k.default,
                k.name
            );
            if let Some(sp) = &k.special {
                match &k.domain {
                    Domain::Integer { min, max } => assert!(
                        sp.value >= *min && sp.value <= *max,
                        "special value of {} outside domain",
                        k.name
                    ),
                    other => panic!("special value on non-integer knob {} ({other:?})", k.name),
                }
            }
            let prev = by_name.insert(k.name, i);
            assert!(prev.is_none(), "duplicate knob name {}", k.name);
        }
        ConfigSpace { knobs, by_name }
    }

    /// Number of knobs (the paper's `D`).
    pub fn len(&self) -> usize {
        self.knobs.len()
    }

    /// Whether the space has no knobs.
    pub fn is_empty(&self) -> bool {
        self.knobs.is_empty()
    }

    /// The knobs, in order.
    pub fn knobs(&self) -> &[Knob] {
        &self.knobs
    }

    /// Looks a knob up by name.
    pub fn knob(&self, name: &str) -> Option<&Knob> {
        self.by_name.get(name).map(|&i| &self.knobs[i])
    }

    /// Index of a knob by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// The hybrid knobs (those with special values), as `(index, &Knob)`.
    pub fn hybrid_knobs(&self) -> impl Iterator<Item = (usize, &Knob)> {
        self.knobs.iter().enumerate().filter(|(_, k)| k.is_hybrid())
    }

    /// The configuration with every knob at its server default.
    pub fn default_config(&self) -> Config {
        Config::new(self.knobs.iter().map(|k| k.default).collect())
    }

    /// Restricts the space to the named knobs (used for the Section 2.3
    /// "top-8 knobs" experiments).
    ///
    /// # Panics
    /// Panics if a name is unknown.
    pub fn subspace(&self, names: &[&str]) -> ConfigSpace {
        let knobs = names
            .iter()
            .map(|n| self.knob(n).unwrap_or_else(|| panic!("unknown knob {n}")).clone())
            .collect();
        ConfigSpace::new(knobs)
    }

    /// Converts one unit-space coordinate `u ∈ [0, 1]` to a knob value via
    /// the min–max scaling of Section 3.3 (round to integer for discrete
    /// knobs; equal-width binning for categorical knobs).
    pub(crate) fn unit_to_value(&self, knob_idx: usize, u: f64) -> KnobValue {
        let u = u.clamp(0.0, 1.0);
        match &self.knobs[knob_idx].domain {
            Domain::Integer { min, max } => {
                let span = (*max - *min) as f64;
                let v = (*min as f64 + u * span).round() as i64;
                KnobValue::Int(v.clamp(*min, *max))
            }
            Domain::Float { min, max } => KnobValue::Float(min + u * (max - min)),
            Domain::Categorical { choices } => {
                let k = choices.len();
                let idx = ((u * k as f64).floor() as usize).min(k - 1);
                KnobValue::Cat(idx)
            }
        }
    }

    /// Converts a knob value back to a unit-space coordinate (inverse of
    /// `Self::unit_to_value` up to rounding; categorical values map to
    /// their bin center).
    pub fn value_to_unit(&self, knob_idx: usize, value: &KnobValue) -> f64 {
        match (&self.knobs[knob_idx].domain, value) {
            (Domain::Integer { min, max }, KnobValue::Int(v)) => {
                if max == min {
                    0.0
                } else {
                    (*v - *min) as f64 / (*max - *min) as f64
                }
            }
            (Domain::Float { min, max }, KnobValue::Float(v)) => {
                if max == min {
                    0.0
                } else {
                    (v - min) / (max - min)
                }
            }
            (Domain::Categorical { choices }, KnobValue::Cat(i)) => {
                (*i as f64 + 0.5) / choices.len() as f64
            }
            (d, v) => panic!("type mismatch: domain {d:?} value {v:?}"),
        }
    }

    /// Converts a full unit-space point to a configuration.
    ///
    /// # Panics
    /// Panics if `point.len() != self.len()`.
    pub fn config_from_unit(&self, point: &[f64]) -> Config {
        assert_eq!(point.len(), self.len(), "unit point dimension mismatch");
        Config::new(point.iter().enumerate().map(|(i, &u)| self.unit_to_value(i, u)).collect())
    }

    /// Converts a configuration to a unit-space point.
    pub fn config_to_unit(&self, config: &Config) -> Vec<f64> {
        assert_eq!(config.values().len(), self.len());
        config.values().iter().enumerate().map(|(i, v)| self.value_to_unit(i, v)).collect()
    }

    /// Checks every value of `config` against its knob's domain.
    pub fn validate(&self, config: &Config) -> Result<(), String> {
        if config.values().len() != self.len() {
            return Err(format!(
                "config has {} values, space has {} knobs",
                config.values().len(),
                self.len()
            ));
        }
        for (k, v) in self.knobs.iter().zip(config.values()) {
            if !k.validates(v) {
                return Err(format!("value {v:?} invalid for knob {}", k.name));
            }
        }
        Ok(())
    }

    /// Produces a name → value map (for engines that fall back to defaults
    /// for knobs outside a subset space).
    pub fn assignment(&self, config: &Config) -> KnobAssignment {
        self.knobs.iter().zip(config.values()).map(|(k, v)| (k.name, *v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{SpecialValue, Unit};
    use proptest::prelude::*;

    fn small_space() -> ConfigSpace {
        ConfigSpace::new(vec![
            Knob {
                name: "int_knob",
                domain: Domain::Integer { min: 10, max: 110 },
                default: KnobValue::Int(10),
                special: None,
                unit: Unit::Count,
                description: "",
            },
            Knob {
                name: "float_knob",
                domain: Domain::Float { min: -1.0, max: 3.0 },
                default: KnobValue::Float(0.0),
                special: None,
                unit: Unit::Factor,
                description: "",
            },
            Knob {
                name: "cat_knob",
                domain: Domain::Categorical { choices: &["a", "b", "c", "d"] },
                default: KnobValue::Cat(0),
                special: None,
                unit: Unit::Count,
                description: "",
            },
            Knob {
                name: "hybrid_knob",
                domain: Domain::Integer { min: -1, max: 100 },
                default: KnobValue::Int(-1),
                special: Some(SpecialValue { value: -1, meaning: "auto" }),
                unit: Unit::Count,
                description: "",
            },
        ])
    }

    #[test]
    fn unit_to_value_endpoints() {
        let s = small_space();
        assert_eq!(s.unit_to_value(0, 0.0), KnobValue::Int(10));
        assert_eq!(s.unit_to_value(0, 1.0), KnobValue::Int(110));
        assert_eq!(s.unit_to_value(0, 0.5), KnobValue::Int(60));
        assert_eq!(s.unit_to_value(1, 0.5), KnobValue::Float(1.0));
        assert_eq!(s.unit_to_value(2, 0.0), KnobValue::Cat(0));
        assert_eq!(s.unit_to_value(2, 0.99), KnobValue::Cat(3));
        // u = 1.0 must not overflow the choice list.
        assert_eq!(s.unit_to_value(2, 1.0), KnobValue::Cat(3));
    }

    #[test]
    fn unit_values_clamp_out_of_range_inputs() {
        let s = small_space();
        assert_eq!(s.unit_to_value(0, -0.5), KnobValue::Int(10));
        assert_eq!(s.unit_to_value(0, 1.5), KnobValue::Int(110));
    }

    #[test]
    fn categorical_bins_are_equal_width() {
        let s = small_space();
        // 4 choices -> bins of width 0.25.
        assert_eq!(s.unit_to_value(2, 0.24), KnobValue::Cat(0));
        assert_eq!(s.unit_to_value(2, 0.25), KnobValue::Cat(1));
        assert_eq!(s.unit_to_value(2, 0.50), KnobValue::Cat(2));
        assert_eq!(s.unit_to_value(2, 0.75), KnobValue::Cat(3));
    }

    #[test]
    fn default_config_is_valid() {
        let s = small_space();
        let c = s.default_config();
        assert!(s.validate(&c).is_ok());
    }

    #[test]
    fn validate_catches_bad_values() {
        let s = small_space();
        let mut c = s.default_config();
        c.values_mut()[0] = KnobValue::Int(5000);
        assert!(s.validate(&c).is_err());
        let mut c2 = s.default_config();
        c2.values_mut()[2] = KnobValue::Cat(9);
        assert!(s.validate(&c2).is_err());
    }

    #[test]
    fn subspace_preserves_knob_identity() {
        let s = small_space();
        let sub = s.subspace(&["cat_knob", "int_knob"]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.knobs()[0].name, "cat_knob");
        assert_eq!(sub.knobs()[1].name, "int_knob");
    }

    #[test]
    #[should_panic(expected = "unknown knob")]
    fn subspace_rejects_unknown_names() {
        small_space().subspace(&["nope"]);
    }

    #[test]
    fn assignment_maps_names() {
        let s = small_space();
        let a = s.assignment(&s.default_config());
        assert_eq!(a.get("int_knob"), Some(&KnobValue::Int(10)));
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn hybrid_iterator_finds_only_hybrids() {
        let s = small_space();
        let hybrids: Vec<_> = s.hybrid_knobs().map(|(i, k)| (i, k.name)).collect();
        assert_eq!(hybrids, vec![(3, "hybrid_knob")]);
    }

    #[test]
    #[should_panic(expected = "duplicate knob name")]
    fn duplicate_names_rejected() {
        let k = small_space().knobs()[0].clone();
        ConfigSpace::new(vec![k.clone(), k]);
    }

    proptest! {
        /// unit -> value -> unit is a contraction: converting twice gives
        /// the same value (rounding is idempotent).
        #[test]
        fn roundtrip_is_idempotent(u in 0.0f64..=1.0, idx in 0usize..4) {
            let s = small_space();
            let v1 = s.unit_to_value(idx, u);
            let u1 = s.value_to_unit(idx, &v1);
            let v2 = s.unit_to_value(idx, u1);
            prop_assert_eq!(v1, v2);
        }

        /// Every unit point maps to a valid configuration.
        #[test]
        fn all_unit_points_valid(us in proptest::collection::vec(0.0f64..=1.0, 4)) {
            let s = small_space();
            let c = s.config_from_unit(&us);
            prop_assert!(s.validate(&c).is_ok());
        }

        /// value_to_unit stays within [0, 1].
        #[test]
        fn value_to_unit_in_range(u in 0.0f64..=1.0, idx in 0usize..4) {
            let s = small_space();
            let v = s.unit_to_value(idx, u);
            let back = s.value_to_unit(idx, &v);
            prop_assert!((0.0..=1.0).contains(&back));
        }
    }
}
