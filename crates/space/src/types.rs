//! Core knob types: domains, values, units, special values.

use std::fmt;

/// Engineering unit of a knob, kept as metadata so the engine can convert
/// raw knob values into bytes / durations without guessing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Plain count (connections, workers, tuples, ...).
    Count,
    /// 8 kB buffer pages (PostgreSQL's `BLCKSZ`).
    Pages8k,
    /// Kilobytes.
    KiloBytes,
    /// 16 MB WAL segments.
    WalSegments16Mb,
    /// Milliseconds.
    Millis,
    /// Microseconds.
    Micros,
    /// Seconds.
    Seconds,
    /// Dimensionless factor / cost multiplier.
    Factor,
}

/// The domain of a knob.
#[derive(Debug, Clone, PartialEq)]
pub enum Domain {
    /// Discrete numerical knob over an inclusive range.
    Integer { min: i64, max: i64 },
    /// Continuous numerical knob over an inclusive range.
    Float { min: f64, max: f64 },
    /// Categorical knob over a fixed set of choices (order carries no
    /// meaning; optimizers must treat the values as unordered).
    Categorical { choices: &'static [&'static str] },
}

impl Domain {
    /// Number of distinct values, if finite and easily countable.
    pub fn cardinality(&self) -> Option<u64> {
        match self {
            Domain::Integer { min, max } => Some((max - min) as u64 + 1),
            Domain::Float { .. } => None,
            Domain::Categorical { choices } => Some(choices.len() as u64),
        }
    }
}

/// A special value of a "hybrid" knob (Section 4.1 of the paper): setting
/// the knob to exactly this value triggers a qualitatively different
/// behavior (disable a feature, defer to another knob, use a heuristic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecialValue {
    /// The magic value (always an integer in PostgreSQL: `0` or `-1`).
    pub value: i64,
    /// Human-readable action, quoted from the knob documentation.
    pub meaning: &'static str,
}

/// A single runtime value for a knob.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KnobValue {
    /// Value of an integer knob.
    Int(i64),
    /// Value of a float knob.
    Float(f64),
    /// Index into the choices of a categorical knob.
    Cat(usize),
}

impl KnobValue {
    /// Integer payload.
    ///
    /// # Panics
    /// Panics if the value is not `Int`.
    pub fn as_int(&self) -> i64 {
        match self {
            KnobValue::Int(v) => *v,
            other => panic!("expected Int, got {other:?}"),
        }
    }

    /// Float payload (also accepts `Int`, widening it).
    ///
    /// # Panics
    /// Panics if the value is categorical.
    pub fn as_float(&self) -> f64 {
        match self {
            KnobValue::Float(v) => *v,
            KnobValue::Int(v) => *v as f64,
            other => panic!("expected numeric value, got {other:?}"),
        }
    }

    /// Categorical index payload.
    ///
    /// # Panics
    /// Panics if the value is not `Cat`.
    pub fn as_cat(&self) -> usize {
        match self {
            KnobValue::Cat(v) => *v,
            other => panic!("expected Cat, got {other:?}"),
        }
    }
}

impl fmt::Display for KnobValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KnobValue::Int(v) => write!(f, "{v}"),
            KnobValue::Float(v) => write!(f, "{v:.4}"),
            KnobValue::Cat(v) => write!(f, "#{v}"),
        }
    }
}

/// A tunable DBMS parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Knob {
    /// Knob name as it appears in `postgresql.conf`.
    pub name: &'static str,
    /// Value domain.
    pub domain: Domain,
    /// Server default.
    pub default: KnobValue,
    /// Special value, for hybrid knobs only.
    pub special: Option<SpecialValue>,
    /// Engineering unit.
    pub unit: Unit,
    /// One-line description from the documentation.
    pub description: &'static str,
}

impl Knob {
    /// Whether this knob is *hybrid*, i.e. has a special value.
    pub(crate) fn is_hybrid(&self) -> bool {
        self.special.is_some()
    }

    /// Checks that `value` matches the domain type and lies inside it.
    pub(crate) fn validates(&self, value: &KnobValue) -> bool {
        match (&self.domain, value) {
            (Domain::Integer { min, max }, KnobValue::Int(v)) => v >= min && v <= max,
            (Domain::Float { min, max }, KnobValue::Float(v)) => v >= min && v <= max,
            (Domain::Categorical { choices }, KnobValue::Cat(i)) => *i < choices.len(),
            _ => false,
        }
    }

    /// Renders the concrete choice label for a categorical value.
    pub(crate) fn choice_label(&self, value: &KnobValue) -> Option<&'static str> {
        match (&self.domain, value) {
            (Domain::Categorical { choices }, KnobValue::Cat(i)) => choices.get(*i).copied(),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_knob() -> Knob {
        Knob {
            name: "backend_flush_after",
            domain: Domain::Integer { min: 0, max: 256 },
            default: KnobValue::Int(0),
            special: Some(SpecialValue { value: 0, meaning: "forced writeback disabled" }),
            unit: Unit::Pages8k,
            description: "pages after which previously performed writes are flushed to disk",
        }
    }

    #[test]
    fn validates_respects_bounds_and_types() {
        let k = test_knob();
        assert!(k.validates(&KnobValue::Int(0)));
        assert!(k.validates(&KnobValue::Int(256)));
        assert!(!k.validates(&KnobValue::Int(257)));
        assert!(!k.validates(&KnobValue::Int(-1)));
        assert!(!k.validates(&KnobValue::Float(1.0)));
        assert!(!k.validates(&KnobValue::Cat(0)));
    }

    #[test]
    fn categorical_validation() {
        let k = Knob {
            name: "synchronous_commit",
            domain: Domain::Categorical { choices: &["on", "off"] },
            default: KnobValue::Cat(0),
            special: None,
            unit: Unit::Count,
            description: "",
        };
        assert!(k.validates(&KnobValue::Cat(1)));
        assert!(!k.validates(&KnobValue::Cat(2)));
        assert_eq!(k.choice_label(&KnobValue::Cat(1)), Some("off"));
        assert_eq!(k.choice_label(&KnobValue::Cat(7)), None);
    }

    #[test]
    fn cardinality() {
        assert_eq!(Domain::Integer { min: 0, max: 256 }.cardinality(), Some(257));
        assert_eq!(Domain::Float { min: 0.0, max: 1.0 }.cardinality(), None);
        assert_eq!(Domain::Categorical { choices: &["a", "b", "c"] }.cardinality(), Some(3));
    }

    #[test]
    fn hybrid_flag() {
        assert!(test_knob().is_hybrid());
        let plain = Knob { special: None, ..test_knob() };
        assert!(!plain.is_hybrid());
    }
}
