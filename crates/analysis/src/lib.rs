//! Knob-importance analysis: the ranking-based methodology of Section 2.3.
//!
//! The paper's motivation experiments rank knobs by SHAP values computed
//! over a random forest fitted to thousands of LHS-evaluated configurations
//! (following \[39\], which found SHAP the most meaningful importance score
//! for DBMS tuning). This crate implements:
//!
//! * [`tree_shap`] — the path-dependent TreeSHAP algorithm (Lundberg et
//!   al. 2018, Algorithm 2) over the random-forest trees of
//!   `llamatune-optim`, validated against brute-force Shapley values;
//! * [`shap_importance`] — mean |SHAP| per feature over a background set;
//! * [`rank_knobs`] — descending importance ranking with names.

pub mod importance;
pub mod shap;

pub use importance::rank_knobs;
pub use shap::{expected_value, shap_importance, tree_shap};
