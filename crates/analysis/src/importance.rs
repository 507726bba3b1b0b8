//! Knob ranking by importance score.

/// Ranks knob names by importance, descending; ties broken by name for
/// determinism.
pub fn rank_knobs<'a>(names: &[&'a str], importance: &[f64]) -> Vec<(&'a str, f64)> {
    assert_eq!(names.len(), importance.len());
    let mut ranked: Vec<(&str, f64)> =
        names.iter().copied().zip(importance.iter().copied()).collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(b.0)));
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranking_is_descending_and_deterministic() {
        let names = ["a", "b", "c", "d"];
        let imp = [0.1, 0.9, 0.9, 0.0];
        let ranked = rank_knobs(&names, &imp);
        assert_eq!(ranked[0].0, "b", "tie broken by name");
        assert_eq!(ranked[1].0, "c");
        assert_eq!(ranked[3].0, "d");
        assert!(ranked.windows(2).all(|w| w[0].1 >= w[1].1));
    }
}
