//! Knob importance by SHAP value: the ranking-based methodology of the
//! paper's Section 2.3.
//!
//! The paper's motivation experiments rank knobs by SHAP values computed
//! over a random forest fitted to thousands of LHS-evaluated configurations
//! (following \[39\], which found SHAP the most meaningful importance score
//! for DBMS tuning). [`shap_importance`] is the mean |SHAP| per feature
//! over a background set.
//!
//! The values are path-dependent TreeSHAP's (Lundberg, Erion & Lee 2018,
//! Algorithm 2): exact Shapley values for tree ensembles under the
//! path-dependent feature-perturbation model. Absent features are
//! integrated out along each tree's own split structure, weighted by the
//! training "cover" of each branch. Complexity is O(leaves * depth^2) per
//! instance instead of the exponential subset enumeration; the tests hold
//! it to brute-force Shapley values.

use crate::rf::{rule_goes_left, RandomForest, Tree, TreeNode};

/// Per-path bookkeeping element (the `m` array of Algorithm 2).
#[derive(Debug, Clone, Copy)]
struct PathElement {
    /// Feature that split this path step (usize::MAX for the root sentinel).
    feature: usize,
    /// Fraction of "zero" (absent-feature) paths flowing through.
    zero: f64,
    /// 1 when the instance's value goes this way, else 0.
    one: f64,
    /// Permutation weight polynomial coefficient.
    pweight: f64,
}

fn node_cover(tree: &Tree, idx: u32) -> f64 {
    match &tree.nodes[idx as usize] {
        TreeNode::Leaf { n, .. } | TreeNode::Split { n, .. } => f64::from(*n),
    }
}

fn extend(path: &mut Vec<PathElement>, zero: f64, one: f64, feature: usize) {
    let l = path.len();
    path.push(PathElement { feature, zero, one, pweight: if l == 0 { 1.0 } else { 0.0 } });
    for i in (0..l).rev() {
        path[i + 1].pweight += one * path[i].pweight * (i + 1) as f64 / (l + 1) as f64;
        path[i].pweight = zero * path[i].pweight * (l - i) as f64 / (l + 1) as f64;
    }
}

fn unwind(path: &mut Vec<PathElement>, i: usize) {
    let l = path.len() - 1;
    let one = path[i].one;
    let zero = path[i].zero;
    let mut n = path[l].pweight;
    for j in (0..l).rev() {
        if one != 0.0 {
            let t = path[j].pweight;
            path[j].pweight = n * (l + 1) as f64 / ((j + 1) as f64 * one);
            n = t - path[j].pweight * zero * (l - j) as f64 / (l + 1) as f64;
        } else {
            path[j].pweight = path[j].pweight * (l + 1) as f64 / (zero * (l - j) as f64);
        }
    }
    for j in i..l {
        path[j].feature = path[j + 1].feature;
        path[j].zero = path[j + 1].zero;
        path[j].one = path[j + 1].one;
    }
    path.pop();
}

/// Sum of unwound weights for element `i` without mutating the path.
fn unwound_sum(path: &[PathElement], i: usize) -> f64 {
    let l = path.len() - 1;
    let one = path[i].one;
    let zero = path[i].zero;
    let mut total = 0.0;
    let mut n = path[l].pweight;
    for j in (0..l).rev() {
        if one != 0.0 {
            let t = n * (l + 1) as f64 / ((j + 1) as f64 * one);
            total += t;
            n = path[j].pweight - t * zero * (l - j) as f64 / (l + 1) as f64;
        } else {
            total += path[j].pweight / (zero * (l - j) as f64 / (l + 1) as f64);
        }
    }
    total
}

/// Recursive walk of Algorithm 2. Each call works on its *own copy* of the
/// path: unwinding inside one subtree must not leak pweight mutations into
/// the sibling's computation (the reference implementation likewise copies
/// the path at every level).
#[allow(clippy::too_many_arguments)]
fn recurse(
    tree: &Tree,
    x: &[f64],
    phi: &mut [f64],
    node: u32,
    parent_path: &[PathElement],
    zero: f64,
    one: f64,
    feature: usize,
) {
    let mut path = parent_path.to_vec();
    extend(&mut path, zero, one, feature);
    match &tree.nodes[node as usize] {
        TreeNode::Leaf { value, .. } => {
            for i in 1..path.len() {
                let w = unwound_sum(&path, i);
                let el = path[i];
                phi[el.feature] += w * (el.one - el.zero) * value;
            }
        }
        TreeNode::Split { feature: split_feat, rule, left, right, .. } => {
            let (hot, cold) = if rule_goes_left(rule, x[*split_feat]) {
                (*left, *right)
            } else {
                (*right, *left)
            };
            let cover = node_cover(tree, node);
            let hot_frac = node_cover(tree, hot) / cover;
            let cold_frac = node_cover(tree, cold) / cover;
            let (mut iz, mut io) = (1.0, 1.0);
            // If this feature already split above, undo its path entry and
            // combine the fractions.
            if let Some(k) = path.iter().skip(1).position(|e| e.feature == *split_feat) {
                let k = k + 1;
                iz = path[k].zero;
                io = path[k].one;
                unwind(&mut path, k);
            }
            recurse(tree, x, phi, hot, &path, iz * hot_frac, io, *split_feat);
            recurse(tree, x, phi, cold, &path, iz * cold_frac, 0.0, *split_feat);
        }
    }
}

/// SHAP values of one tree at instance `x`; `phi[f]` is feature `f`'s
/// contribution and `sum(phi) + expected_value(tree) = tree.predict(x)`.
fn tree_shap_single(tree: &Tree, x: &[f64], n_features: usize) -> Vec<f64> {
    let mut phi = vec![0.0; n_features];
    recurse(tree, x, &mut phi, 0, &[], 1.0, 1.0, usize::MAX - 1);
    phi
}

/// SHAP values of a whole forest at `x` (average over trees).
fn tree_shap(forest: &RandomForest, x: &[f64]) -> Vec<f64> {
    let d = forest.spec().len();
    let mut phi = vec![0.0; d];
    for tree in forest.trees() {
        let p = tree_shap_single(tree, x, d);
        for (acc, v) in phi.iter_mut().zip(p) {
            *acc += v;
        }
    }
    for v in phi.iter_mut() {
        *v /= forest.trees().len() as f64;
    }
    phi
}

/// Mean |SHAP| importance per feature over a background sample.
pub fn shap_importance(forest: &RandomForest, xs: &[Vec<f64>]) -> Vec<f64> {
    let d = forest.spec().len();
    let mut imp = vec![0.0; d];
    for x in xs {
        let phi = tree_shap(forest, x);
        for (acc, v) in imp.iter_mut().zip(phi) {
            *acc += v.abs();
        }
    }
    for v in imp.iter_mut() {
        *v /= xs.len().max(1) as f64;
    }
    imp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SearchSpec;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Cover-weighted expected prediction of one tree (the SHAP base value).
    fn expected_value_single(tree: &Tree) -> f64 {
        fn rec(tree: &Tree, idx: u32) -> f64 {
            match &tree.nodes[idx as usize] {
                TreeNode::Leaf { value, .. } => *value,
                TreeNode::Split { left, right, n, .. } => {
                    let wl = node_cover(tree, *left) / f64::from(*n);
                    let wr = node_cover(tree, *right) / f64::from(*n);
                    wl * rec(tree, *left) + wr * rec(tree, *right)
                }
            }
        }
        rec(tree, 0)
    }

    /// Cover-weighted expected prediction of the forest.
    fn expected_value(forest: &RandomForest) -> f64 {
        forest.trees().iter().map(expected_value_single).sum::<f64>() / forest.trees().len() as f64
    }

    /// Conditional expectation E[f(x) | x_S] following Algorithm 1 of the
    /// TreeSHAP paper: in-coalition features follow x, others average by
    /// cover. Used as the ground truth for brute-force Shapley values.
    fn expvalue(tree: &Tree, x: &[f64], coalition: &[bool], idx: u32) -> f64 {
        match &tree.nodes[idx as usize] {
            TreeNode::Leaf { value, .. } => *value,
            TreeNode::Split { feature, rule, left, right, n } => {
                if coalition[*feature] {
                    let next = if rule_goes_left(rule, x[*feature]) { *left } else { *right };
                    expvalue(tree, x, coalition, next)
                } else {
                    let wl = node_cover(tree, *left) / f64::from(*n);
                    let wr = node_cover(tree, *right) / f64::from(*n);
                    wl * expvalue(tree, x, coalition, *left)
                        + wr * expvalue(tree, x, coalition, *right)
                }
            }
        }
    }

    /// Brute-force Shapley values by subset enumeration (exponential; only
    /// for tiny feature counts).
    fn brute_force_shap(tree: &Tree, x: &[f64], d: usize) -> Vec<f64> {
        let mut phi = vec![0.0; d];
        let factorial = |n: usize| -> f64 { (1..=n).map(|v| v as f64).product::<f64>().max(1.0) };
        for f in 0..d {
            for mask in 0..(1u32 << d) {
                if mask & (1 << f) != 0 {
                    continue;
                }
                let mut coalition = vec![false; d];
                let mut s = 0usize;
                for (j, c) in coalition.iter_mut().enumerate() {
                    if mask & (1 << j) != 0 {
                        *c = true;
                        s += 1;
                    }
                }
                let without = expvalue(tree, x, &coalition, 0);
                coalition[f] = true;
                let with = expvalue(tree, x, &coalition, 0);
                let weight = factorial(s) * factorial(d - s - 1) / factorial(d);
                phi[f] += weight * (with - without);
            }
        }
        phi
    }

    fn fit_forest(
        d: usize,
        f: impl Fn(&[f64]) -> f64,
        n: usize,
        seed: u64,
    ) -> (RandomForest, Vec<Vec<f64>>) {
        let spec = SearchSpec::continuous(d);
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<Vec<f64>> =
            (0..n).map(|_| (0..d).map(|_| rng.random::<f64>()).collect()).collect();
        let ys: Vec<f64> = xs.iter().map(|x| f(x)).collect();
        (RandomForest::fit(&spec, &xs, &ys, seed), xs)
    }

    #[test]
    fn tree_shap_matches_brute_force() {
        let (forest, _) = fit_forest(4, |x| 3.0 * x[0] + x[1] * x[2], 60, 1);
        let probes = [vec![0.1, 0.9, 0.2, 0.5], vec![0.8, 0.3, 0.7, 0.1]];
        for x in &probes {
            for tree in forest.trees() {
                let fast = tree_shap_single(tree, x, 4);
                let slow = brute_force_shap(tree, x, 4);
                for (a, b) in fast.iter().zip(&slow) {
                    assert!(
                        (a - b).abs() < 1e-8,
                        "TreeSHAP {a} vs brute force {b} (tree values {fast:?} vs {slow:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn additivity_sum_phi_equals_prediction_minus_base() {
        let (forest, xs) = fit_forest(5, |x| x[0] * 10.0 - 4.0 * x[3], 80, 2);
        for x in xs.iter().take(10) {
            let phi = tree_shap(&forest, x);
            let base = expected_value(&forest);
            let (pred, _) = forest.predict(x);
            let sum: f64 = phi.iter().sum();
            assert!(
                (base + sum - pred).abs() < 1e-8,
                "local accuracy: base {base} + sum {sum} != pred {pred}"
            );
        }
    }

    #[test]
    fn irrelevant_features_get_near_zero_shap() {
        let (forest, xs) = fit_forest(6, |x| 8.0 * x[0], 150, 3);
        let imp = shap_importance(&forest, &xs[..40]);
        let max_noise = imp[1..].iter().cloned().fold(0.0f64, f64::max);
        assert!(
            imp[0] > 5.0 * max_noise,
            "x0 importance {} should dominate noise features {:?}",
            imp[0],
            &imp[1..]
        );
    }

    #[test]
    fn symmetric_features_get_symmetric_importance() {
        let (forest, xs) = fit_forest(3, |x| x[0] + x[1], 200, 4);
        let imp = shap_importance(&forest, &xs[..50]);
        let ratio = imp[0] / imp[1];
        assert!((0.6..1.6).contains(&ratio), "x0 and x1 should be similar: {imp:?}");
        assert!(imp[2] < imp[0] * 0.3, "x2 is irrelevant: {imp:?}");
    }

    #[test]
    fn expected_value_is_cover_weighted_mean() {
        // A tree's base value is the mean of its bootstrap resample, so
        // the forest's approximates the training mean.
        let (forest, xs) = fit_forest(2, |x| 4.0 * x[0], 100, 5);
        let train_mean = xs.iter().map(|x| 4.0 * x[0]).sum::<f64>() / xs.len() as f64;
        let base = expected_value(&forest);
        assert!(
            (base - train_mean).abs() < 0.4,
            "base {base} should approximate the mean {train_mean}"
        );
    }

    #[test]
    fn stump_gives_all_credit_to_split_feature() {
        // A single-tree, single-split case with hand-computable values.
        use crate::rf::Rule;
        let tree = Tree {
            nodes: vec![
                TreeNode::Split { feature: 1, rule: Rule::Le(0.5), left: 1, right: 2, n: 10 },
                TreeNode::Leaf { value: 0.0, n: 5 },
                TreeNode::Leaf { value: 10.0, n: 5 },
            ],
        };
        let phi = tree_shap_single(&tree, &[0.9, 0.9], 2);
        // Base value is 5.0; prediction is 10.0; all credit on feature 1.
        assert!((phi[1] - 5.0).abs() < 1e-12, "{phi:?}");
        assert!(phi[0].abs() < 1e-12, "{phi:?}");
    }
}
