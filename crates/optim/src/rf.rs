//! Regression random forest: the SMAC surrogate model.
//!
//! CART-style trees with bootstrap sampling, random feature subsets, and
//! randomized threshold candidates (variance-reduction criterion).
//! Categorical dimensions split on *choice equality* — the property that
//! makes random forests handle heterogeneous DBMS knob spaces better than
//! vanilla GPs (Section 2.2). Node structure and per-node sample counts are
//! public so `llamatune-analysis` can run TreeSHAP over fitted forests.
//!
//! # The split-search kernel and its contract
//!
//! A fit is SMAC's whole model cost (once per observation, once per
//! suggestion under the constant liar), and nearly all of a fit is the
//! split search: at every node, for each of ~0.8·d features, score
//! `n_threshold_candidates` ways of cutting the node's samples in two by
//! `sse(left) + sse(right)`. The search works on a layout made for it:
//!
//! * [`RandomForest::fit`] transposes the history once into column-major
//!   `cols[f * n + i]`, so a feature's values are one contiguous slice;
//! * each tree's sample multiset lives in one index buffer that the nodes
//!   partition in place (stably — sample order is part of the contract),
//!   so a node is a range of it and no index list is ever allocated;
//! * a node gathers its responses once (`yv`) and each tried feature once
//!   (`vals`) into scratch buffers owned by the fit and reused across
//!   nodes and trees;
//! * a feature's candidates — thresholds, or the categories present at
//!   the node — are scored `LANES` at a time in two sweeps over
//!   `(vals, yv)` (`score_lanes`): sweep 1 accumulates each lane's
//!   `n_left`, `sum_left`, `sum_right`; sweep 2 the squared deviations
//!   about the two means. Only the winning `(score, rule, feature)` is
//!   kept, and only its split is materialised.
//!
//! **The contract is bit identity with the textbook search** (partition
//! the samples per candidate, then sum each side; kept under
//! `#[cfg(test)]` as `reference_fit`, the oracle of the equivalence
//! proptest): the same trees, thresholds and leaf values to the last
//! bit, hence the same suggestion stream (pinned by
//! `tests/smac_golden.rs`). It holds because nothing is reassociated. A
//! lane is one *candidate*, never a partial sum: to each of its two
//! running sums a sample contributes its value if it is on that side and
//! `-0.0` — the additive identity, exact for every `f64` — if it is not,
//! so each lane performs the additions the textbook `sum()` performs, on
//! the same operands in the same sample order, starting from the same
//! neutral element (`SUM_ZERO`). The lanes only give the core eight
//! independent dependency chains (and the compiler something to
//! vectorise) where the one-candidate-at-a-time search had a single
//! serial chain over ~20 samples. RNG draws (bootstrap indices, the
//! feature shuffle, the thresholds of each non-constant feature) happen
//! in the same order, and ties keep the first strict minimum.

use crate::spec::{category, ParamKind, SearchSpec};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// Split rule at an internal node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// Go left when `x[feature] <= threshold`.
    Le(f64),
    /// Go left when the decoded category equals `choice` (of `n`).
    CatEq { choice: usize, n: usize },
}

/// One tree node; `n` is the number of training samples that reached it
/// (TreeSHAP's "cover").
#[derive(Debug, Clone, PartialEq)]
pub enum TreeNode {
    Leaf { value: f64, n: u32 },
    Split { feature: usize, rule: Rule, left: u32, right: u32, n: u32 },
}

/// A fitted regression tree over unit-space points.
#[derive(Debug, Clone)]
pub struct Tree {
    /// Nodes in preorder; node 0 is the root.
    pub nodes: Vec<TreeNode>,
}

impl Tree {
    /// Predicts the mean response at `x`.
    pub fn predict(&self, x: &[f64]) -> f64 {
        let mut idx = 0usize;
        loop {
            match &self.nodes[idx] {
                TreeNode::Leaf { value, .. } => return *value,
                TreeNode::Split { feature, rule, left, right, .. } => {
                    idx = if rule_goes_left(rule, x[*feature]) {
                        *left as usize
                    } else {
                        *right as usize
                    };
                }
            }
        }
    }

    /// Depth of the tree (longest root-to-leaf path).
    pub fn depth(&self) -> usize {
        fn rec(nodes: &[TreeNode], idx: usize) -> usize {
            match &nodes[idx] {
                TreeNode::Leaf { .. } => 1,
                TreeNode::Split { left, right, .. } => {
                    1 + rec(nodes, *left as usize).max(rec(nodes, *right as usize))
                }
            }
        }
        rec(&self.nodes, 0)
    }
}

/// Whether `value` on the split feature goes to the left child.
pub fn rule_goes_left(rule: &Rule, value: f64) -> bool {
    match rule {
        Rule::Le(t) => value <= *t,
        Rule::CatEq { choice, n } => category(value, *n) == *choice,
    }
}

/// Forest hyperparameters (defaults follow SMAC's RF settings).
#[derive(Debug, Clone)]
pub struct RandomForestConfig {
    pub n_trees: usize,
    pub min_samples_leaf: usize,
    pub feature_frac: f64,
    pub n_threshold_candidates: usize,
    pub max_depth: usize,
    pub bootstrap: bool,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        RandomForestConfig {
            n_trees: 24,
            min_samples_leaf: 3,
            feature_frac: 0.8,
            n_threshold_candidates: 8,
            max_depth: 24,
            bootstrap: true,
        }
    }
}

/// A fitted random forest.
#[derive(Debug, Clone)]
pub struct RandomForest {
    pub trees: Vec<Tree>,
    spec: SearchSpec,
}

impl RandomForest {
    /// Fits a forest to `(xs, ys)`.
    ///
    /// # Panics
    /// Panics if `xs` is empty or lengths mismatch.
    pub fn fit(
        spec: &SearchSpec,
        xs: &[Vec<f64>],
        ys: &[f64],
        config: &RandomForestConfig,
        seed: u64,
    ) -> RandomForest {
        assert!(!xs.is_empty(), "cannot fit a forest to zero samples");
        assert_eq!(xs.len(), ys.len());
        let (n, d) = (xs.len(), spec.len());
        let mut cols = vec![0.0; d * n];
        for (i, x) in xs.iter().enumerate() {
            for (f, &v) in x[..d].iter().enumerate() {
                cols[f * n + i] = v;
            }
        }
        let mut fit = Fit {
            spec,
            config,
            cols: &cols,
            ys,
            rng: StdRng::seed_from_u64(seed),
            idx: Vec::with_capacity(n),
            spill: Vec::with_capacity(n),
            features: Vec::with_capacity(d),
            yv: Vec::with_capacity(n),
            vals: Vec::with_capacity(n),
            keys: Vec::with_capacity(config.n_threshold_candidates),
            seen: Vec::new(),
        };
        let trees = (0..config.n_trees)
            .map(|_| {
                fit.idx.clear();
                if config.bootstrap {
                    fit.idx.extend((0..n).map(|_| fit.rng.random_range(0..n)));
                } else {
                    fit.idx.extend(0..n);
                }
                let mut nodes = Vec::new();
                fit.build_node(0, n, 0, &mut nodes);
                Tree { nodes }
            })
            .collect();
        RandomForest { trees, spec: spec.clone() }
    }

    /// Predicts mean and across-tree variance at `x` (the variance feeds
    /// Expected Improvement): the ordered sum of the tree outputs over
    /// the tree count, and the two-pass n−1 variance about that mean.
    ///
    /// SMAC calls this 1600 times per suggestion, so the tree outputs the
    /// second pass needs are kept on the stack, not in a `Vec`; a forest
    /// of more than `KEPT` trees walks the trees past that a second time.
    pub fn predict(&self, x: &[f64]) -> (f64, f64) {
        const KEPT: usize = 64;
        debug_assert_eq!(x.len(), self.spec.len());
        let t = self.trees.len();
        if t == 0 {
            return (0.0, 0.0);
        }
        // Both passes fold from `SUM_ZERO`, as `Iterator::sum` does.
        let mut kept = [0.0; KEPT];
        let mut sum = SUM_ZERO;
        for (k, tree) in self.trees.iter().enumerate() {
            let p = tree.predict(x);
            if let Some(slot) = kept.get_mut(k) {
                *slot = p;
            }
            sum += p;
        }
        let mean = sum / t as f64;
        if t < 2 {
            return (mean, 0.0);
        }
        let mut sq = SUM_ZERO;
        for (k, tree) in self.trees.iter().enumerate() {
            let p = kept.get(k).copied().unwrap_or_else(|| tree.predict(x));
            sq += (p - mean) * (p - mean);
        }
        (mean, sq / (t - 1) as f64)
    }

    /// The search spec the forest was fitted on.
    pub fn spec(&self) -> &SearchSpec {
        &self.spec
    }
}

/// Candidates scored per sweep over a node's samples.
const LANES: usize = 8;

/// What `Iterator::sum::<f64>()` folds from, and the one `f64` that is an
/// exact additive identity. The lane accumulators start here, as the
/// summed-per-side search's sums do.
const SUM_ZERO: f64 = -0.0;

/// `y` where `mask` is all ones, `-0.0` where it is all zeros: what a
/// sample contributes to a side's running sum. Adding `-0.0` returns
/// the other operand bit for bit (both zeros included), so a sample that
/// is not on a side leaves that side's sum exactly as skipping it would.
#[inline(always)]
fn on_side(mask: u64, y: f64) -> f64 {
    f64::from_bits(y.to_bits() & mask | SUM_ZERO.to_bits() & !mask)
}

/// Given `picked = on_side(mask, y)`, returns `on_side(!mask, y)`: the two
/// are `y` and `-0.0` in some order, so their bits xor to `y ^ -0.0`.
#[inline(always)]
fn other_side(picked: f64, y: f64) -> f64 {
    f64::from_bits(picked.to_bits() ^ y.to_bits() ^ SUM_ZERO.to_bits())
}

/// Scores `LANES` candidate splits of one feature over a node's samples:
/// sample `j` goes left under lane `k` when `goes_left(vals[j], keys[k])`.
/// Returns each lane's left count and `sse(left) + sse(right)`.
///
/// Every lane is its own candidate, so per lane these are the additions
/// of `left.sum()`, `right.sum()` and the two sums of squared deviations,
/// in sample order — no sum is split across lanes or reordered (see the
/// module doc). Membership is a 64-bit mask rather than a branch, which
/// keeps the lanes in vector registers.
#[inline(always)]
fn score_lanes(
    vals: &[f64],
    yv: &[f64],
    keys: &[f64; LANES],
    goes_left: impl Fn(f64, f64) -> bool,
) -> ([f64; LANES], [f64; LANES]) {
    let mask = |v: f64, key: f64| u64::from(goes_left(v, key)).wrapping_neg();
    let mut nl = [0.0; LANES];
    let (mut sl, mut sr) = ([SUM_ZERO; LANES], [SUM_ZERO; LANES]);
    for (&v, &y) in vals.iter().zip(yv) {
        for k in 0..LANES {
            let m = mask(v, keys[k]);
            nl[k] += f64::from_bits(1f64.to_bits() & m);
            let left = on_side(m, y);
            sl[k] += left;
            sr[k] += other_side(left, y);
        }
    }
    let n = vals.len() as f64;
    let (mut ml, mut mr) = ([0.0; LANES], [0.0; LANES]);
    for k in 0..LANES {
        ml[k] = sl[k] / nl[k];
        mr[k] = sr[k] / (n - nl[k]);
    }
    let (mut dl, mut dr) = ([SUM_ZERO; LANES], [SUM_ZERO; LANES]);
    for (&v, &y) in vals.iter().zip(yv) {
        for k in 0..LANES {
            let m = mask(v, keys[k]);
            let mean = f64::from_bits(ml[k].to_bits() & m | mr[k].to_bits() & !m);
            let dev = (y - mean) * (y - mean);
            let left = on_side(m, dev);
            dl[k] += left;
            dr[k] += other_side(left, dev);
        }
    }
    let mut score = [0.0; LANES];
    for k in 0..LANES {
        score[k] = dl[k] + dr[k];
    }
    (nl, score)
}

/// The best split found so far at a node.
struct Best {
    score: f64,
    rule: Rule,
    feature: usize,
}

/// One `fit`: the column-major history plus every buffer the split
/// search needs, allocated once and reused across nodes and trees.
struct Fit<'a> {
    spec: &'a SearchSpec,
    config: &'a RandomForestConfig,
    /// Feature `f` of sample `i` at `cols[f * n + i]`.
    cols: &'a [f64],
    ys: &'a [f64],
    rng: StdRng,
    /// The current tree's sample multiset. A node owns a contiguous
    /// range of it and splits by partitioning that range in place.
    idx: Vec<usize>,
    /// Holds a node's right-going samples while its range is partitioned.
    spill: Vec<usize>,
    features: Vec<usize>,
    /// The node's responses, in sample order.
    yv: Vec<f64>,
    /// The tried feature at the node's samples: the unit value, or the
    /// decoded choice for a categorical dimension.
    vals: Vec<f64>,
    /// The tried feature's candidates: thresholds, or choices present.
    keys: Vec<f64>,
    seen: Vec<bool>,
}

/// Feature `feature` of all `n` samples in the column-major `cols`.
fn column(cols: &[f64], n: usize, feature: usize) -> &[f64] {
    &cols[feature * n..][..n]
}

impl Fit<'_> {
    /// Builds the subtree over `idx[lo..hi]` and returns its root's slot.
    fn build_node(&mut self, lo: usize, hi: usize, depth: usize, nodes: &mut Vec<TreeNode>) -> u32 {
        let n = hi - lo;
        let node_idx = nodes.len() as u32;
        let ys = self.ys;
        self.yv.clear();
        self.yv.extend(self.idx[lo..hi].iter().map(|&i| ys[i]));
        let mean = self.yv.iter().sum::<f64>() / n as f64;
        // Pushed as is for a leaf, or as the slot a split fills in once
        // its children (which follow it in preorder) are built.
        nodes.push(TreeNode::Leaf { value: mean, n: n as u32 });
        if n < 2 * self.config.min_samples_leaf || depth >= self.config.max_depth {
            return node_idx;
        }
        let parent_sse = self.yv.iter().map(|y| (y - mean) * (y - mean)).sum::<f64>();
        if parent_sse < 1e-12 {
            return node_idx;
        }

        // Random feature subset.
        let d = self.spec.len();
        self.features.clear();
        self.features.extend(0..d);
        self.features.shuffle(&mut self.rng);
        let keep = ((d as f64 * self.config.feature_frac).ceil() as usize).clamp(1, d);

        let mut best: Option<Best> = None;
        for tried in 0..keep {
            let feature = self.features[tried];
            let kind = self.spec.params[feature];
            if !self.gather_candidates(feature, kind, lo, hi) {
                continue;
            }
            for chunk in self.keys.chunks(LANES) {
                // Padding lanes never go left; their results are not read.
                let mut keys = [f64::NAN; LANES];
                keys[..chunk.len()].copy_from_slice(chunk);
                let (nl, score) = match kind {
                    ParamKind::Continuous { .. } => {
                        score_lanes(&self.vals, &self.yv, &keys, |v, t| v <= t)
                    }
                    ParamKind::Categorical { .. } => {
                        score_lanes(&self.vals, &self.yv, &keys, |v, c| v == c)
                    }
                };
                for (k, &key) in chunk.iter().enumerate() {
                    let n_left = nl[k] as usize;
                    if n_left < self.config.min_samples_leaf
                        || n - n_left < self.config.min_samples_leaf
                    {
                        continue;
                    }
                    if best.as_ref().is_none_or(|b| score[k] < b.score) {
                        let rule = match kind {
                            ParamKind::Continuous { .. } => Rule::Le(key),
                            ParamKind::Categorical { n } => Rule::CatEq { choice: key as usize, n },
                        };
                        best = Some(Best { score: score[k], rule, feature });
                    }
                }
            }
        }

        if let Some(b) = best.filter(|b| b.score < parent_sse - 1e-12) {
            let mid = self.partition(lo, hi, b.feature, &b.rule);
            let left = self.build_node(lo, mid, depth + 1, nodes);
            let right = self.build_node(mid, hi, depth + 1, nodes);
            nodes[node_idx as usize] =
                TreeNode::Split { feature: b.feature, rule: b.rule, left, right, n: n as u32 };
        }
        node_idx
    }

    /// Gathers `feature` at the node's samples into `vals` and its split
    /// candidates into `keys`: every category present at the node, or
    /// `n_threshold_candidates` uniform draws between the node's extremes.
    /// Returns `false` (drawing nothing) when the feature is constant here.
    fn gather_candidates(&mut self, feature: usize, kind: ParamKind, lo: usize, hi: usize) -> bool {
        let col = column(self.cols, self.ys.len(), feature);
        let node = &self.idx[lo..hi];
        self.vals.clear();
        self.keys.clear();
        match kind {
            ParamKind::Categorical { n } => {
                self.seen.clear();
                self.seen.resize(n, false);
                for &i in node {
                    let c = category(col[i], n);
                    self.seen[c] = true;
                    self.vals.push(c as f64);
                }
                let seen = &self.seen;
                self.keys.extend((0..n).filter(|&c| seen[c]).map(|c| c as f64));
            }
            ParamKind::Continuous { .. } => {
                self.vals.extend(node.iter().map(|&i| col[i]));
                let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                for &v in &self.vals {
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
                if hi - lo < 1e-12 {
                    return false;
                }
                for _ in 0..self.config.n_threshold_candidates {
                    self.keys.push(lo + self.rng.random::<f64>() * (hi - lo));
                }
            }
        }
        true
    }

    /// Stably partitions `idx[lo..hi]` into the samples `rule` sends left,
    /// then those it sends right; returns where the right side starts.
    fn partition(&mut self, lo: usize, hi: usize, feature: usize, rule: &Rule) -> usize {
        let col = column(self.cols, self.ys.len(), feature);
        self.spill.clear();
        let mut mid = lo;
        for j in lo..hi {
            let i = self.idx[j];
            if rule_goes_left(rule, col[i]) {
                self.idx[mid] = i;
                mid += 1;
            } else {
                self.spill.push(i);
            }
        }
        self.idx[mid..hi].copy_from_slice(&self.spill);
        mid
    }
}

/// The textbook split search this module's kernel replaced, kept as the
/// oracle of the equivalence tests: per candidate, partition the node's
/// samples into two fresh index lists, then sum each side.
#[cfg(test)]
mod reference {
    use super::*;

    struct Partition {
        left: Vec<usize>,
        right: Vec<usize>,
        score: f64,
        rule: Rule,
        feature: usize,
    }

    fn sse(ys: &[f64], idx: &[usize]) -> f64 {
        if idx.is_empty() {
            return 0.0;
        }
        let mean = idx.iter().map(|&i| ys[i]).sum::<f64>() / idx.len() as f64;
        idx.iter().map(|&i| (ys[i] - mean) * (ys[i] - mean)).sum()
    }

    /// The trees [`RandomForest::fit`] must reproduce bit for bit.
    pub fn reference_fit(
        spec: &SearchSpec,
        xs: &[Vec<f64>],
        ys: &[f64],
        config: &RandomForestConfig,
        seed: u64,
    ) -> Vec<Tree> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..config.n_trees)
            .map(|_| {
                let indices: Vec<usize> = if config.bootstrap {
                    (0..xs.len()).map(|_| rng.random_range(0..xs.len())).collect()
                } else {
                    (0..xs.len()).collect()
                };
                let mut nodes = Vec::new();
                build_node(spec, xs, ys, indices, config, &mut rng, &mut nodes, 0);
                Tree { nodes }
            })
            .collect()
    }

    #[allow(clippy::too_many_arguments)]
    fn build_node(
        spec: &SearchSpec,
        xs: &[Vec<f64>],
        ys: &[f64],
        indices: Vec<usize>,
        config: &RandomForestConfig,
        rng: &mut StdRng,
        nodes: &mut Vec<TreeNode>,
        depth: usize,
    ) -> u32 {
        let n = indices.len();
        let node_idx = nodes.len() as u32;
        let mean = indices.iter().map(|&i| ys[i]).sum::<f64>() / n as f64;
        if n < 2 * config.min_samples_leaf || depth >= config.max_depth {
            nodes.push(TreeNode::Leaf { value: mean, n: n as u32 });
            return node_idx;
        }
        let parent_sse = sse(ys, &indices);
        if parent_sse < 1e-12 {
            nodes.push(TreeNode::Leaf { value: mean, n: n as u32 });
            return node_idx;
        }

        // Random feature subset.
        let d = spec.len();
        let mut features: Vec<usize> = (0..d).collect();
        features.shuffle(rng);
        let keep = ((d as f64 * config.feature_frac).ceil() as usize).clamp(1, d);
        features.truncate(keep);

        let mut best: Option<Partition> = None;
        for &f in &features {
            let candidates = split_candidates(spec, xs, &indices, f, config, rng);
            for rule in candidates {
                let (mut left, mut right) = (Vec::new(), Vec::new());
                for &i in &indices {
                    if rule_goes_left(&rule, xs[i][f]) {
                        left.push(i);
                    } else {
                        right.push(i);
                    }
                }
                if left.len() < config.min_samples_leaf || right.len() < config.min_samples_leaf {
                    continue;
                }
                let score = sse(ys, &left) + sse(ys, &right);
                if best.as_ref().is_none_or(|b| score < b.score) {
                    best = Some(Partition { left, right, score, rule, feature: f });
                }
            }
        }

        match best {
            Some(p) if p.score < parent_sse - 1e-12 => {
                // Reserve the slot, then build children.
                nodes.push(TreeNode::Leaf { value: mean, n: n as u32 });
                let left = build_node(spec, xs, ys, p.left, config, rng, nodes, depth + 1);
                let right = build_node(spec, xs, ys, p.right, config, rng, nodes, depth + 1);
                nodes[node_idx as usize] =
                    TreeNode::Split { feature: p.feature, rule: p.rule, left, right, n: n as u32 };
                node_idx
            }
            _ => {
                nodes.push(TreeNode::Leaf { value: mean, n: n as u32 });
                node_idx
            }
        }
    }

    fn split_candidates(
        spec: &SearchSpec,
        xs: &[Vec<f64>],
        indices: &[usize],
        feature: usize,
        config: &RandomForestConfig,
        rng: &mut StdRng,
    ) -> Vec<Rule> {
        match spec.params[feature] {
            ParamKind::Categorical { n } => {
                // Try every category present at this node (bounded by n).
                let mut seen = vec![false; n];
                for &i in indices {
                    if let Some(c) = spec.params[feature].to_category(xs[i][feature]) {
                        seen[c] = true;
                    }
                }
                seen.iter()
                    .enumerate()
                    .filter(|(_, present)| **present)
                    .map(|(c, _)| Rule::CatEq { choice: c, n })
                    .collect()
            }
            ParamKind::Continuous { .. } => {
                let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                for &i in indices {
                    lo = lo.min(xs[i][feature]);
                    hi = hi.max(xs[i][feature]);
                }
                if hi - lo < 1e-12 {
                    return Vec::new();
                }
                (0..config.n_threshold_candidates)
                    .map(|_| Rule::Le(lo + rng.random::<f64>() * (hi - lo)))
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn continuous_spec(d: usize) -> SearchSpec {
        SearchSpec::continuous(d)
    }

    fn grid_data(f: impl Fn(&[f64]) -> f64, d: usize, n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(99);
        let xs: Vec<Vec<f64>> =
            (0..n).map(|_| (0..d).map(|_| rng.random::<f64>()).collect()).collect();
        let ys = xs.iter().map(|x| f(x)).collect();
        (xs, ys)
    }

    #[test]
    fn learns_a_univariate_step() {
        let spec = continuous_spec(1);
        let (xs, ys) = grid_data(|x| if x[0] > 0.5 { 10.0 } else { 0.0 }, 1, 200);
        let rf = RandomForest::fit(&spec, &xs, &ys, &RandomForestConfig::default(), 1);
        let (low, _) = rf.predict(&[0.2]);
        let (high, _) = rf.predict(&[0.8]);
        assert!(low < 1.0, "f(0.2) ~ 0, got {low}");
        assert!(high > 9.0, "f(0.8) ~ 10, got {high}");
    }

    #[test]
    fn learns_the_relevant_dimension_among_noise() {
        // y depends only on x0; nine other dims are noise.
        let spec = continuous_spec(10);
        let (xs, ys) = grid_data(|x| 5.0 * x[0], 10, 300);
        let rf = RandomForest::fit(&spec, &xs, &ys, &RandomForestConfig::default(), 2);
        let mut probe = vec![0.5; 10];
        probe[0] = 0.05;
        let (lo, _) = rf.predict(&probe);
        probe[0] = 0.95;
        let (hi, _) = rf.predict(&probe);
        assert!(hi - lo > 3.0, "forest should track x0: lo={lo} hi={hi}");
    }

    #[test]
    fn categorical_splits_are_unordered() {
        // Response peaks only for category 1 of 3 — a threshold split on
        // the encoding could not isolate the middle bin as cleanly.
        let spec = SearchSpec { params: vec![ParamKind::Categorical { n: 3 }] };
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..120 {
            let cat = i % 3;
            xs.push(vec![(cat as f64 + 0.5) / 3.0]);
            ys.push(if cat == 1 { 10.0 } else { 0.0 });
        }
        let rf = RandomForest::fit(&spec, &xs, &ys, &RandomForestConfig::default(), 3);
        let (mid, _) = rf.predict(&[0.5]);
        let (lo, _) = rf.predict(&[1.0 / 6.0]);
        let (hi, _) = rf.predict(&[5.0 / 6.0]);
        assert!(mid > 9.0, "category 1 should predict ~10, got {mid}");
        assert!(lo < 1.0 && hi < 1.0, "categories 0/2 should predict ~0: {lo} {hi}");
    }

    #[test]
    fn variance_reflects_disagreement() {
        let spec = continuous_spec(1);
        let (xs, ys) = grid_data(|x| x[0], 1, 50);
        let rf = RandomForest::fit(&spec, &xs, &ys, &RandomForestConfig::default(), 4);
        let (_, var) = rf.predict(&[0.5]);
        assert!(var >= 0.0);
        assert!(var.is_finite());
    }

    #[test]
    fn deterministic_given_seed() {
        let spec = continuous_spec(3);
        let (xs, ys) = grid_data(|x| x[0] + x[1], 3, 80);
        let a = RandomForest::fit(&spec, &xs, &ys, &RandomForestConfig::default(), 7);
        let b = RandomForest::fit(&spec, &xs, &ys, &RandomForestConfig::default(), 7);
        let p = vec![0.3, 0.6, 0.9];
        assert_eq!(a.predict(&p), b.predict(&p));
    }

    #[test]
    fn single_sample_fits_a_stump() {
        let spec = continuous_spec(2);
        let rf =
            RandomForest::fit(&spec, &[vec![0.5, 0.5]], &[3.0], &RandomForestConfig::default(), 5);
        let (mean, var) = rf.predict(&[0.1, 0.9]);
        assert_eq!(mean, 3.0);
        assert_eq!(var, 0.0);
    }

    #[test]
    fn predictions_stay_within_label_range() {
        let spec = continuous_spec(2);
        let (xs, ys) = grid_data(|x| x[0] * x[1] * 7.0, 2, 120);
        let rf = RandomForest::fit(&spec, &xs, &ys, &RandomForestConfig::default(), 6);
        let mut rng = StdRng::seed_from_u64(1);
        let (lo, hi) =
            ys.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &y| (l.min(y), h.max(y)));
        for _ in 0..50 {
            let p = vec![rng.random::<f64>(), rng.random::<f64>()];
            let (mean, _) = rf.predict(&p);
            assert!(mean >= lo - 1e-9 && mean <= hi + 1e-9);
        }
    }

    #[test]
    fn depth_is_bounded() {
        let spec = continuous_spec(1);
        let (xs, ys) = grid_data(|x| (x[0] * 50.0).sin(), 1, 400);
        let cfg = RandomForestConfig { max_depth: 5, ..Default::default() };
        let rf = RandomForest::fit(&spec, &xs, &ys, &cfg, 8);
        for t in &rf.trees {
            assert!(t.depth() <= 6);
        }
    }

    #[test]
    fn cover_counts_are_consistent() {
        let spec = continuous_spec(2);
        let (xs, ys) = grid_data(|x| x[0], 2, 100);
        let cfg = RandomForestConfig { bootstrap: false, ..Default::default() };
        let rf = RandomForest::fit(&spec, &xs, &ys, &cfg, 9);
        for tree in &rf.trees {
            // Root cover equals the training set size without bootstrap.
            let root_n = match &tree.nodes[0] {
                TreeNode::Leaf { n, .. } | TreeNode::Split { n, .. } => *n,
            };
            assert_eq!(root_n, 100);
            // Every split's children covers sum to the parent's.
            for node in &tree.nodes {
                if let TreeNode::Split { left, right, n, .. } = node {
                    let ln = match &tree.nodes[*left as usize] {
                        TreeNode::Leaf { n, .. } | TreeNode::Split { n, .. } => *n,
                    };
                    let rn = match &tree.nodes[*right as usize] {
                        TreeNode::Leaf { n, .. } | TreeNode::Split { n, .. } => *n,
                    };
                    assert_eq!(ln + rn, *n);
                }
            }
        }
    }

    /// A node with every float replaced by its bit pattern, so the
    /// comparison below also tells `0.0` from `-0.0` and equates NaNs.
    fn bits(node: &TreeNode) -> (usize, u64, usize, u32, u32, u32) {
        match *node {
            TreeNode::Leaf { value, n } => (usize::MAX, value.to_bits(), 0, 0, 0, n),
            TreeNode::Split { feature, rule: Rule::Le(t), left, right, n } => {
                (feature, t.to_bits(), usize::MAX, left, right, n)
            }
            TreeNode::Split { feature, rule: Rule::CatEq { choice, n: k }, left, right, n } => {
                (feature, choice as u64, k, left, right, n)
            }
        }
    }

    /// A random forest problem: a spec of the four dimension kinds, a
    /// history with duplicate rows and constant columns, and a config
    /// off the defaults.
    fn random_problem(seed: u64) -> (SearchSpec, Vec<Vec<f64>>, Vec<f64>, RandomForestConfig) {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = rng.random_range(1..96);
        let n = rng.random_range(1..200);
        // 0: continuous, 1: bucketized, 2: categorical, 3: mixed.
        let shape = rng.random_range(0..4);
        let params: Vec<ParamKind> = (0..d)
            .map(|_| match if shape == 3 { rng.random_range(0..3) } else { shape } {
                0 => ParamKind::Continuous { buckets: None },
                1 => ParamKind::Continuous { buckets: Some(rng.random_range(2..40)) },
                _ => ParamKind::Categorical { n: rng.random_range(2..6) },
            })
            .collect();
        let spec = SearchSpec { params };
        let constant: Vec<bool> = (0..d).map(|_| rng.random_range(0..6) == 0).collect();
        let pinned = spec.sample(&mut rng);
        let mut xs: Vec<Vec<f64>> = Vec::with_capacity(n);
        for i in 0..n {
            if i > 0 && rng.random_range(0..5) == 0 {
                let twin = rng.random_range(0..i);
                xs.push(xs[twin].clone());
                continue;
            }
            let mut x = spec.sample(&mut rng);
            for f in (0..d).filter(|&f| constant[f]) {
                x[f] = pinned[f];
            }
            xs.push(x);
        }
        // Coarse responses tie scores across candidates; fine ones do not.
        let coarse = rng.random_range(0..3) == 0;
        let ys = xs
            .iter()
            .map(|x| {
                let y: f64 =
                    x.iter().enumerate().map(|(f, v)| (v - 0.4) * ((f % 5) as f64 - 1.5)).sum();
                if coarse {
                    (y * 2.0).round()
                } else {
                    y + rng.random::<f64>() * 0.1
                }
            })
            .collect();
        let config = RandomForestConfig {
            n_trees: rng.random_range(1..4),
            min_samples_leaf: rng.random_range(1..5),
            n_threshold_candidates: [1, 7, 8, 9, 17][rng.random_range(0..5usize)],
            bootstrap: rng.random(),
            ..Default::default()
        };
        (spec, xs, ys, config)
    }

    /// `predict` against the collected two-pass formula, bit for bit.
    fn assert_predict_matches_two_pass(forest: &RandomForest, x: &[f64]) {
        let preds: Vec<f64> = forest.trees.iter().map(|t| t.predict(x)).collect();
        let mean = llamatune_math::mean(&preds);
        let var = if preds.len() < 2 {
            0.0
        } else {
            preds.iter().map(|p| (p - mean) * (p - mean)).sum::<f64>() / (preds.len() - 1) as f64
        };
        let (m, v) = forest.predict(x);
        assert_eq!((m.to_bits(), v.to_bits()), (mean.to_bits(), var.to_bits()));
    }

    #[test]
    fn predict_is_exact_past_its_stack_buffer() {
        let spec = continuous_spec(3);
        let (xs, ys) = grid_data(|x| x[0] - x[2] * x[1], 3, 40);
        for n_trees in [0, 1, 64, 65, 90] {
            let cfg = RandomForestConfig { n_trees, ..Default::default() };
            let rf = RandomForest::fit(&spec, &xs, &ys, &cfg, 10);
            for x in &xs[..5] {
                assert_predict_matches_two_pass(&rf, x);
            }
        }
    }

    proptest::proptest! {
        /// The kernel's contract: the trees of the textbook search, bit
        /// for bit — and, on those trees, `predict`'s ordered-sum mean and
        /// two-pass variance, bit for bit.
        #[test]
        fn fit_and_predict_match_the_reference_bit_for_bit(seed in proptest::any::<u64>()) {
            let (spec, xs, ys, config) = random_problem(seed);
            let forest = RandomForest::fit(&spec, &xs, &ys, &config, seed ^ 0x5eed);
            let oracle = reference::reference_fit(&spec, &xs, &ys, &config, seed ^ 0x5eed);
            assert_eq!(forest.trees.len(), oracle.len());
            for (k, (got, want)) in forest.trees.iter().zip(&oracle).enumerate() {
                let got: Vec<_> = got.nodes.iter().map(bits).collect();
                let want: Vec<_> = want.nodes.iter().map(bits).collect();
                assert_eq!(got, want, "tree {k} of seed {seed}: {spec:?} {config:?}");
            }

            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..8 {
                assert_predict_matches_two_pass(&forest, &spec.sample(&mut rng));
            }
        }
    }
}
