//! Minimal neural-network substrate for the DDPG optimizer: dense layers,
//! ReLU/sigmoid/tanh activations, manual backpropagation, and Adam.
//!
//! # The minibatch kernel and its contract
//!
//! DDPG spends its time training: five minibatch steps per observation,
//! each pushing 32 replayed samples forward and backward through four
//! small networks. A network therefore works on a whole minibatch at
//! once, laid out in a [`Tape`] as one *feature-major* matrix per layer
//! (`acts[l][f * batch + s]`: feature `f` of sample `s`), and all three
//! products of backpropagation are the same loop, `accumulate`
//! (`C[r][·] += Σₖ A[r][k] · B[k][·]`, `k` ascending):
//!
//! * forward: `Y[o][s] = b[o] + Σᵢ w[o][i] · X[i][s]` — `C` starts at the
//!   bias, the lanes are **samples**;
//! * input gradient: `dX[i][s] = 0.0 + Σₒ w[o][i] · dY[o][s]` — lanes are
//!   samples again, and only the rows somebody reads are computed (none
//!   for the first layer of a training pass, the action rows for the
//!   policy gradient through the critic);
//! * parameter gradient: `gw[o][i] += Σₛ dY[o][s] · X[i][s]`, from
//!   whatever `gw` held — the lanes are **input columns**, read from a
//!   sample-major copy of `X` made per layer.
//!
//! **The contract is bit identity with the one-sample-at-a-time
//! implementation** (kept under `#[cfg(test)]` as `reference`, the
//! oracle of `ddpg`'s equivalence proptest): the same weights, biases,
//! Adam moments and target parameters to the last bit after any number of
//! steps, hence the same suggestion stream (pinned by
//! `tests/ddpg_golden.rs`). It holds because nothing is reassociated. A
//! lane (a SIMD lane or one of `accumulate`'s register-resident
//! accumulators) is always a *different scalar result* — another sample,
//! another input column — never a partial sum of one result, so every
//! scalar still sees the same additions, of the same products, from the
//! same start value (`b[o]`; `0.0`; the running `gw`), in the same order
//! (`i`, `o`, and minibatch position ascending). Zero terms are not
//! skipped (`0 · NaN`, `-0.0`), nothing is fused (`mul_add`), and the
//! element-wise parts — ReLU and its mask, the output activation and its
//! derivative, Adam, the Polyak update — keep their expressions.
//!
//! `accumulate` runs through [`Isa::run`]: as compiled a second time
//! for AVX2 where the CPU has it (four lanes per register instead of
//! two), else as compiled for the baseline. The tape names the copy; the
//! rule above is why the two cannot differ in a bit.

use llamatune_math::{Isa, Normal};
use rand::rngs::StdRng;
use std::ops::Range;

/// Output activation of an MLP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    Linear,
    Sigmoid,
    Tanh,
}

impl Activation {
    fn apply(&self, x: f64) -> f64 {
        match self {
            Activation::Linear => x,
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Tanh => x.tanh(),
        }
    }

    /// Derivative expressed through the activation output `y`.
    fn derivative_from_output(&self, y: f64) -> f64 {
        match self {
            Activation::Linear => 1.0,
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Tanh => 1.0 - y * y,
        }
    }
}

/// `c[r][·] += Σₖ a[r·a_row + k·a_k] · b[k][·]` over row-major `c`
/// (`rows × cols`) and `b` (`depth × cols`), `k` ascending: the one
/// multiply-add loop of the module (see the module docs for its three
/// uses). The lanes are the columns. A block of them is loaded into
/// accumulators that stay in registers while `k` runs and is stored once,
/// so each `c[r][j]` takes exactly the additions `c[r][j] += a · b[k][j]`,
/// `k = 0, 1, …` would give it; blocks narrow from 16 columns to 1 so that
/// any width is covered without a second loop shape.
fn accumulate(
    isa: Isa,
    c: &mut [f64],
    a: &[f64],
    a_strides: (usize, usize),
    b: &[f64],
    cols: usize,
) {
    if cols == 0 {
        return;
    }
    debug_assert!(c.len().is_multiple_of(cols) && b.len().is_multiple_of(cols));
    isa.run(
        #[inline(always)]
        || {
            let mut done = 0;
            done = accumulate_blocks::<16>(c, a, a_strides, b, cols, done);
            done = accumulate_blocks::<8>(c, a, a_strides, b, cols, done);
            done = accumulate_blocks::<4>(c, a, a_strides, b, cols, done);
            done = accumulate_blocks::<2>(c, a, a_strides, b, cols, done);
            accumulate_blocks::<1>(c, a, a_strides, b, cols, done);
        },
    );
}

/// Every whole `L`-column block of [`accumulate`] from column `from` on;
/// returns the first column left over.
#[inline(always)]
fn accumulate_blocks<const L: usize>(
    c: &mut [f64],
    a: &[f64],
    (a_row, a_k): (usize, usize),
    b: &[f64],
    cols: usize,
    mut from: usize,
) -> usize {
    while from + L <= cols {
        for (r, c_row) in c.chunks_exact_mut(cols).enumerate() {
            let c_block: &mut [f64; L] =
                (&mut c_row[from..from + L]).try_into().expect("block is L wide");
            let mut acc = *c_block;
            for (k, b_row) in b.chunks_exact(cols).enumerate() {
                let a_rk = a[r * a_row + k * a_k];
                let b_block: &[f64; L] = b_row[from..from + L].try_into().expect("block is L wide");
                for (acc, b) in acc.iter_mut().zip(b_block) {
                    *acc += a_rk * b;
                }
            }
            *c_block = acc;
        }
        from += L;
    }
    from
}

/// `dst[c][r] = src[r][c]` for a row-major `rows × cols` source.
fn transpose(src: &[f64], cols: usize, dst: &mut [f64]) {
    let rows = src.len() / cols.max(1);
    for (r, row) in src.chunks_exact(cols.max(1)).enumerate() {
        for (c, &v) in row.iter().enumerate() {
            dst[c * rows + r] = v;
        }
    }
}

/// Writes `samples` into the top rows of a feature-major minibatch matrix:
/// `dst[i * batch + s] = samples[s][i]`.
pub fn scatter<'a>(dst: &mut [f64], batch: usize, samples: impl Iterator<Item = &'a Vec<f64>>) {
    for (s, sample) in samples.enumerate() {
        for (i, &v) in sample.iter().enumerate() {
            dst[i * batch + s] = v;
        }
    }
}

/// One dense layer with Adam moment estimates.
#[derive(Debug, Clone)]
struct Dense {
    inputs: usize,
    outputs: usize,
    w: Vec<f64>, // row-major [outputs x inputs]
    b: Vec<f64>,
    gw: Vec<f64>,
    gb: Vec<f64>,
    mw: Vec<f64>,
    vw: Vec<f64>,
    mb: Vec<f64>,
    vb: Vec<f64>,
}

impl Dense {
    fn new(inputs: usize, outputs: usize, rng: &mut StdRng) -> Dense {
        // He-style initialization.
        let scale = (2.0 / inputs as f64).sqrt();
        let normal = Normal::new(0.0, scale);
        Dense {
            inputs,
            outputs,
            w: (0..inputs * outputs).map(|_| normal.sample(rng)).collect(),
            b: vec![0.0; outputs],
            gw: vec![0.0; inputs * outputs],
            gb: vec![0.0; outputs],
            mw: vec![0.0; inputs * outputs],
            vw: vec![0.0; inputs * outputs],
            mb: vec![0.0; outputs],
            vb: vec![0.0; outputs],
        }
    }
}

/// Adam's decay rates and epsilon.
const ADAM: (f64, f64, f64) = (0.9, 0.999, 1e-8);

/// One Adam update of a parameter slice from its accumulated gradients,
/// which it clears. `scale` is `1/batch`; `corr1`/`corr2` the step's bias
/// corrections.
fn adam(
    (params, grads, m, v): (&mut [f64], &mut [f64], &mut [f64], &mut [f64]),
    (lr, scale, corr1, corr2): (f64, f64, f64, f64),
) {
    let (b1, b2, eps) = ADAM;
    for (((p, g), m), v) in params.iter_mut().zip(grads).zip(m).zip(v) {
        let grad = *g * scale;
        *m = b1 * *m + (1.0 - b1) * grad;
        *v = b2 * *v + (1.0 - b2) * grad * grad;
        let mhat = *m / corr1;
        let vhat = *v / corr2;
        *p -= lr * mhat / (vhat.sqrt() + eps);
        *g = 0.0;
    }
}

/// A minibatch's trip through one network: every layer's post-activation
/// output for every sample (feature-major; `acts[0]` is the input), and
/// the scratch backpropagation needs. Owned by the caller and reused
/// across steps, so a training step allocates nothing.
#[derive(Debug, Clone)]
pub struct Tape {
    batch: usize,
    /// The compiled copy of `accumulate` the passes over this tape run.
    isa: Isa,
    acts: Vec<Vec<f64>>,
    /// dLoss/d(output of the layer being processed), feature-major.
    grad: Vec<f64>,
    /// The gradient being built for the layer below; swapped with `grad`.
    grad_below: Vec<f64>,
    /// Sample-major copy of the current layer's input.
    rows: Vec<f64>,
}

impl Tape {
    /// Scratch for `batch` samples through a network of `net`'s shape.
    pub fn new(net: &Mlp, batch: usize) -> Tape {
        Tape::new_on(Isa::best(), net, batch)
    }

    /// [`Tape::new`], with the passes over the tape running `isa`'s copy
    /// of the kernel.
    pub(crate) fn new_on(isa: Isa, net: &Mlp, batch: usize) -> Tape {
        let widths: Vec<usize> = std::iter::once(net.input_dim())
            .chain(net.layers.iter().map(|layer| layer.outputs))
            .collect();
        let widest = widths.iter().copied().max().unwrap_or(0);
        Tape {
            batch,
            isa,
            acts: widths.iter().map(|w| vec![0.0; w * batch]).collect(),
            grad: vec![0.0; widest * batch],
            grad_below: vec![0.0; widest * batch],
            rows: vec![0.0; widest * batch],
        }
    }

    /// The network input, `[input_dim × batch]` feature-major.
    pub fn input(&self) -> &[f64] {
        &self.acts[0]
    }

    /// [`Tape::input`], for the caller to fill before
    /// [`Mlp::forward_batch`].
    pub fn input_mut(&mut self) -> &mut [f64] {
        &mut self.acts[0]
    }

    /// The network output of the last forward pass, `[output_dim × batch]`.
    pub fn output(&self) -> &[f64] {
        self.acts.last().expect("a tape has at least the input layer")
    }

    /// dLoss/dOutput, `[output_dim × batch]`, for the caller to fill
    /// before [`Mlp::backward`] or [`Mlp::input_gradient`].
    pub fn output_grad_mut(&mut self) -> &mut [f64] {
        self.output_and_grad_mut().1
    }

    /// [`Tape::output`] and [`Tape::output_grad_mut`] together, for a loss
    /// whose gradient is a function of the output.
    pub fn output_and_grad_mut(&mut self) -> (&[f64], &mut [f64]) {
        let out = self.acts.last().expect("a tape has at least the input layer");
        (out, &mut self.grad[..out.len()])
    }
}

/// A multi-layer perceptron with ReLU hidden layers.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
    out_act: Activation,
    step: u64,
}

impl Mlp {
    /// Builds an MLP with the given layer sizes, e.g. `[27, 64, 64, 16]`.
    pub fn new(sizes: &[usize], out_act: Activation, rng: &mut StdRng) -> Mlp {
        assert!(sizes.len() >= 2);
        let layers = sizes.windows(2).map(|w| Dense::new(w[0], w[1], rng)).collect();
        Mlp { layers, out_act, step: 0 }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.layers[0].inputs
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.layers.last().unwrap().outputs
    }

    /// Forward pass of one sample: a minibatch of one.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut tape = Tape::new(self, 1);
        tape.input_mut().copy_from_slice(x);
        self.forward_batch(&mut tape);
        tape.output().to_vec()
    }

    /// Forward pass of the tape's minibatch from its input, keeping every
    /// layer's output for the backward passes.
    pub fn forward_batch(&self, tape: &mut Tape) {
        let (batch, isa) = (tape.batch, tape.isa);
        let last = self.layers.len() - 1;
        for (li, layer) in self.layers.iter().enumerate() {
            let (below, above) = tape.acts.split_at_mut(li + 1);
            let (input, out) = (&below[li], &mut above[0]);
            for (row, &bias) in out.chunks_exact_mut(batch.max(1)).zip(&layer.b) {
                row.fill(bias);
            }
            accumulate(isa, out, &layer.w, (layer.inputs, 1), input, batch);
            if li < last {
                for v in out.iter_mut() {
                    *v = v.max(0.0); // ReLU
                }
            } else {
                for v in out.iter_mut() {
                    *v = self.out_act.apply(*v);
                }
            }
        }
    }

    /// Backpropagates the tape's dLoss/dOutput through its last forward
    /// pass, adding every sample's parameter gradients (in minibatch
    /// order) to the accumulated ones. The input's own gradient is not
    /// computed: a training pass has no reader for it.
    pub fn backward(&mut self, tape: &mut Tape) {
        self.backpropagate(tape, true, 0..0);
    }

    /// Gradient of the loss w.r.t. rows `rows` of the *input*, for every
    /// sample (`[rows.len() × batch]`), without touching parameter
    /// gradients: the deterministic policy gradient through the critic,
    /// which reads the action rows only.
    pub fn input_gradient<'t>(&mut self, tape: &'t mut Tape, rows: Range<usize>) -> &'t [f64] {
        let len = rows.len() * tape.batch;
        self.backpropagate(tape, false, rows);
        &tape.grad[..len]
    }

    fn backpropagate(
        &mut self,
        tape: &mut Tape,
        accumulate_params: bool,
        input_rows: Range<usize>,
    ) {
        let Tape { batch, isa, acts, grad, grad_below, rows } = tape;
        let (batch, isa) = (*batch, *isa);
        let last = self.layers.len() - 1;
        for (g, y) in grad.iter_mut().zip(&acts[last + 1]) {
            *g *= self.out_act.derivative_from_output(*y);
        }
        for (li, layer) in self.layers.iter_mut().enumerate().rev() {
            let g = &mut grad[..layer.outputs * batch];
            if li < last {
                // ReLU derivative through the stored post-activation.
                for (g, y) in g.iter_mut().zip(&acts[li + 1]) {
                    if *y <= 0.0 {
                        *g = 0.0;
                    }
                }
            }
            if accumulate_params {
                let x_rows = &mut rows[..layer.inputs * batch];
                transpose(&acts[li], batch, x_rows);
                accumulate(isa, &mut layer.gw, g, (batch, 1), x_rows, layer.inputs);
                for (gb, g_row) in layer.gb.iter_mut().zip(g.chunks_exact(batch.max(1))) {
                    for g in g_row {
                        *gb += g;
                    }
                }
            }
            let wanted = if li > 0 { 0..layer.inputs } else { input_rows.clone() };
            let below = &mut grad_below[..wanted.len() * batch];
            below.fill(0.0);
            accumulate(isa, below, &layer.w[wanted.start..], (1, layer.inputs), g, batch);
            std::mem::swap(grad, grad_below);
        }
    }

    /// Applies one Adam step with the accumulated gradients (scaled by
    /// `1/batch`) and clears them.
    pub fn adam_step(&mut self, lr: f64, batch: usize) {
        self.step += 1;
        let (b1, b2, _) = ADAM;
        let t = self.step as f64;
        let step = (lr, 1.0 / batch.max(1) as f64, 1.0 - b1.powf(t), 1.0 - b2.powf(t));
        for layer in &mut self.layers {
            adam((&mut layer.w, &mut layer.gw, &mut layer.mw, &mut layer.vw), step);
            adam((&mut layer.b, &mut layer.gb, &mut layer.mb, &mut layer.vb), step);
        }
    }

    /// Polyak-averages `source`'s parameters into this network:
    /// `theta = (1 - tau) * theta + tau * theta_source`.
    pub fn soft_update_from(&mut self, source: &Mlp, tau: f64) {
        for (dst, src) in self.layers.iter_mut().zip(&source.layers) {
            for (d, s) in dst.w.iter_mut().zip(&src.w) {
                *d = (1.0 - tau) * *d + tau * s;
            }
            for (d, s) in dst.b.iter_mut().zip(&src.b) {
                *d = (1.0 - tau) * *d + tau * s;
            }
        }
    }
}

/// The one-sample-at-a-time implementation the minibatch kernel replaced,
/// kept as the parent commit had it: a dependent `acc += w * x` chain per
/// output, a second forward pass inside every backward pass, index loops
/// in Adam. The oracle of the kernel's bit-identity contract — this
/// module's tests and `ddpg`'s equivalence proptest run both.
#[cfg(test)]
pub(crate) mod reference {
    use super::{Activation, Dense, Mlp};

    fn forward_layer(layer: &Dense, x: &[f64], out: &mut Vec<f64>) {
        out.clear();
        for o in 0..layer.outputs {
            let row = &layer.w[o * layer.inputs..(o + 1) * layer.inputs];
            let mut acc = layer.b[o];
            for (w, xi) in row.iter().zip(x) {
                acc += w * xi;
            }
            out.push(acc);
        }
    }

    /// Forward pass.
    pub(crate) fn forward(net: &Mlp, x: &[f64]) -> Vec<f64> {
        forward_cached(net, x).pop().expect("the input is always there")
    }

    /// Forward pass keeping the post-activation output of every layer
    /// (index 0 is the input itself).
    fn forward_cached(net: &Mlp, x: &[f64]) -> Vec<Vec<f64>> {
        let mut acts = Vec::with_capacity(net.layers.len() + 1);
        acts.push(x.to_vec());
        let last = net.layers.len() - 1;
        for (li, layer) in net.layers.iter().enumerate() {
            let mut out = Vec::new();
            forward_layer(layer, acts.last().unwrap(), &mut out);
            if li < last {
                for v in out.iter_mut() {
                    *v = v.max(0.0);
                }
            } else {
                for v in out.iter_mut() {
                    *v = net.out_act.apply(*v);
                }
            }
            acts.push(out);
        }
        acts
    }

    /// Backpropagates `grad_out` (dLoss/dOutput) for one sample,
    /// accumulating parameter gradients; returns dLoss/dInput.
    pub(crate) fn backward(net: &mut Mlp, x: &[f64], grad_out: &[f64]) -> Vec<f64> {
        let acts = forward_cached(net, x);
        let last = net.layers.len() - 1;
        let mut grad: Vec<f64> = grad_out
            .iter()
            .zip(&acts[last + 1])
            .map(|(g, y)| g * net.out_act.derivative_from_output(*y))
            .collect();
        for li in (0..net.layers.len()).rev() {
            if li < last {
                // ReLU derivative through the stored post-activation.
                for (g, y) in grad.iter_mut().zip(&acts[li + 1]) {
                    if *y <= 0.0 {
                        *g = 0.0;
                    }
                }
            }
            let layer = &mut net.layers[li];
            let input = &acts[li];
            let mut grad_in = vec![0.0; layer.inputs];
            for (o, &g) in grad.iter().enumerate().take(layer.outputs) {
                layer.gb[o] += g;
                let row = o * layer.inputs;
                for (i, gi) in grad_in.iter_mut().enumerate() {
                    layer.gw[row + i] += g * input[i];
                    *gi += g * layer.w[row + i];
                }
            }
            grad = grad_in;
        }
        grad
    }

    /// Gradient of a scalar projection of the output w.r.t. the *input*,
    /// without touching parameter gradients.
    pub(crate) fn input_gradient(net: &Mlp, x: &[f64], grad_out: &[f64]) -> Vec<f64> {
        let acts = forward_cached(net, x);
        let last = net.layers.len() - 1;
        let mut grad: Vec<f64> = grad_out
            .iter()
            .zip(&acts[last + 1])
            .map(|(g, y)| g * net.out_act.derivative_from_output(*y))
            .collect();
        for li in (0..net.layers.len()).rev() {
            if li < last {
                for (g, y) in grad.iter_mut().zip(&acts[li + 1]) {
                    if *y <= 0.0 {
                        *g = 0.0;
                    }
                }
            }
            let layer = &net.layers[li];
            let mut grad_in = vec![0.0; layer.inputs];
            for (o, &g) in grad.iter().enumerate().take(layer.outputs) {
                let row = o * layer.inputs;
                for (i, gi) in grad_in.iter_mut().enumerate() {
                    *gi += g * layer.w[row + i];
                }
            }
            grad = grad_in;
        }
        grad
    }

    /// Applies one Adam step with the accumulated gradients (scaled by
    /// `1/batch`) and clears them.
    pub(crate) fn adam_step(net: &mut Mlp, lr: f64, batch: usize) {
        net.step += 1;
        let (b1, b2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);
        let t = net.step as f64;
        let corr1 = 1.0 - b1.powf(t);
        let corr2 = 1.0 - b2.powf(t);
        let scale = 1.0 / batch.max(1) as f64;
        for layer in &mut net.layers {
            for i in 0..layer.w.len() {
                let g = layer.gw[i] * scale;
                layer.mw[i] = b1 * layer.mw[i] + (1.0 - b1) * g;
                layer.vw[i] = b2 * layer.vw[i] + (1.0 - b2) * g * g;
                let mhat = layer.mw[i] / corr1;
                let vhat = layer.vw[i] / corr2;
                layer.w[i] -= lr * mhat / (vhat.sqrt() + eps);
                layer.gw[i] = 0.0;
            }
            for i in 0..layer.b.len() {
                let g = layer.gb[i] * scale;
                layer.mb[i] = b1 * layer.mb[i] + (1.0 - b1) * g;
                layer.vb[i] = b2 * layer.vb[i] + (1.0 - b2) * g * g;
                let mhat = layer.mb[i] / corr1;
                let vhat = layer.vb[i] / corr2;
                layer.b[i] -= lr * mhat / (vhat.sqrt() + eps);
                layer.gb[i] = 0.0;
            }
        }
    }

    /// Polyak-averages `source`'s parameters into `net`.
    pub(crate) fn soft_update_from(net: &mut Mlp, source: &Mlp, tau: f64) {
        for (dst, src) in net.layers.iter_mut().zip(&source.layers) {
            for (d, s) in dst.w.iter_mut().zip(&src.w) {
                *d = (1.0 - tau) * *d + tau * s;
            }
            for (d, s) in dst.b.iter_mut().zip(&src.b) {
                *d = (1.0 - tau) * *d + tau * s;
            }
        }
    }

    /// Every number a network holds — weights, biases, pending gradients,
    /// Adam moments, layer by layer, then the step count — as bit patterns,
    /// so a comparison tells `0.0` from `-0.0` and equates NaNs.
    pub(crate) fn bits(net: &Mlp) -> Vec<u64> {
        let mut out = Vec::new();
        for l in &net.layers {
            for v in [&l.w, &l.b, &l.gw, &l.gb, &l.mw, &l.vw, &l.mb, &l.vb] {
                out.extend(v.iter().map(|x| x.to_bits()));
            }
        }
        out.push(net.step);
        out
    }

    /// Swaps the output activation (DDPG builds only sigmoid and linear
    /// heads).
    pub(crate) fn set_head(net: &mut Mlp, head: Activation) {
        net.out_act = head;
    }

    /// Zeroes unit `unit` of layer `layer` — its weight row and bias — so
    /// its pre-activation is exactly `0.0` on every finite input: a tie at
    /// the ReLU boundary.
    pub(crate) fn silence_unit(net: &mut Mlp, layer: usize, unit: usize) {
        let l = &mut net.layers[layer];
        l.w[unit * l.inputs..(unit + 1) * l.inputs].fill(0.0);
        l.b[unit] = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngExt, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    /// One sample forward and backward through the kernel (a minibatch of
    /// one): accumulates parameter gradients, returns dLoss/dInput.
    fn backward_one(net: &mut Mlp, x: &[f64], grad_out: &[f64]) -> Vec<f64> {
        let mut tape = Tape::new(net, 1);
        tape.input_mut().copy_from_slice(x);
        net.forward_batch(&mut tape);
        tape.output_grad_mut().copy_from_slice(grad_out);
        net.backward(&mut tape);
        tape.output_grad_mut().copy_from_slice(grad_out);
        net.input_gradient(&mut tape, 0..x.len()).to_vec()
    }

    #[test]
    fn forward_shapes() {
        let mut r = rng();
        let net = Mlp::new(&[3, 8, 2], Activation::Sigmoid, &mut r);
        let out = net.forward(&[0.1, -0.2, 0.3]);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|v| (0.0..=1.0).contains(v)), "sigmoid output in (0,1)");
        assert_eq!(net.input_dim(), 3);
        assert_eq!(net.output_dim(), 2);
    }

    #[test]
    fn gradient_check_against_finite_differences() {
        let mut r = rng();
        let mut net = Mlp::new(&[2, 5, 1], Activation::Linear, &mut r);
        let x = [0.3, -0.7];
        // Loss = 0.5 * out^2; dLoss/dOut = out.
        let out = net.forward(&x)[0];
        let grad_in = backward_one(&mut net, &x, &[out]);
        // Finite-difference check of dLoss/dInput.
        let eps = 1e-6;
        for i in 0..2 {
            let mut xp = x;
            xp[i] += eps;
            let up = 0.5 * net.forward(&xp)[0].powi(2);
            let mut xm = x;
            xm[i] -= eps;
            let dn = 0.5 * net.forward(&xm)[0].powi(2);
            let numeric = (up - dn) / (2.0 * eps);
            assert!(
                (numeric - grad_in[i]).abs() < 1e-5,
                "input grad {i}: analytic {} vs numeric {numeric}",
                grad_in[i]
            );
        }
    }

    /// The three passes of the kernel against the per-sample reference on
    /// one minibatch, bit for bit: outputs, accumulated parameter
    /// gradients, and the input gradient of a row range — at widths below,
    /// at and past every block width of `accumulate`, on every copy of it
    /// the CPU runs.
    #[test]
    fn input_gradient_matches_backward() {
        let mut r = rng();
        for (sizes, batch) in [
            (vec![3, 6, 2], 1),
            (vec![5, 17, 16, 3], 7),
            (vec![43, 64, 64, 1], 32),
            (vec![31, 33, 1, 15], 40),
        ] {
            for head in [Activation::Tanh, Activation::Sigmoid, Activation::Linear] {
                let start = Mlp::new(&sizes, head, &mut r);
                let (n_in, n_out) = (start.input_dim(), start.output_dim());
                let xs: Vec<Vec<f64>> = (0..batch)
                    .map(|_| (0..n_in).map(|_| r.random_range(-1.0..1.0)).collect())
                    .collect();
                let gs: Vec<Vec<f64>> = (0..batch)
                    .map(|_| (0..n_out).map(|_| r.random_range(-1.0..1.0)).collect())
                    .collect();
                let rows = n_in / 3..n_in;

                for isa in Isa::available() {
                    let (mut net, mut oracle) = (start.clone(), start.clone());
                    let mut tape = Tape::new_on(isa, &net, batch);
                    scatter(tape.input_mut(), batch, xs.iter());
                    net.forward_batch(&mut tape);
                    let out = tape.output().to_vec();
                    scatter(tape.output_grad_mut(), batch, gs.iter());
                    net.backward(&mut tape);
                    scatter(tape.output_grad_mut(), batch, gs.iter());
                    let grad_in = net.input_gradient(&mut tape, rows.clone()).to_vec();

                    for (s, (x, g)) in xs.iter().zip(&gs).enumerate() {
                        let want_out = reference::forward(&oracle, x);
                        let want_in = reference::backward(&mut oracle, x, g);
                        assert_eq!(want_in, reference::input_gradient(&oracle, x, g));
                        for (o, want) in want_out.iter().enumerate() {
                            assert_eq!(out[o * batch + s].to_bits(), want.to_bits());
                        }
                        for (k, i) in rows.clone().enumerate() {
                            assert_eq!(grad_in[k * batch + s].to_bits(), want_in[i].to_bits());
                        }
                    }
                    let label = format!("{sizes:?} {head:?} {isa:?}");
                    assert_eq!(reference::bits(&net), reference::bits(&oracle), "{label}");
                }
            }
        }
    }

    #[test]
    fn sgd_learns_a_linear_map() {
        let mut r = rng();
        let mut net = Mlp::new(&[1, 16, 1], Activation::Linear, &mut r);
        // y = 2x - 1 on [0, 1].
        for epoch in 0..800 {
            let x = [(epoch % 10) as f64 / 10.0];
            let target = 2.0 * x[0] - 1.0;
            let out = net.forward(&x)[0];
            backward_one(&mut net, &x, &[out - target]);
            net.adam_step(0.01, 1);
        }
        for i in 0..5 {
            let x = [i as f64 / 5.0];
            let out = net.forward(&x)[0];
            let target = 2.0 * x[0] - 1.0;
            assert!((out - target).abs() < 0.15, "f({}) = {out}, want {target}", x[0]);
        }
    }

    #[test]
    fn soft_update_moves_toward_source() {
        let mut r = rng();
        let src = Mlp::new(&[2, 4, 1], Activation::Linear, &mut r);
        let mut dst = Mlp::new(&[2, 4, 1], Activation::Linear, &mut r);
        let before = dst.forward(&[0.5, 0.5])[0];
        let target = src.forward(&[0.5, 0.5])[0];
        for _ in 0..400 {
            dst.soft_update_from(&src, 0.05);
        }
        let after = dst.forward(&[0.5, 0.5])[0];
        assert!(
            (after - target).abs() < (before - target).abs() + 1e-12,
            "soft updates should converge toward the source"
        );
        assert!((after - target).abs() < 1e-3);
    }
}
