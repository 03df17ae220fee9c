//! The one minibatch-SGD driver behind every linear submodel.
//!
//! ParMAC's premise (§4) is that data and coordinates never move: a submodel
//! arrives at a machine and is trained on the shard *where it lies*. The
//! driver here therefore takes a [`RowSource`] and the row indices to visit,
//! in order, instead of a gathered copy of the rows: a [`Mat`] row is
//! borrowed, any other source decodes a row into one reused scratch buffer,
//! and the minibatch gradient accumulates into one reused buffer — nothing is
//! allocated per minibatch or per point.
//!
//! [`LinearSvm`](crate::LinearSvm), [`RidgeRegression`](crate::RidgeRegression)
//! and [`LogisticRegression`](crate::LogisticRegression) share the weight
//! update and differ only in one point's contribution to the gradient (the
//! crate-private `LinearSgd::accumulate`); their `fit_indexed`, `fit_batch`
//! and `sgd_step` all end in the same `minibatch_step`.

use crate::sgd::SgdConfig;
use parmac_linalg::Mat;

/// Feature rows a submodel is trained on, read in place.
///
/// Implemented by [`Mat`] (a row is borrowed) and, in `parmac-hash`, by the
/// bit-packed `BinaryCodes` (a row is decoded to 0/1 floats on the fly).
pub trait RowSource {
    /// Length of every row.
    fn dim(&self) -> usize;

    /// Row `i`, either borrowed from the source or written into `scratch`
    /// (which callers size to [`dim`](RowSource::dim)).
    ///
    /// # Panics
    ///
    /// Implementations panic if `i` is out of range.
    fn row<'a>(&'a self, i: usize, scratch: &'a mut [f64]) -> &'a [f64];
}

impl RowSource for Mat {
    fn dim(&self) -> usize {
        self.cols()
    }

    fn row<'a>(&'a self, i: usize, _scratch: &'a mut [f64]) -> &'a [f64] {
        Mat::row(self, i)
    }
}

/// What the driver needs from a linear model `wᵀx + b` with an L2 penalty.
pub(crate) trait LinearSgd {
    /// Adds one point's share of the minibatch (sub)gradient of the loss to
    /// `grad_w` / `grad_b`; `n` is the minibatch size.
    fn accumulate(&self, row: &[f64], target: f64, n: f64, grad_w: &mut [f64], grad_b: &mut f64);

    /// The parameters and counters the update line touches.
    fn state_mut(&mut self) -> LinearState<'_>;

    /// Schedule and minibatch size.
    fn sgd_config(&self) -> SgdConfig;
}

/// A linear model's trainable state, lent to the driver.
pub(crate) struct LinearState<'a> {
    pub weights: &'a mut [f64],
    pub bias: &'a mut f64,
    pub lambda: f64,
    pub updates: &'a mut u64,
}

/// One point's gradient share for a loss whose derivative in the linear
/// output is the residual `err` — squared loss (prediction − target) and
/// cross-entropy through a sigmoid (activation − target) alike.
pub(crate) fn accumulate_residual(
    err: f64,
    row: &[f64],
    n: f64,
    grad_w: &mut [f64],
    grad_b: &mut f64,
) {
    for (g, &xi) in grad_w.iter_mut().zip(row) {
        *g += err * xi / n;
    }
    *grad_b += err / n;
}

/// [`Submodel::sgd_step`](crate::Submodel::sgd_step) for a linear model: one
/// step on the dense minibatch `(x, targets)`.
pub(crate) fn dense_step<M: LinearSgd>(model: &mut M, x: &Mat, targets: &[f64], step: f64) {
    assert_eq!(x.rows(), targets.len(), "sgd_step: target count mismatch");
    let dim = model.state_mut().weights.len();
    assert_eq!(x.cols(), dim, "sgd_step: dim mismatch");
    let mut grad_w = vec![0.0; dim];
    minibatch_step(model, x, 0..x.rows(), targets, step, &mut grad_w, &mut []);
}

/// One SGD step on the minibatch made of rows `rows` of `source` (paired with
/// `targets` in order): the weights move along the negative (sub)gradient of
/// the regularised average loss. `grad_w` is overwritten.
fn minibatch_step<M: LinearSgd, S: RowSource>(
    model: &mut M,
    source: &S,
    rows: impl Iterator<Item = usize>,
    targets: &[f64],
    step: f64,
    grad_w: &mut [f64],
    scratch: &mut [f64],
) {
    let n = targets.len().max(1) as f64;
    grad_w.fill(0.0);
    let mut grad_b = 0.0;
    for (&target, i) in targets.iter().zip(rows) {
        model.accumulate(source.row(i, scratch), target, n, grad_w, &mut grad_b);
    }
    let state = model.state_mut();
    for (w, g) in state.weights.iter_mut().zip(grad_w.iter()) {
        *w -= step * (state.lambda * *w + g);
    }
    *state.bias -= step * grad_b;
    *state.updates += 1;
}

/// Runs `passes` passes of minibatch SGD over the rows `order` of `source`,
/// `targets[k]` being the target of row `order[k]`, with the model's
/// configured schedule and minibatch size (the last minibatch of a pass may
/// be short). Allocates the gradient and row-scratch buffers once.
///
/// # Panics
///
/// Panics if `order` and `targets` differ in length or `source.dim()` is not
/// the model's input dimensionality.
pub(crate) fn sgd_passes<M: LinearSgd, S: RowSource>(
    model: &mut M,
    source: &S,
    order: impl ExactSizeIterator<Item = usize> + Clone,
    targets: &[f64],
    passes: usize,
) {
    assert_eq!(order.len(), targets.len(), "fit: target count mismatch");
    let dim = model.state_mut().weights.len();
    assert_eq!(source.dim(), dim, "fit: dim mismatch");
    let config = model.sgd_config();
    let batch_size = config.minibatch_size.max(1);
    let mut grad_w = vec![0.0; dim];
    let mut scratch = vec![0.0; dim];
    for _ in 0..passes {
        let mut rows = order.clone();
        for batch in targets.chunks(batch_size) {
            let step = config.schedule.step_size(*model.state_mut().updates);
            minibatch_step(
                model,
                source,
                rows.by_ref().take(batch.len()),
                batch,
                step,
                &mut grad_w,
                &mut scratch,
            );
        }
    }
}

/// `Σ loss(row, target)` over the rows `order` of `source`, summed in order.
pub(crate) fn loss_sum<S: RowSource>(
    source: &S,
    order: impl ExactSizeIterator<Item = usize>,
    targets: &[f64],
    loss: impl Fn(&[f64], f64) -> f64,
) -> f64 {
    assert_eq!(
        order.len(),
        targets.len(),
        "objective: target count mismatch"
    );
    let mut scratch = vec![0.0; source.dim()];
    order
        .zip(targets)
        .map(|(i, &target)| loss(source.row(i, &mut scratch), target))
        .sum()
}
