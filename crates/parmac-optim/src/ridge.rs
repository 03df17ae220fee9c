//! Ridge (L2-regularised least-squares) regression: one row of the binary
//! autoencoder's linear decoder (§3.1: "for each of the D linear decoders in
//! f ... each a linear least-squares problem").

use crate::minibatch::{self, LinearSgd, LinearState, RowSource};
use crate::sgd::SgdConfig;
use crate::submodel::Submodel;
use parmac_linalg::cholesky::solve_ridge;
use parmac_linalg::vector::dot;
use parmac_linalg::Mat;
use serde::{Deserialize, Serialize};

/// A linear model `wᵀx + b` trained with squared loss and L2 regularisation.
///
/// The objective is `λ/2 ‖w‖² + (1/2n) Σ (wᵀx + b − y)²`. The model can be
/// trained stochastically (the ParMAC W step) or exactly via the normal
/// equations (the serial MAC baseline, [`RidgeRegression::fit_exact`]).
///
/// # Examples
///
/// ```
/// use parmac_linalg::Mat;
/// use parmac_optim::{RidgeRegression, SgdConfig};
///
/// let x = Mat::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
/// let y = [1.0, 3.0, 5.0, 7.0]; // y = 2x + 1
/// let mut model = RidgeRegression::new(1, SgdConfig::new());
/// model.fit_exact(&x, &y);
/// let pred = model.predict_one(&[4.0]);
/// assert!((pred - 9.0).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RidgeRegression {
    weights: Vec<f64>,
    bias: f64,
    lambda: f64,
    updates: u64,
    config: SgdConfig,
}

impl RidgeRegression {
    /// Creates a zero-initialised model for `dim`-dimensional inputs.
    pub fn new(dim: usize, config: SgdConfig) -> Self {
        RidgeRegression {
            weights: vec![0.0; dim],
            bias: 0.0,
            lambda: config.lambda,
            updates: 0,
            config,
        }
    }

    /// The weight vector (excluding the bias).
    pub fn weight_vector(&self) -> &[f64] {
        &self.weights
    }

    /// The bias term.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// Number of SGD updates performed so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Prediction for a single point.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` does not match the input dimensionality.
    pub fn predict_one(&self, x: &[f64]) -> f64 {
        dot(&self.weights, x) + self.bias
    }

    /// Fits the model exactly by solving the ridge normal equations on the
    /// bias-augmented inputs. This is the "exact W step" of serial MAC.
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != y.len()`.
    pub fn fit_exact(&mut self, x: &Mat, y: &[f64]) {
        assert_eq!(x.rows(), y.len(), "fit_exact: target count mismatch");
        let xa = x.with_bias_column();
        let yb = Mat::from_vec(y.len(), 1, y.to_vec());
        // Small floor on the regulariser keeps the Gram matrix SPD even for
        // degenerate inputs (e.g. constant binary codes).
        let lambda = self.lambda.max(1e-10) * x.rows().max(1) as f64;
        let w = solve_ridge(&xa, &yb, lambda).expect("ridge normal equations are SPD");
        for (i, wi) in self.weights.iter_mut().enumerate() {
            *wi = w[(i, 0)];
        }
        self.bias = w[(x.cols(), 0)];
    }

    /// Runs `epochs` passes of minibatch SGD over `(x, y)`.
    pub fn fit_batch(&mut self, x: &Mat, y: &[f64], epochs: usize) {
        self.fit_indexed(x, 0..x.rows(), y, epochs);
    }

    /// Runs `passes` passes of minibatch SGD over the rows `order` of
    /// `source`, read in place; `y[k]` is the target of row `order[k]`.
    ///
    /// # Panics
    ///
    /// Panics if `order` and `y` differ in length or the row length is not
    /// the input dimensionality.
    pub fn fit_indexed<S: RowSource>(
        &mut self,
        source: &S,
        order: impl ExactSizeIterator<Item = usize> + Clone,
        y: &[f64],
        passes: usize,
    ) {
        minibatch::sgd_passes(self, source, order, y, passes);
    }

    /// The regularised objective on the rows `order` of `source` with targets
    /// `y`, read in place ([`Submodel::objective`] without the gathered copy).
    pub fn objective_indexed<S: RowSource>(
        &self,
        source: &S,
        order: impl ExactSizeIterator<Item = usize>,
        y: &[f64],
    ) -> f64 {
        let n = y.len().max(1) as f64;
        let sq = minibatch::loss_sum(source, order, y, |row, y| {
            let e = self.predict_one(row) - y;
            e * e
        }) / (2.0 * n);
        sq + 0.5 * self.lambda * dot(&self.weights, &self.weights)
    }

    /// Mean squared error on `(x, y)`.
    pub fn mse(&self, x: &Mat, y: &[f64]) -> f64 {
        if y.is_empty() {
            return 0.0;
        }
        self.predict(x)
            .iter()
            .zip(y)
            .map(|(p, t)| (p - t) * (p - t))
            .sum::<f64>()
            / y.len() as f64
    }
}

impl Submodel for RidgeRegression {
    fn dim(&self) -> usize {
        self.weights.len()
    }

    fn sgd_step(&mut self, x: &Mat, targets: &[f64], step: f64) {
        minibatch::dense_step(self, x, targets, step);
    }

    fn objective(&self, x: &Mat, targets: &[f64]) -> f64 {
        self.objective_indexed(x, 0..x.rows(), targets)
    }

    fn predict(&self, x: &Mat) -> Vec<f64> {
        (0..x.rows()).map(|i| self.predict_one(x.row(i))).collect()
    }

    fn weights(&self) -> Vec<f64> {
        let mut w = self.weights.clone();
        w.push(self.bias);
        w
    }

    fn set_weights(&mut self, weights: &[f64]) {
        assert_eq!(
            weights.len(),
            self.weights.len() + 1,
            "set_weights: length mismatch"
        );
        let (w, b) = weights.split_at(self.weights.len());
        self.weights.copy_from_slice(w);
        self.bias = b[0];
    }
}

impl LinearSgd for RidgeRegression {
    fn accumulate(&self, row: &[f64], y: f64, n: f64, grad_w: &mut [f64], grad_b: &mut f64) {
        minibatch::accumulate_residual(self.predict_one(row) - y, row, n, grad_w, grad_b);
    }

    fn state_mut(&mut self) -> LinearState<'_> {
        LinearState {
            weights: &mut self.weights,
            bias: &mut self.bias,
            lambda: self.lambda,
            updates: &mut self.updates,
        }
    }

    fn sgd_config(&self) -> SgdConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn linear_problem(n: usize, seed: u64) -> (Mat, Vec<f64>, Vec<f64>, f64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let x = Mat::random_normal(n, 3, &mut rng);
        let w = vec![2.0, -1.0, 0.5];
        let b = 0.7;
        let y: Vec<f64> = (0..n).map(|i| dot(x.row(i), &w) + b).collect();
        (x, y, w, b)
    }

    #[test]
    fn exact_fit_recovers_generating_model() {
        let (x, y, w, b) = linear_problem(200, 0);
        let mut model = RidgeRegression::new(3, SgdConfig::new().with_lambda(1e-8));
        model.fit_exact(&x, &y);
        for (wi, ti) in model.weight_vector().iter().zip(&w) {
            assert!((wi - ti).abs() < 1e-3, "weight {wi} vs {ti}");
        }
        assert!((model.bias() - b).abs() < 1e-3);
        assert!(model.mse(&x, &y) < 1e-6);
    }

    #[test]
    fn sgd_fit_approaches_exact_fit() {
        let (x, y, _, _) = linear_problem(300, 1);
        let mut exact = RidgeRegression::new(3, SgdConfig::new().with_lambda(1e-6));
        exact.fit_exact(&x, &y);
        let mut sgd = RidgeRegression::new(
            3,
            SgdConfig::new()
                .with_eta0(0.05)
                .with_lambda(1e-6)
                .with_minibatch_size(10),
        );
        sgd.fit_batch(&x, &y, 100);
        assert!(sgd.mse(&x, &y) < 10.0 * (exact.mse(&x, &y) + 1e-3));
    }

    #[test]
    fn sgd_step_reduces_objective() {
        let (x, y, _, _) = linear_problem(100, 2);
        let mut model = RidgeRegression::new(3, SgdConfig::new());
        let before = model.objective(&x, &y);
        for _ in 0..200 {
            model.sgd_step(&x, &y, 0.05);
        }
        assert!(model.objective(&x, &y) < before);
    }

    #[test]
    fn weights_round_trip() {
        let (x, y, _, _) = linear_problem(50, 3);
        let mut model = RidgeRegression::new(3, SgdConfig::new());
        model.fit_exact(&x, &y);
        let w = Submodel::weights(&model);
        let mut copy = RidgeRegression::new(3, SgdConfig::new());
        copy.set_weights(&w);
        assert_eq!(model.predict(&x), copy.predict(&x));
    }

    #[test]
    fn strong_regularisation_shrinks_weights() {
        let (x, y, _, _) = linear_problem(100, 4);
        let mut weak = RidgeRegression::new(3, SgdConfig::new().with_lambda(1e-8));
        let mut strong = RidgeRegression::new(3, SgdConfig::new().with_lambda(100.0));
        weak.fit_exact(&x, &y);
        strong.fit_exact(&x, &y);
        let norm = |m: &RidgeRegression| dot(m.weight_vector(), m.weight_vector());
        assert!(norm(&strong) < norm(&weak));
    }

    #[test]
    fn mse_on_empty_is_zero() {
        let model = RidgeRegression::new(2, SgdConfig::new());
        assert_eq!(model.mse(&Mat::zeros(0, 2), &[]), 0.0);
    }

    #[test]
    fn exact_fit_handles_constant_inputs() {
        // Degenerate design matrix (all-zero column) must not panic thanks to
        // the ridge floor.
        let x = Mat::from_rows(&[vec![0.0, 1.0], vec![0.0, 1.0], vec![0.0, 1.0]]);
        let y = [1.0, 1.0, 1.0];
        let mut model = RidgeRegression::new(2, SgdConfig::new().with_lambda(0.0));
        model.fit_exact(&x, &y);
        assert!((model.predict_one(&[0.0, 1.0]) - 1.0).abs() < 0.2);
    }
}
