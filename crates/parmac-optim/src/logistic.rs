//! Logistic regression: the per-hidden-unit submodel of the K-layer MAC
//! (§3.2: "each a single-layer, single-unit submodel that can be solved with
//! existing algorithms (logistic regression)").

use crate::minibatch::{self, LinearSgd, LinearState, RowSource};
use crate::sgd::SgdConfig;
use crate::submodel::Submodel;
use parmac_linalg::vector::dot;
use parmac_linalg::Mat;
use serde::{Deserialize, Serialize};

/// The logistic sigmoid `1 / (1 + e^{-t})`.
pub fn sigmoid(t: f64) -> f64 {
    if t >= 0.0 {
        1.0 / (1.0 + (-t).exp())
    } else {
        let e = t.exp();
        e / (1.0 + e)
    }
}

/// A single logistic unit `σ(wᵀx + b)` trained with cross-entropy loss on
/// targets in `[0, 1]`.
///
/// In the K-layer MAC the targets are the auxiliary coordinates of the layer
/// above, which live in `[0, 1]` because the squashing nonlinearity is a
/// sigmoid — so the unit is trained as a (soft-target) logistic regression.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogisticRegression {
    weights: Vec<f64>,
    bias: f64,
    lambda: f64,
    updates: u64,
    config: SgdConfig,
}

impl LogisticRegression {
    /// Creates a zero-initialised unit for `dim`-dimensional inputs.
    pub fn new(dim: usize, config: SgdConfig) -> Self {
        LogisticRegression {
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

    /// Activation `σ(wᵀx + b)` for one point.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` does not match the input dimensionality.
    pub fn activate(&self, x: &[f64]) -> f64 {
        sigmoid(dot(&self.weights, x) + self.bias)
    }

    /// Activations for all rows of `x`.
    pub fn activate_all(&self, x: &Mat) -> Vec<f64> {
        (0..x.rows()).map(|i| self.activate(x.row(i))).collect()
    }

    /// Runs `epochs` passes of minibatch SGD on `(x, targets)`.
    pub fn fit_batch(&mut self, x: &Mat, targets: &[f64], epochs: usize) {
        self.fit_indexed(x, 0..x.rows(), targets, epochs);
    }

    /// Runs `passes` passes of minibatch SGD over the rows `order` of
    /// `source`, read in place; `targets[k]` is the target of row `order[k]`.
    ///
    /// # Panics
    ///
    /// Panics if `order` and `targets` differ in length or the row length is
    /// not the input dimensionality.
    pub fn fit_indexed<S: RowSource>(
        &mut self,
        source: &S,
        order: impl ExactSizeIterator<Item = usize> + Clone,
        targets: &[f64],
        passes: usize,
    ) {
        minibatch::sgd_passes(self, source, order, targets, passes);
    }
}

impl Submodel for LogisticRegression {
    fn dim(&self) -> usize {
        self.weights.len()
    }

    fn sgd_step(&mut self, x: &Mat, targets: &[f64], step: f64) {
        minibatch::dense_step(self, x, targets, step);
    }

    fn objective(&self, x: &Mat, targets: &[f64]) -> f64 {
        assert_eq!(x.rows(), targets.len());
        let n = x.rows().max(1) as f64;
        let eps = 1e-12;
        let ce: f64 = targets
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                let p = self.activate(x.row(i)).clamp(eps, 1.0 - eps);
                -(t * p.ln() + (1.0 - t) * (1.0 - p).ln())
            })
            .sum::<f64>()
            / n;
        ce + 0.5 * self.lambda * dot(&self.weights, &self.weights)
    }

    fn predict(&self, x: &Mat) -> Vec<f64> {
        self.activate_all(x)
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

impl LinearSgd for LogisticRegression {
    fn accumulate(&self, row: &[f64], t: f64, n: f64, grad_w: &mut [f64], grad_b: &mut f64) {
        minibatch::accumulate_residual(self.activate(row) - t, row, n, grad_w, grad_b);
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

    #[test]
    fn sigmoid_basic_values_and_stability() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(100.0) > 0.999);
        assert!(sigmoid(-100.0) < 0.001);
        assert!(sigmoid(-1e6).is_finite());
        assert!(sigmoid(1e6).is_finite());
    }

    #[test]
    fn sigmoid_is_symmetric() {
        for t in [-3.0, -0.5, 0.0, 1.2, 4.0] {
            assert!((sigmoid(t) + sigmoid(-t) - 1.0).abs() < 1e-12);
        }
    }

    fn binary_problem(n: usize, seed: u64) -> (Mat, Vec<f64>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let x = Mat::random_normal(n, 3, &mut rng);
        let y: Vec<f64> = (0..n)
            .map(|i| {
                let d = dot(x.row(i), &[1.5, -1.0, 0.0]);
                if d >= 0.0 {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        (x, y)
    }

    #[test]
    fn learns_linearly_separable_labels() {
        let (x, y) = binary_problem(400, 0);
        let mut lr = LogisticRegression::new(3, SgdConfig::new().with_eta0(0.5).with_lambda(1e-5));
        lr.fit_batch(&x, &y, 80);
        let acc = lr
            .activate_all(&x)
            .iter()
            .zip(&y)
            .filter(|(p, t)| (**p >= 0.5) == (**t >= 0.5))
            .count() as f64
            / y.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn objective_decreases_with_training() {
        let (x, y) = binary_problem(150, 1);
        let mut lr = LogisticRegression::new(3, SgdConfig::new());
        let before = lr.objective(&x, &y);
        for _ in 0..300 {
            lr.sgd_step(&x, &y, 0.2);
        }
        assert!(lr.objective(&x, &y) < before);
    }

    #[test]
    fn handles_soft_targets() {
        // Targets strictly inside (0,1): the unit should track the mean when
        // inputs carry no information.
        let x = Mat::zeros(50, 2);
        let t = vec![0.3; 50];
        let mut lr = LogisticRegression::new(2, SgdConfig::new().with_lambda(0.0));
        for _ in 0..2000 {
            lr.sgd_step(&x, &t, 0.5);
        }
        assert!((lr.activate(&[0.0, 0.0]) - 0.3).abs() < 0.01);
    }

    #[test]
    fn weights_round_trip() {
        let mut lr = LogisticRegression::new(2, SgdConfig::new());
        lr.set_weights(&[0.5, -1.0, 0.25]);
        assert_eq!(Submodel::weights(&lr), vec![0.5, -1.0, 0.25]);
        assert_eq!(lr.bias(), 0.25);
    }

    #[test]
    fn objective_is_finite_even_with_extreme_weights() {
        let mut lr = LogisticRegression::new(1, SgdConfig::new());
        lr.set_weights(&[1e4, 0.0]);
        let x = Mat::from_rows(&[vec![1.0], vec![-1.0]]);
        let obj = lr.objective(&x, &[0.0, 1.0]);
        assert!(obj.is_finite());
    }
}
