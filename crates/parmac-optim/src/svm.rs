//! Linear support vector machine (hinge loss + L2), the single-bit hash
//! function submodel of the binary autoencoder (§3.1: "for each of the L
//! single-bit hash functions ... each solvable by fitting a linear SVM").

use crate::minibatch::{self, LinearSgd, LinearState, RowSource};
use crate::sgd::SgdConfig;
use crate::submodel::Submodel;
use parmac_linalg::vector::dot;
use parmac_linalg::Mat;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A binary linear SVM `sign(wᵀx + b)` trained on ±1 labels.
///
/// The regularised objective is the standard
/// `λ/2 ‖w‖² + (1/n) Σ max(0, 1 − y (wᵀx + b))`.
///
/// # Examples
///
/// ```
/// use parmac_linalg::Mat;
/// use parmac_optim::{LinearSvm, SgdConfig};
///
/// // A linearly separable toy problem: sign of the first feature.
/// let x = Mat::from_rows(&[vec![1.0, 0.3], vec![2.0, -0.1], vec![-1.5, 0.2], vec![-0.7, -0.4]]);
/// let y = vec![1.0, 1.0, -1.0, -1.0];
/// let mut svm = LinearSvm::new(2, SgdConfig::new().with_eta0(0.5));
/// svm.fit_batch(&x, &y, 200);
/// assert_eq!(svm.classify(&x), vec![1.0, 1.0, -1.0, -1.0]);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinearSvm {
    weights: Vec<f64>,
    bias: f64,
    lambda: f64,
    updates: u64,
    config: SgdConfig,
}

impl LinearSvm {
    /// Creates a zero-initialised SVM for `dim`-dimensional inputs.
    pub fn new(dim: usize, config: SgdConfig) -> Self {
        LinearSvm {
            weights: vec![0.0; dim],
            bias: 0.0,
            lambda: config.lambda,
            updates: 0,
            config,
        }
    }

    /// Creates an SVM with small random weights, useful to break symmetry.
    pub fn random_init<R: Rng + ?Sized>(dim: usize, config: SgdConfig, rng: &mut R) -> Self {
        let mut svm = LinearSvm::new(dim, config);
        for w in &mut svm.weights {
            *w = rng.gen_range(-0.01..0.01);
        }
        svm
    }

    /// The weight vector `w` (excluding the bias).
    pub fn weight_vector(&self) -> &[f64] {
        &self.weights
    }

    /// The bias term `b`.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// Number of SGD updates performed so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Decision value `wᵀx + b` for a single point.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` does not match the input dimensionality.
    pub fn decision(&self, x: &[f64]) -> f64 {
        dot(&self.weights, x) + self.bias
    }

    /// Classifies the rows of `x` into `+1.0` / `-1.0`.
    pub fn classify(&self, x: &Mat) -> Vec<f64> {
        self.predict(x)
            .into_iter()
            .map(|d| if d >= 0.0 { 1.0 } else { -1.0 })
            .collect()
    }

    /// Runs `epochs` full passes of minibatch SGD over `(x, y)` with the
    /// configured schedule. Labels must be ±1.
    pub fn fit_batch(&mut self, x: &Mat, y: &[f64], epochs: usize) {
        self.fit_indexed(x, 0..x.rows(), y, epochs);
    }

    /// Runs `passes` passes of minibatch SGD over the rows `order` of
    /// `source`, read in place; `y[k]` is the ±1 label of row `order[k]`.
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

    /// The regularised objective on the rows `order` of `source` with labels
    /// `y`, read in place ([`Submodel::objective`] without the gathered copy).
    pub fn objective_indexed<S: RowSource>(
        &self,
        source: &S,
        order: impl ExactSizeIterator<Item = usize>,
        y: &[f64],
    ) -> f64 {
        let n = y.len().max(1) as f64;
        let hinge = minibatch::loss_sum(source, order, y, |row, y| {
            (1.0 - y * self.decision(row)).max(0.0)
        }) / n;
        let reg = 0.5 * self.lambda * dot(&self.weights, &self.weights);
        hinge + reg
    }

    /// Hinge-loss accuracy (fraction of correctly classified points).
    pub fn accuracy(&self, x: &Mat, y: &[f64]) -> f64 {
        if y.is_empty() {
            return 1.0;
        }
        let pred = self.classify(x);
        let correct = pred
            .iter()
            .zip(y)
            .filter(|(p, t)| (**p > 0.0) == (**t > 0.0))
            .count();
        correct as f64 / y.len() as f64
    }
}

impl Submodel for LinearSvm {
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
        (0..x.rows()).map(|i| self.decision(x.row(i))).collect()
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

impl LinearSgd for LinearSvm {
    // Subgradient of λ/2‖w‖² + (1/n)Σ hinge.
    fn accumulate(&self, row: &[f64], y: f64, n: f64, grad_w: &mut [f64], grad_b: &mut f64) {
        let margin = y * self.decision(row);
        if margin < 1.0 {
            for (g, &xi) in grad_w.iter_mut().zip(row) {
                *g -= y * xi / n;
            }
            *grad_b -= y / n;
        }
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

    fn separable_problem(n: usize, seed: u64) -> (Mat, Vec<f64>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut x = Mat::random_normal(n, 4, &mut rng);
        let true_w = [1.0, -2.0, 0.5, 0.0];
        let y: Vec<f64> = (0..n)
            .map(|i| {
                let d = dot(x.row(i), &true_w) + 0.3;
                if d >= 0.0 {
                    1.0
                } else {
                    -1.0
                }
            })
            .collect();
        // Push points away from the boundary a little to make it cleanly separable.
        for i in 0..n {
            let d = dot(x.row(i), &true_w) + 0.3;
            if d.abs() < 0.2 {
                let s = if d >= 0.0 { 0.3 } else { -0.3 };
                x.row_mut(i)[0] += s;
            }
        }
        (x, y)
    }

    #[test]
    fn learns_separable_problem_to_high_accuracy() {
        let (x, y) = separable_problem(300, 0);
        let mut svm = LinearSvm::new(4, SgdConfig::new().with_eta0(0.1).with_lambda(1e-4));
        svm.fit_batch(&x, &y, 50);
        assert!(
            svm.accuracy(&x, &y) > 0.95,
            "accuracy {}",
            svm.accuracy(&x, &y)
        );
    }

    #[test]
    fn sgd_step_reduces_objective_on_average() {
        let (x, y) = separable_problem(100, 1);
        let mut svm = LinearSvm::new(4, SgdConfig::new());
        let before = svm.objective(&x, &y);
        for _ in 0..100 {
            svm.sgd_step(&x, &y, 0.05);
        }
        let after = svm.objective(&x, &y);
        assert!(after < before, "objective went from {before} to {after}");
    }

    #[test]
    fn weights_round_trip_preserves_decisions() {
        let (x, y) = separable_problem(50, 2);
        let mut svm = LinearSvm::new(4, SgdConfig::new().with_eta0(0.1));
        svm.fit_batch(&x, &y, 10);
        let w = Submodel::weights(&svm);
        let mut copy = LinearSvm::new(4, SgdConfig::new());
        copy.set_weights(&w);
        assert_eq!(svm.predict(&x), copy.predict(&x));
        assert_eq!(w.len(), svm.n_parameters());
    }

    #[test]
    fn objective_includes_regulariser() {
        let mut svm = LinearSvm::new(2, SgdConfig::new().with_lambda(1.0));
        svm.set_weights(&[3.0, 4.0, 0.0]);
        let x = Mat::from_rows(&[vec![0.0, 0.0]]);
        // hinge = max(0, 1 - y*0) = 1, reg = 0.5 * 1 * 25 = 12.5
        let obj = svm.objective(&x, &[1.0]);
        assert!((obj - 13.5).abs() < 1e-12);
    }

    #[test]
    fn classify_outputs_plus_minus_one() {
        let svm = LinearSvm::new(2, SgdConfig::new());
        let x = Mat::from_rows(&[vec![1.0, 1.0], vec![-1.0, -1.0]]);
        let c = svm.classify(&x);
        assert!(c.iter().all(|v| *v == 1.0 || *v == -1.0));
    }

    #[test]
    fn accuracy_on_empty_input_is_one() {
        let svm = LinearSvm::new(2, SgdConfig::new());
        assert_eq!(svm.accuracy(&Mat::zeros(0, 2), &[]), 1.0);
    }

    #[test]
    #[should_panic(expected = "dim mismatch")]
    fn sgd_step_rejects_wrong_dimension() {
        let mut svm = LinearSvm::new(3, SgdConfig::new());
        svm.sgd_step(&Mat::zeros(1, 2), &[1.0], 0.1);
    }

    #[test]
    fn random_init_is_small_and_seeded() {
        let mut rng = SmallRng::seed_from_u64(3);
        let svm = LinearSvm::random_init(10, SgdConfig::new(), &mut rng);
        assert!(svm.weight_vector().iter().all(|w| w.abs() < 0.01));
    }
}
