//! The general K-layer MAC of §3.2: training a deep (sigmoid) net by
//! alternating per-unit logistic regressions (W step) with per-point
//! coordinate updates (Z step).
//!
//! The model is `f(x) = W_out·σ(W_K·σ(… σ(W_1 x + b_1) …) + b_K) + b_out` and
//! the quadratic-penalty objective of eq. (6) is
//!
//! ```text
//! E_Q(W, Z; µ) = ½ Σ_n ‖y_n − f_out(z_{K,n})‖² + µ/2 Σ_n Σ_k ‖z_{k,n} − σ(W_k z_{k−1,n} + b_k)‖²
//! ```
//!
//! The W step trains every hidden unit as an independent (soft-target)
//! logistic regression and the output layer as a ridge regression; the Z step
//! runs a few steps of gradient descent on each point's coordinates. This
//! module demonstrates that MAC — and therefore ParMAC, whose W-step
//! parallelism is over exactly these per-unit submodels — is not specific to
//! binary autoencoders.

use parmac_linalg::cholesky::solve_ridge;
use parmac_linalg::Mat;
use parmac_optim::logistic::sigmoid;
use parmac_optim::{LogisticRegression, SgdConfig, Submodel};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Configuration of a K-layer MAC run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NestedMacConfig {
    /// Layer widths, input first and output last, e.g. `[4, 8, 8, 2]` for two
    /// hidden layers of 8 sigmoid units.
    pub layer_sizes: Vec<usize>,
    /// Initial penalty parameter µ₀.
    pub mu0: f64,
    /// Multiplicative µ growth factor.
    pub mu_factor: f64,
    /// Number of MAC iterations (µ values).
    pub iterations: usize,
    /// SGD configuration for the per-unit logistic regressions.
    pub sgd: SgdConfig,
    /// Epochs of SGD per W step for the hidden units.
    pub w_epochs: usize,
    /// Gradient-descent steps per point in the Z step.
    pub z_steps: usize,
    /// Gradient-descent step size in the Z step.
    pub z_step_size: f64,
    /// RNG seed for the initial weights.
    pub seed: u64,
}

impl NestedMacConfig {
    /// A default configuration for the given layer sizes.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two layer sizes (input and output) are given or
    /// any size is zero.
    pub fn new(layer_sizes: Vec<usize>) -> Self {
        assert!(
            layer_sizes.len() >= 2,
            "need at least input and output sizes"
        );
        assert!(
            layer_sizes.iter().all(|&s| s > 0),
            "layer sizes must be positive"
        );
        NestedMacConfig {
            layer_sizes,
            mu0: 0.1,
            mu_factor: 2.0,
            iterations: 8,
            sgd: SgdConfig::new().with_eta0(0.5).with_lambda(1e-5),
            w_epochs: 10,
            z_steps: 10,
            z_step_size: 0.3,
            seed: 0,
        }
    }

    /// Number of hidden layers `K`.
    pub fn n_hidden_layers(&self) -> usize {
        self.layer_sizes.len() - 2
    }

    /// Total number of independent W-step submodels (hidden units plus output
    /// units) — the `M` of the ParMAC speedup analysis for this model.
    pub fn n_submodels(&self) -> usize {
        self.layer_sizes[1..].iter().sum()
    }
}

/// A sigmoid multilayer perceptron with a linear output layer, stored as
/// per-layer weight matrices (`out × in`) and bias vectors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SigmoidMlp {
    weights: Vec<Mat>,
    biases: Vec<Vec<f64>>,
}

impl SigmoidMlp {
    /// Random small-weight initialisation for the given layer sizes.
    pub fn random(layer_sizes: &[usize], rng: &mut SmallRng) -> Self {
        let mut weights = Vec::new();
        let mut biases = Vec::new();
        for w in layer_sizes.windows(2) {
            let scale = 1.0 / (w[0] as f64).sqrt();
            weights.push(Mat::random_normal(w[1], w[0], rng).scale(scale));
            biases.push(vec![0.0; w[1]]);
        }
        SigmoidMlp { weights, biases }
    }

    /// Number of weight layers (hidden layers + output layer).
    pub fn n_layers(&self) -> usize {
        self.weights.len()
    }

    /// Forward pass for one input; hidden layers use the sigmoid, the output
    /// layer is linear. Returns the activations of every layer (hidden layers
    /// first, output last).
    pub fn forward_all(&self, x: &[f64]) -> Vec<Vec<f64>> {
        let mut activations = Vec::with_capacity(self.n_layers());
        let mut input = x.to_vec();
        for (k, (w, b)) in self.weights.iter().zip(&self.biases).enumerate() {
            let pre: Vec<f64> = (0..w.rows())
                .map(|u| {
                    w.row(u)
                        .iter()
                        .zip(&input)
                        .map(|(wi, xi)| wi * xi)
                        .sum::<f64>()
                        + b[u]
                })
                .collect();
            let out: Vec<f64> = if k + 1 == self.n_layers() {
                pre
            } else {
                pre.iter().map(|&t| sigmoid(t)).collect()
            };
            activations.push(out.clone());
            input = out;
        }
        activations
    }

    /// Forward pass returning only the output.
    pub fn predict(&self, x: &[f64]) -> Vec<f64> {
        self.forward_all(x).pop().expect("at least one layer")
    }

    /// Nested squared error `½ Σ_n ‖y_n − f(x_n)‖²` (eq. 4).
    pub fn nested_error(&self, x: &Mat, y: &Mat) -> f64 {
        assert_eq!(x.rows(), y.rows(), "input/target count mismatch");
        let mut err = 0.0;
        for n in 0..x.rows() {
            let out = self.predict(x.row(n));
            err += out
                .iter()
                .zip(y.row(n))
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>();
        }
        0.5 * err
    }

    /// The weights of layer `k` (0-based, output layer last).
    pub fn layer_weights(&self, k: usize) -> &Mat {
        &self.weights[k]
    }
}

/// Report of a K-layer MAC run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NestedMacReport {
    /// Nested error of the random initial network.
    pub initial_error: f64,
    /// Nested error after training.
    pub final_error: f64,
    /// Nested error after every MAC iteration.
    pub error_per_iteration: Vec<f64>,
}

/// The K-layer MAC trainer.
#[derive(Debug, Clone)]
pub struct NestedMac {
    config: NestedMacConfig,
    model: SigmoidMlp,
    /// `z[k]` is the `N × layer_sizes[k+1]` matrix of auxiliary coordinates
    /// for hidden layer `k`.
    z: Vec<Mat>,
}

impl NestedMac {
    /// Creates a trainer with random weights and auxiliary coordinates
    /// initialised by a forward pass (the usual MAC initialisation).
    ///
    /// # Panics
    ///
    /// Panics if the data dimensions do not match the configured layer sizes.
    pub fn new(config: NestedMacConfig, x: &Mat, y: &Mat) -> Self {
        assert_eq!(x.cols(), config.layer_sizes[0], "input width mismatch");
        assert_eq!(
            y.cols(),
            *config.layer_sizes.last().unwrap(),
            "output width mismatch"
        );
        assert_eq!(x.rows(), y.rows(), "input/target count mismatch");
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let model = SigmoidMlp::random(&config.layer_sizes, &mut rng);
        let n_hidden = config.n_hidden_layers();
        let mut z: Vec<Mat> = (0..n_hidden)
            .map(|k| Mat::zeros(x.rows(), config.layer_sizes[k + 1]))
            .collect();
        for n in 0..x.rows() {
            let acts = model.forward_all(x.row(n));
            for (k, zk) in z.iter_mut().enumerate() {
                zk.set_row(n, &acts[k]);
            }
        }
        NestedMac { config, model, z }
    }

    /// The current network.
    pub fn model(&self) -> &SigmoidMlp {
        &self.model
    }

    /// The quadratic-penalty objective `E_Q(W, Z; µ)` of eq. (6).
    pub fn quadratic_penalty(&self, x: &Mat, y: &Mat, mu: f64) -> f64 {
        let k_hidden = self.config.n_hidden_layers();
        let mut total = 0.0;
        for n in 0..x.rows() {
            // Output term.
            let z_last: Vec<f64> = if k_hidden == 0 {
                x.row(n).to_vec()
            } else {
                self.z[k_hidden - 1].row(n).to_vec()
            };
            let out = self.layer_forward(k_hidden, &z_last, true);
            total += 0.5
                * out
                    .iter()
                    .zip(y.row(n))
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>();
            // Constraint terms.
            for k in 0..k_hidden {
                let input: Vec<f64> = if k == 0 {
                    x.row(n).to_vec()
                } else {
                    self.z[k - 1].row(n).to_vec()
                };
                let pred = self.layer_forward(k, &input, false);
                total += 0.5
                    * mu
                    * pred
                        .iter()
                        .zip(self.z[k].row(n))
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum::<f64>();
            }
        }
        total
    }

    /// Runs the full MAC schedule and returns the error trace.
    pub fn run(&mut self, x: &Mat, y: &Mat) -> NestedMacReport {
        let initial_error = self.model.nested_error(x, y);
        let mut error_per_iteration = Vec::with_capacity(self.config.iterations);
        let mut mu = self.config.mu0;
        for _ in 0..self.config.iterations {
            self.w_step(x, y);
            self.z_step(x, y, mu);
            error_per_iteration.push(self.model.nested_error(x, y));
            mu *= self.config.mu_factor;
        }
        NestedMacReport {
            initial_error,
            final_error: self.model.nested_error(x, y),
            error_per_iteration,
        }
    }

    /// One W step: every hidden unit is trained as an independent logistic
    /// regression from the layer-below coordinates to its own coordinate, and
    /// the output layer is fitted by ridge regression.
    pub fn w_step(&mut self, x: &Mat, y: &Mat) {
        let k_hidden = self.config.n_hidden_layers();
        for k in 0..k_hidden {
            let input = if k == 0 { x } else { &self.z[k - 1] };
            let width = self.config.layer_sizes[k + 1];
            for unit in 0..width {
                let targets: Vec<f64> = self.z[k].col(unit);
                let mut lr = LogisticRegression::new(input.cols(), self.config.sgd);
                let mut w = self.model.weights[k].row(unit).to_vec();
                w.push(self.model.biases[k][unit]);
                lr.set_weights(&w);
                lr.fit_batch(input, &targets, self.config.w_epochs);
                let trained = Submodel::weights(&lr);
                self.model.weights[k].set_row(unit, &trained[..input.cols()]);
                self.model.biases[k][unit] = trained[input.cols()];
            }
        }
        // Output layer: ridge regression from the last hidden coordinates.
        let input = if k_hidden == 0 {
            x
        } else {
            &self.z[k_hidden - 1]
        };
        let augmented = input.with_bias_column();
        let w = solve_ridge(&augmented, y, 1e-6).expect("output ridge fit");
        let out_width = *self.config.layer_sizes.last().unwrap();
        for unit in 0..out_width {
            for j in 0..input.cols() {
                self.model.weights[k_hidden][(unit, j)] = w[(j, unit)];
            }
            self.model.biases[k_hidden][unit] = w[(input.cols(), unit)];
        }
    }

    /// One Z step: projected gradient descent with backtracking on each
    /// point's auxiliary coordinates, which guarantees the per-point penalty
    /// never increases.
    pub fn z_step(&mut self, x: &Mat, y: &Mat, mu: f64) {
        let k_hidden = self.config.n_hidden_layers();
        if k_hidden == 0 {
            return;
        }
        for n in 0..x.rows() {
            let mut zs: Vec<Vec<f64>> = (0..k_hidden).map(|k| self.z[k].row(n).to_vec()).collect();
            let mut current = self.point_penalty(x.row(n), y.row(n), &zs, mu);
            for _ in 0..self.config.z_steps {
                let grads = self.z_gradient(x.row(n), y.row(n), &zs, mu);
                // Backtracking line search: halve the step until the penalty
                // decreases (or give up and keep the current coordinates).
                let mut step = self.config.z_step_size;
                let mut accepted = false;
                for _ in 0..8 {
                    let candidate: Vec<Vec<f64>> = zs
                        .iter()
                        .zip(&grads)
                        .map(|(zk, gk)| {
                            zk.iter()
                                .zip(gk)
                                .map(|(z, g)| (z - step * g).clamp(0.0, 1.0))
                                .collect()
                        })
                        .collect();
                    let value = self.point_penalty(x.row(n), y.row(n), &candidate, mu);
                    if value < current {
                        zs = candidate;
                        current = value;
                        accepted = true;
                        break;
                    }
                    step *= 0.5;
                }
                if !accepted {
                    break;
                }
            }
            for (k, zk) in zs.into_iter().enumerate() {
                self.z[k].set_row(n, &zk);
            }
        }
    }

    /// The per-point quadratic-penalty value for candidate coordinates.
    fn point_penalty(&self, x: &[f64], y: &[f64], zs: &[Vec<f64>], mu: f64) -> f64 {
        let k_hidden = zs.len();
        let mut total = 0.0;
        for k in 0..k_hidden {
            let input: &[f64] = if k == 0 { x } else { &zs[k - 1] };
            let pred = self.layer_forward(k, input, false);
            total += 0.5
                * mu
                * pred
                    .iter()
                    .zip(&zs[k])
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>();
        }
        let out = self.layer_forward(k_hidden, &zs[k_hidden - 1], true);
        total += 0.5
            * out
                .iter()
                .zip(y)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>();
        total
    }

    /// Gradient of the per-point penalty objective with respect to each z_k.
    fn z_gradient(&self, x: &[f64], y: &[f64], zs: &[Vec<f64>], mu: f64) -> Vec<Vec<f64>> {
        let k_hidden = zs.len();
        let mut grads: Vec<Vec<f64>> = zs.iter().map(|z| vec![0.0; z.len()]).collect();

        // Residuals of each constraint: r_k = z_k − σ(W_k z_{k−1} + b_k).
        let mut residuals: Vec<Vec<f64>> = Vec::with_capacity(k_hidden);
        for k in 0..k_hidden {
            let input = if k == 0 { x } else { &zs[k - 1] };
            let pred = self.layer_forward(k, input, false);
            residuals.push(zs[k].iter().zip(&pred).map(|(z, p)| z - p).collect());
        }
        // Output residual: r_out = f_out(z_K) − y.
        let out = self.layer_forward(k_hidden, &zs[k_hidden - 1], true);
        let r_out: Vec<f64> = out.iter().zip(y).map(|(o, t)| o - t).collect();

        for k in 0..k_hidden {
            // Term from its own constraint.
            for (g, r) in grads[k].iter_mut().zip(&residuals[k]) {
                *g += mu * r;
            }
            // Term from the layer above (or the output layer for k = K−1).
            if k + 1 < k_hidden {
                let w_up = &self.model.weights[k + 1];
                let input = &zs[k];
                let pre: Vec<f64> = (0..w_up.rows())
                    .map(|u| {
                        w_up.row(u)
                            .iter()
                            .zip(input)
                            .map(|(wi, xi)| wi * xi)
                            .sum::<f64>()
                            + self.model.biases[k + 1][u]
                    })
                    .collect();
                for (u, r_up) in residuals[k + 1].iter().enumerate() {
                    let s = sigmoid(pre[u]);
                    let factor = -mu * r_up * s * (1.0 - s);
                    for (j, g) in grads[k].iter_mut().enumerate() {
                        *g += factor * w_up[(u, j)];
                    }
                }
            } else {
                let w_out = &self.model.weights[k_hidden];
                for (u, r) in r_out.iter().enumerate() {
                    for (j, g) in grads[k].iter_mut().enumerate() {
                        *g += r * w_out[(u, j)];
                    }
                }
            }
        }
        grads
    }

    /// Forward pass through a single layer of the current model.
    fn layer_forward(&self, k: usize, input: &[f64], linear: bool) -> Vec<f64> {
        let w = &self.model.weights[k];
        let b = &self.model.biases[k];
        (0..w.rows())
            .map(|u| {
                let pre: f64 = w
                    .row(u)
                    .iter()
                    .zip(input)
                    .map(|(wi, xi)| wi * xi)
                    .sum::<f64>()
                    + b[u];
                if linear {
                    pre
                } else {
                    sigmoid(pre)
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// A nonlinear regression problem: y depends on thresholded combinations
    /// of the inputs, which a linear model cannot capture exactly.
    fn toy_problem(n: usize, seed: u64) -> (Mat, Mat) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let x = Mat::random_normal(n, 3, &mut rng);
        let mut y = Mat::zeros(n, 1);
        for i in 0..n {
            let r = x.row(i);
            y[(i, 0)] =
                (r[0] + 0.5 * r[1]).tanh() - 0.7 * (r[2]).tanh() + 0.1 * rng.gen_range(-1.0..1.0);
        }
        (x, y)
    }

    fn quick_config() -> NestedMacConfig {
        let mut cfg = NestedMacConfig::new(vec![3, 6, 1]);
        cfg.iterations = 6;
        cfg.w_epochs = 20;
        cfg.seed = 1;
        cfg
    }

    #[test]
    fn config_counts_layers_and_submodels() {
        let cfg = NestedMacConfig::new(vec![4, 8, 8, 2]);
        assert_eq!(cfg.n_hidden_layers(), 2);
        assert_eq!(cfg.n_submodels(), 18);
    }

    #[test]
    fn forward_pass_shapes_and_range() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mlp = SigmoidMlp::random(&[3, 5, 2], &mut rng);
        let acts = mlp.forward_all(&[0.1, -0.2, 0.3]);
        assert_eq!(acts.len(), 2);
        assert_eq!(acts[0].len(), 5);
        assert_eq!(acts[1].len(), 2);
        assert!(acts[0].iter().all(|&a| (0.0..=1.0).contains(&a)));
    }

    #[test]
    fn mac_training_reduces_nested_error() {
        let (x, y) = toy_problem(200, 2);
        let mut mac = NestedMac::new(quick_config(), &x, &y);
        let report = mac.run(&x, &y);
        assert!(
            report.final_error < report.initial_error,
            "error went from {} to {}",
            report.initial_error,
            report.final_error
        );
        assert_eq!(report.error_per_iteration.len(), 6);
    }

    #[test]
    fn w_step_reduces_quadratic_penalty_for_fixed_z() {
        let (x, y) = toy_problem(150, 3);
        let mut mac = NestedMac::new(quick_config(), &x, &y);
        let mu = 1.0;
        let before = mac.quadratic_penalty(&x, &y, mu);
        mac.w_step(&x, &y);
        let after = mac.quadratic_penalty(&x, &y, mu);
        assert!(
            after <= before + 1e-6,
            "penalty went from {before} to {after}"
        );
    }

    #[test]
    fn z_step_reduces_quadratic_penalty_for_fixed_w() {
        let (x, y) = toy_problem(120, 4);
        let mut mac = NestedMac::new(quick_config(), &x, &y);
        // Perturb Z so there is room for improvement.
        mac.w_step(&x, &y);
        let mu = 0.5;
        let before = mac.quadratic_penalty(&x, &y, mu);
        mac.z_step(&x, &y, mu);
        let after = mac.quadratic_penalty(&x, &y, mu);
        assert!(
            after <= before + 1e-6,
            "penalty went from {before} to {after}"
        );
    }

    #[test]
    fn nested_mac_beats_linear_output_only_model() {
        // Train the full MAC net and compare with fitting only a linear map
        // x → y (which is what the output-layer ridge alone would do).
        let (x, y) = toy_problem(300, 5);
        let mut mac = NestedMac::new(quick_config(), &x, &y);
        let report = mac.run(&x, &y);

        let augmented = x.with_bias_column();
        let w = solve_ridge(&augmented, &y, 1e-6).unwrap();
        let mut linear_err = 0.0;
        for n in 0..x.rows() {
            let mut pred = w[(x.cols(), 0)];
            for j in 0..x.cols() {
                pred += w[(j, 0)] * x[(n, j)];
            }
            let d: f64 = pred - y[(n, 0)];
            linear_err += 0.5 * d * d;
        }
        assert!(
            report.final_error < linear_err * 1.05,
            "MAC net {} not competitive with linear {}",
            report.final_error,
            linear_err
        );
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn rejects_mismatched_input_width() {
        let (x, y) = toy_problem(10, 6);
        let cfg = NestedMacConfig::new(vec![5, 4, 1]);
        let _ = NestedMac::new(cfg, &x, &y);
    }
}
