//! The serial MAC algorithm for binary autoencoders (fig. 1 of the paper).
//!
//! MAC alternates, for an increasing sequence of penalty parameters µ:
//!
//! * **W step** — for fixed codes `Z`, fit the `L` single-bit hash functions
//!   (linear SVMs predicting each code bit from `X`) and the `D` linear
//!   decoders (least squares from `Z` to `X`);
//! * **Z step** — for fixed `(h, f)`, solve the per-point binary proximal
//!   operator (see [`crate::zstep`]).
//!
//! Codes are initialised from truncated PCA, the algorithm stops when the
//! codes stop changing and already satisfy `Z = h(X)`, and (optionally) a
//! validation set provides the early-stopping signal of §3.1.

use crate::ba::BinaryAutoencoder;
use crate::config::BaConfig;
use crate::curve::{IterationRecord, LearningCurve};
use crate::zstep::{self, ZStepProblem};
use parmac_hash::{BinaryCodes, HashFunction, LinearDecoder, LinearHash, TpcaHash};
use parmac_linalg::Mat;
use parmac_optim::sgd::{calibrate_eta0, default_eta0_grid};
use parmac_optim::{LinearSvm, RidgeRegression, SgdConfig};
use parmac_retrieval::{hamming_knn, precision as retrieval_precision};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Calibrates the SGD initial step size for the encoder SVMs à la §8.1 ("the
/// SGD step size is tuned automatically in each iteration by examining the
/// first 1 000 datapoints"): each candidate step size is tried for one pass on
/// a prefix of the data and the one with the lowest hinge objective wins.
pub fn calibrate_encoder_sgd(config: SgdConfig, x: &Mat, codes: &BinaryCodes) -> SgdConfig {
    let n = x.rows().min(config.calibration_points.max(1));
    if n == 0 {
        return config;
    }
    let targets: Vec<f64> = (0..n)
        .map(|i| if codes.bit(i, 0) { 1.0 } else { -1.0 })
        .collect();
    let eta = calibrate_eta0(&default_eta0_grid(), |eta| {
        let mut svm = LinearSvm::new(x.cols(), config.with_eta0(eta));
        svm.fit_indexed(x, 0..n, &targets, 1);
        svm.objective_indexed(x, 0..n, &targets)
    });
    config.with_eta0(eta)
}

/// Calibrates the SGD initial step size for the decoder rows (squared loss on
/// the first feature), as above.
pub fn calibrate_decoder_sgd(config: SgdConfig, codes: &BinaryCodes, x: &Mat) -> SgdConfig {
    let n = x.rows().min(config.calibration_points.max(1));
    if n == 0 {
        return config;
    }
    let targets: Vec<f64> = (0..n).map(|i| x[(i, 0)]).collect();
    let eta = calibrate_eta0(&default_eta0_grid(), |eta| {
        let mut r = RidgeRegression::new(codes.n_bits(), config.with_eta0(eta));
        r.fit_indexed(codes, 0..n, &targets, 1);
        r.objective_indexed(codes, 0..n, &targets)
    });
    config.with_eta0(eta)
}

/// A held-out retrieval evaluation set: database, queries and the Euclidean
/// ground truth, used for the precision curves and early stopping.
#[derive(Debug, Clone)]
pub struct RetrievalEval {
    /// Database feature vectors (one per row).
    pub database: Mat,
    /// Query feature vectors (one per row).
    pub queries: Mat,
    /// For each query, the indices of its true (Euclidean) nearest neighbours
    /// in the database.
    pub ground_truth: Vec<Vec<usize>>,
    /// Number of Hamming neighbours to retrieve per query.
    pub retrieve_k: usize,
}

impl RetrievalEval {
    /// Builds an evaluation set, computing the Euclidean ground truth by brute
    /// force.
    ///
    /// # Panics
    ///
    /// Panics if the dimensionalities differ or either `k` is zero.
    pub fn new(database: Mat, queries: Mat, true_k: usize, retrieve_k: usize) -> Self {
        let ground_truth = parmac_retrieval::euclidean_knn(&database, &queries, true_k);
        RetrievalEval {
            database,
            queries,
            ground_truth,
            retrieve_k,
        }
    }

    /// Retrieval precision of a binary autoencoder's hash function on this set.
    pub fn precision_of(&self, model: &BinaryAutoencoder) -> f64 {
        let db_codes = model.encode(&self.database);
        let query_codes = model.encode(&self.queries);
        retrieval_precision(&db_codes, &query_codes, &self.ground_truth, self.retrieve_k)
    }

    /// Precision of an arbitrary hash function (used for baselines).
    pub fn precision_of_hash<H: HashFunction>(&self, hash: &H) -> f64 {
        let db_codes = hash.encode(&self.database);
        let query_codes = hash.encode(&self.queries);
        retrieval_precision(&db_codes, &query_codes, &self.ground_truth, self.retrieve_k)
    }

    /// recall@R curve of a binary autoencoder's hash function on this set,
    /// evaluated at the given cutoffs.
    pub fn recall_curve_of(&self, model: &BinaryAutoencoder, rs: &[usize]) -> Vec<f64> {
        let db_codes = model.encode(&self.database);
        let query_codes = model.encode(&self.queries);
        parmac_retrieval::recall_curve(&db_codes, &query_codes, &self.ground_truth, rs)
    }

    /// Sanity measure used in tests: fraction of queries whose top Hamming
    /// neighbour is also the top Euclidean neighbour.
    pub fn top1_agreement(&self, model: &BinaryAutoencoder) -> f64 {
        let db_codes = model.encode(&self.database);
        let query_codes = model.encode(&self.queries);
        let retrieved = hamming_knn(&db_codes, &query_codes, 1);
        let hits = retrieved
            .iter()
            .zip(&self.ground_truth)
            .filter(|(r, t)| !r.is_empty() && !t.is_empty() && r[0] == t[0])
            .count();
        hits as f64 / retrieved.len().max(1) as f64
    }
}

/// Summary of a MAC (or ParMAC) training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MacReport {
    /// Per-iteration learning curve: the optimisation path *before* the final
    /// decoder refit, matching what the paper's fig. 7/8 plot. Its last record
    /// therefore differs from [`final_ba_error`](Self::final_ba_error), which
    /// describes the returned model.
    pub curve: LearningCurve,
    /// `E_BA` of the initial (tPCA-initialised) model.
    pub initial_ba_error: f64,
    /// `E_BA` of the *returned* model, i.e. after the final decoder refit on
    /// the binarised codes (see [`refit_decoder`]). Use the curve's last
    /// record for the pre-refit path value instead.
    pub final_ba_error: f64,
    /// Number of MAC iterations actually run (µ values consumed).
    pub iterations_run: usize,
    /// Whether the run stopped before exhausting the µ schedule (either the
    /// codes converged or validation precision decreased).
    pub stopped_early: bool,
}

/// The serial MAC/BA trainer.
#[derive(Debug, Clone)]
pub struct MacTrainer {
    config: BaConfig,
    model: BinaryAutoencoder,
    codes: BinaryCodes,
    rng: SmallRng,
}

/// Refits the decoder optimally to `(h(X), X)` by least squares — the final W
/// half-step of the BA-MAC algorithm (§3.1): once training fixes the hash
/// function `h`, the best reconstruction uses the decoder fitted to the
/// *binarised* codes `h(X)` rather than the auxiliary codes `Z`, so the
/// reported `E_BA` is the minimum achievable for the returned hash. The
/// encoder (and therefore retrieval behaviour) is untouched.
pub fn refit_decoder(model: &mut BinaryAutoencoder, x: &Mat, ridge: f64) {
    let hx = model.encode(x);
    model.set_decoder(LinearDecoder::fit_least_squares(&hx.to_matrix(), x, ridge));
}

/// Initialises a binary autoencoder and its auxiliary codes from data:
/// truncated-PCA codes (§8.1), a tPCA encoder, and a least-squares decoder
/// fitted to reconstruct `x` from those codes. Falls back to a random encoder
/// when `L > D` (tPCA undefined).
pub fn initialize_ba(
    config: &BaConfig,
    x: &Mat,
    rng: &mut SmallRng,
) -> (BinaryAutoencoder, BinaryCodes) {
    let encoder = if config.n_bits <= x.cols() && x.rows() > config.n_bits {
        TpcaHash::fit(x, config.n_bits)
            .map(TpcaHash::into_linear_hash)
            .unwrap_or_else(|_| LinearHash::random(config.n_bits, x.cols(), rng))
    } else {
        LinearHash::random(config.n_bits, x.cols(), rng)
    };
    let codes = encoder.encode(x);
    let decoder = LinearDecoder::fit_least_squares(&codes.to_matrix(), x, config.decoder_ridge);
    (BinaryAutoencoder::new(encoder, decoder), codes)
}

impl MacTrainer {
    /// Creates a trainer with tPCA-initialised codes and model for the
    /// training matrix `x` (one row per point).
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty.
    pub fn new(config: BaConfig, x: &Mat) -> Self {
        assert!(
            x.rows() > 0 && x.cols() > 0,
            "training data must be non-empty"
        );
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let (model, codes) = initialize_ba(&config, x, &mut rng);
        MacTrainer {
            config,
            model,
            codes,
            rng,
        }
    }

    /// The current model.
    pub fn model(&self) -> &BinaryAutoencoder {
        &self.model
    }

    /// The current auxiliary codes `Z`.
    pub fn codes(&self) -> &BinaryCodes {
        &self.codes
    }

    /// The configuration in effect.
    pub fn config(&self) -> &BaConfig {
        &self.config
    }

    /// Runs MAC over the full µ schedule on training data `x`, without a
    /// validation set.
    pub fn run(&mut self, x: &Mat) -> MacReport {
        self.run_with_eval(x, None)
    }

    /// Runs MAC with an optional retrieval-evaluation set providing the
    /// precision curve and (if enabled) early stopping.
    pub fn run_with_eval(&mut self, x: &Mat, eval: Option<&RetrievalEval>) -> MacReport {
        assert_eq!(x.rows(), self.codes.len(), "data/code count mismatch");
        // lint: allow(wallclock-determinism) — report-only wall-clock for the learning curve; never feeds training
        let start = Instant::now();
        let mut curve = LearningCurve::new();
        // h(X) is computed once per iteration and shared by E_Q, E_BA and the
        // stopping criterion.
        let hx = self.model.encode(x);
        let initial_ba_error = self.model.ba_error_given(x, &hx);
        let initial_precision = eval.map(|e| e.precision_of(&self.model));
        curve.push(IterationRecord {
            iteration: 0,
            mu: 0.0,
            quadratic_penalty: self.model.quadratic_penalty_given(x, &self.codes, &hx, 0.0),
            ba_error: initial_ba_error,
            precision: initial_precision,
            simulated_time: 0.0,
            wall_clock_secs: 0.0,
        });

        let mut best_precision = initial_precision.unwrap_or(f64::NEG_INFINITY);
        let mut best_model = self.model.clone();
        let mut best_codes = self.codes.clone();
        let mut iterations_run = 0;
        let mut stopped_early = false;

        let schedule: Vec<f64> = self.config.mu_schedule.iter().collect();
        for (i, &mu) in schedule.iter().enumerate() {
            self.w_step(x);
            let changed = self.z_step(x, mu);
            iterations_run = i + 1;

            let hx = self.model.encode(x);
            let precision = eval.map(|e| e.precision_of(&self.model));
            curve.push(IterationRecord {
                iteration: iterations_run,
                mu,
                quadratic_penalty: self.model.quadratic_penalty_given(x, &self.codes, &hx, mu),
                ba_error: self.model.ba_error_given(x, &hx),
                precision,
                simulated_time: 0.0,
                wall_clock_secs: start.elapsed().as_secs_f64(),
            });

            if let Some(p) = precision {
                if p >= best_precision {
                    best_precision = p;
                    best_model = self.model.clone();
                    best_codes = self.codes.clone();
                } else if self.config.early_stopping {
                    stopped_early = true;
                    self.model = best_model.clone();
                    self.codes = best_codes.clone();
                    break;
                }
            }

            // Stopping criterion of §3.1: Z did not change and Z = h(X).
            if !changed && self.codes.total_differing_bits(&hx) == 0 {
                stopped_early = iterations_run < schedule.len();
                break;
            }
        }

        // Keep the best-precision model when an evaluation set is available
        // (the "guarantees that we improve (or leave unchanged) the initial Z"
        // property of §3.1's early stopping).
        if eval.is_some() && best_precision > f64::NEG_INFINITY {
            let current = eval
                .map(|e| e.precision_of(&self.model))
                .unwrap_or(best_precision);
            if best_precision > current {
                self.model = best_model;
                self.codes = best_codes;
            }
        }

        // Final W half-step on the binarised codes (§3.1 of the BA paper); see
        // [`refit_decoder`].
        refit_decoder(&mut self.model, x, self.config.decoder_ridge);

        MacReport {
            final_ba_error: self.model.ba_error(x),
            initial_ba_error,
            curve,
            iterations_run,
            stopped_early,
        }
    }

    /// One W step: fit the `L` hash SVMs on `(X, Z)` and the decoder on
    /// `(Z, X)` (exactly or by SGD, per the configuration).
    pub fn w_step(&mut self, x: &Mat) {
        // Encoder: L binary SVMs predicting each bit from X, with the step
        // size calibrated on a prefix of the data (§8.1).
        let encoder_sgd = calibrate_encoder_sgd(self.config.sgd, x, &self.codes);
        let mut svms = self.model.encoder().to_svms(encoder_sgd);
        for (bit, svm) in svms.iter_mut().enumerate() {
            let targets: Vec<f64> = (0..x.rows())
                .map(|n| if self.codes.bit(n, bit) { 1.0 } else { -1.0 })
                .collect();
            let epochs = if self.config.exact_w_step {
                (self.config.epochs * 10).max(20)
            } else {
                self.config.epochs
            };
            svm.fit_batch(x, &targets, epochs);
        }
        self.model.set_encoder(LinearHash::from_svms(&svms));

        // Decoder: D least-squares problems from Z to X.
        if self.config.exact_w_step {
            self.model.set_decoder(LinearDecoder::fit_least_squares(
                &self.codes.to_matrix(),
                x,
                self.config.decoder_ridge,
            ));
        } else {
            let decoder_sgd = calibrate_decoder_sgd(self.config.sgd, &self.codes, x);
            let mut rows = self.model.decoder().to_ridge_rows(decoder_sgd);
            for (out, row) in rows.iter_mut().enumerate() {
                let targets: Vec<f64> = x.col(out);
                row.fit_indexed(&self.codes, 0..x.rows(), &targets, self.config.epochs);
            }
            self.model
                .set_decoder(LinearDecoder::from_ridge_rows(&rows));
        }
        // Deterministic but stateful RNG use keeps shuffling-based variants
        // reproducible; the serial trainer itself needs no randomness here.
        let _ = &mut self.rng;
    }

    /// One Z step: solve the binary proximal operator for every point through
    /// the shared shard solver ([`zstep::solve_shard`], treating the whole
    /// dataset as one shard) — one reusable workspace and one batched
    /// multi-RHS relaxed init, bitwise identical to the distributed sweeps.
    /// Returns whether any code changed.
    pub fn z_step(&mut self, x: &Mat, mu: f64) -> bool {
        let method = self.config.resolved_z_method();
        let problem = ZStepProblem::new(self.model.decoder(), mu);
        let points: Vec<usize> = (0..x.rows()).collect();
        let hx = zstep::encoder_outputs(x, &points, self.model.decoder().n_bits(), |row| {
            self.model.encoder().encode_one(row)
        });
        let codes = &mut self.codes;
        let mut changed = false;
        zstep::solve_shard(
            method,
            &problem,
            x,
            &points,
            &hx,
            self.config.z_alternations,
            |n, z_new| {
                if !codes.row_equals(n, z_new) {
                    changed = true;
                    codes.set_code(n, z_new);
                }
            },
        );
        changed
    }

    /// Consumes the trainer and returns the final model.
    pub fn into_model(self) -> BinaryAutoencoder {
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parmac_data::synthetic::{gaussian_mixture, MixtureConfig};

    fn small_dataset(seed: u64) -> Mat {
        gaussian_mixture(&MixtureConfig::new(200, 12, 4).with_seed(seed)).features
    }

    fn quick_config(bits: usize) -> BaConfig {
        BaConfig::new(bits)
            .with_mu_schedule(0.02, 2.0, 6)
            .with_exact_w_step(true)
            .with_seed(3)
    }

    #[test]
    fn initialisation_matches_tpca_codes() {
        let x = small_dataset(0);
        let trainer = MacTrainer::new(quick_config(6), &x);
        // Codes must equal the encoder's output at initialisation.
        let hx = trainer.model().encode(&x);
        assert_eq!(trainer.codes().total_differing_bits(&hx), 0);
    }

    #[test]
    fn mac_does_not_increase_ba_error() {
        let x = small_dataset(1);
        let mut trainer = MacTrainer::new(quick_config(6), &x);
        let report = trainer.run(&x);
        assert!(
            report.final_ba_error <= report.initial_ba_error * 1.001,
            "E_BA went from {} to {}",
            report.initial_ba_error,
            report.final_ba_error
        );
        assert!(report.iterations_run >= 1);
        assert_eq!(report.curve.len(), report.iterations_run + 1);
    }

    #[test]
    fn sgd_w_step_also_trains() {
        let x = small_dataset(2);
        let cfg = BaConfig::new(6)
            .with_mu_schedule(0.02, 2.0, 5)
            .with_epochs(3)
            .with_seed(5);
        let mut trainer = MacTrainer::new(cfg, &x);
        let report = trainer.run(&x);
        assert!(report.final_ba_error <= report.initial_ba_error * 1.05);
    }

    #[test]
    fn precision_curve_is_recorded_with_eval_set() {
        let data = gaussian_mixture(&MixtureConfig::new(300, 12, 4).with_seed(4));
        let x = data.train_features();
        let eval = RetrievalEval::new(x.clone(), data.query_features(), 10, 5);
        let mut trainer = MacTrainer::new(quick_config(6), &x);
        let report = trainer.run_with_eval(&x, Some(&eval));
        assert!(report.curve.records().iter().all(|r| r.precision.is_some()));
        let best = report.curve.best_precision().unwrap();
        assert!(best > 0.0);
        // The returned model is at least as good as the initialisation.
        let init_precision = report.curve.records()[0].precision.unwrap();
        let final_precision = eval.precision_of(trainer.model());
        assert!(final_precision >= init_precision - 1e-9);
    }

    #[test]
    fn early_stopping_halts_before_schedule_exhausted_or_keeps_best() {
        let data = gaussian_mixture(&MixtureConfig::new(250, 10, 3).with_seed(6));
        let x = data.train_features();
        let eval = RetrievalEval::new(x.clone(), data.query_features(), 10, 5);
        let cfg = quick_config(5).with_early_stopping(true);
        let mut trainer = MacTrainer::new(cfg, &x);
        let report = trainer.run_with_eval(&x, Some(&eval));
        // Either it ran the whole schedule without a precision drop, or it
        // stopped early; both are fine, but the report must be consistent.
        assert!(report.iterations_run <= cfg.mu_schedule.len());
        if report.stopped_early {
            assert!(report.iterations_run <= cfg.mu_schedule.len());
        }
    }

    #[test]
    fn stopping_criterion_triggers_for_huge_mu() {
        // With an aggressive schedule µ quickly forces Z = h(X) and the run
        // stops before exhausting a long schedule.
        let x = small_dataset(7);
        let cfg = BaConfig::new(5)
            .with_mu_schedule(10.0, 10.0, 30)
            .with_exact_w_step(true)
            .with_seed(8);
        let mut trainer = MacTrainer::new(cfg, &x);
        let report = trainer.run(&x);
        assert!(
            report.iterations_run < 30,
            "ran {} iterations",
            report.iterations_run
        );
    }

    #[test]
    fn trained_ba_beats_tpca_on_retrieval_precision() {
        let data = gaussian_mixture(
            &MixtureConfig::new(400, 16, 6)
                .with_seed(9)
                .with_noise(1.0, 0.3),
        );
        let x = data.train_features();
        let eval = RetrievalEval::new(x.clone(), data.query_features(), 10, 10);
        let tpca = parmac_hash::TpcaHash::fit(&x, 8).unwrap();
        let tpca_precision = eval.precision_of_hash(&tpca);
        let cfg = BaConfig::new(8)
            .with_mu_schedule(0.01, 2.0, 8)
            .with_exact_w_step(true)
            .with_seed(10);
        let mut trainer = MacTrainer::new(cfg, &x);
        trainer.run_with_eval(&x, Some(&eval));
        let ba_precision = eval.precision_of(trainer.model());
        assert!(
            ba_precision >= tpca_precision - 0.02,
            "BA precision {ba_precision} much worse than tPCA {tpca_precision}"
        );
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_data_rejected() {
        let _ = MacTrainer::new(quick_config(4), &Mat::zeros(0, 4));
    }
}
