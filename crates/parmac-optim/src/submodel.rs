//! The [`Submodel`] trait: what ParMAC's W step needs from a single-layer model.
//!
//! In MAC, the W step decomposes into `M` independent submodels (hash
//! functions and decoders for a BA, hidden units for a deep net). ParMAC sends
//! these submodels around the machine ring and updates each with SGD on every
//! machine's local shard. The trait below is the minimal contract that makes
//! that possible: stochastic updates on a minibatch, an objective for
//! monitoring/step-size calibration, prediction, and weight (de)serialisation
//! so the parameters — and only the parameters — can be communicated.
//!
//! The trait's methods take a minibatch as a dense matrix, which suits tests,
//! references and generic code. A machine visit in the W step does not build
//! one: the three linear submodels' `fit_indexed` runs the same step over row
//! indices of the resident shard, read in place (see [`crate::minibatch`]).

use parmac_linalg::Mat;

/// A single-layer submodel trainable by SGD inside ParMAC's W step.
///
/// A minibatch is a dense matrix `x` (one row per point, already in the
/// submodel's input space) and one scalar target per row. This covers all the
/// submodels the paper uses: binary targets (±1) for the SVM hash functions,
/// real targets for the decoder rows, and 0/1 targets for logistic units.
/// [`LinearSvm`](crate::LinearSvm), [`RidgeRegression`](crate::RidgeRegression)
/// and [`LogisticRegression`](crate::LogisticRegression) implement
/// [`sgd_step`](Submodel::sgd_step) with the very step their `fit_indexed`
/// takes over rows read in place from a [`RowSource`](crate::RowSource), so
/// the two agree bit for bit; the W step uses the latter and gathers nothing.
pub trait Submodel: Send {
    /// Input dimensionality (including the bias component, if the model
    /// augments its input).
    fn dim(&self) -> usize;

    /// Performs one SGD step on the minibatch `(x, targets)` with step size
    /// `step`: the weights are moved along the negative (sub)gradient of the
    /// regularised average loss over the minibatch.
    ///
    /// # Panics
    ///
    /// Implementations panic if `x.rows() != targets.len()` or if `x.cols()`
    /// does not match the submodel's expected raw input dimensionality.
    fn sgd_step(&mut self, x: &Mat, targets: &[f64], step: f64);

    /// Regularised average objective on `(x, targets)`; used for step-size
    /// calibration and convergence monitoring.
    fn objective(&self, x: &Mat, targets: &[f64]) -> f64;

    /// Raw (pre-threshold / pre-link) predictions for the rows of `x`.
    fn predict(&self, x: &Mat) -> Vec<f64>;

    /// Serialises the parameters to a flat vector (what ParMAC sends over the
    /// ring; no data or coordinates are ever included).
    fn weights(&self) -> Vec<f64>;

    /// Overwrites the parameters from a flat vector produced by
    /// [`weights`](Submodel::weights).
    ///
    /// # Panics
    ///
    /// Implementations panic if the length does not match.
    fn set_weights(&mut self, weights: &[f64]);

    /// Number of parameters (length of [`weights`](Submodel::weights)).
    fn n_parameters(&self) -> usize {
        self.weights().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial 1-parameter mean-estimator submodel used to exercise the
    /// trait's default method and object safety.
    #[derive(Debug, Default)]
    struct MeanModel {
        w: f64,
    }

    impl Submodel for MeanModel {
        fn dim(&self) -> usize {
            1
        }
        fn sgd_step(&mut self, x: &Mat, targets: &[f64], step: f64) {
            assert_eq!(x.rows(), targets.len());
            let grad: f64 = targets.iter().map(|t| self.w - t).sum::<f64>() / targets.len() as f64;
            self.w -= step * grad;
        }
        fn objective(&self, _x: &Mat, targets: &[f64]) -> f64 {
            targets.iter().map(|t| (self.w - t).powi(2)).sum::<f64>() / targets.len() as f64
        }
        fn predict(&self, x: &Mat) -> Vec<f64> {
            vec![self.w; x.rows()]
        }
        fn weights(&self) -> Vec<f64> {
            vec![self.w]
        }
        fn set_weights(&mut self, weights: &[f64]) {
            assert_eq!(weights.len(), 1);
            self.w = weights[0];
        }
    }

    #[test]
    fn trait_is_object_safe_and_default_method_works() {
        let m: Box<dyn Submodel> = Box::new(MeanModel::default());
        assert_eq!(m.n_parameters(), 1);
        assert_eq!(m.dim(), 1);
    }

    #[test]
    fn sgd_moves_towards_target_mean() {
        let mut m = MeanModel::default();
        let x = Mat::zeros(4, 1);
        let targets = [2.0, 2.0, 2.0, 2.0];
        for _ in 0..200 {
            m.sgd_step(&x, &targets, 0.1);
        }
        assert!((m.w - 2.0).abs() < 1e-3);
    }

    #[test]
    fn weights_round_trip() {
        let mut m = MeanModel::default();
        m.set_weights(&[3.5]);
        assert_eq!(m.weights(), vec![3.5]);
    }
}
