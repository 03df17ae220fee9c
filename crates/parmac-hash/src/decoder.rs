//! The linear decoder `f(z) = Wz + c` of the binary autoencoder.

use crate::binary_code::BinaryCodes;
use parmac_linalg::cholesky::solve_ridge;
use parmac_linalg::vector::dot;
use parmac_linalg::Mat;
use parmac_optim::{RidgeRegression, SgdConfig, Submodel};
use serde::{Deserialize, Serialize};

/// A linear decoder mapping `L`-bit codes (as 0/1 vectors) back to `R^D`.
///
/// Each of the `D` output dimensions is an independent linear least-squares
/// problem in the MAC W step (§3.1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearDecoder {
    /// `D × L` weight matrix.
    weights: Mat,
    /// Per-output biases, length `D`.
    biases: Vec<f64>,
}

impl LinearDecoder {
    /// Creates a decoder with explicit weights (`D × L`) and biases (length `D`).
    ///
    /// # Panics
    ///
    /// Panics if `biases.len() != weights.rows()`.
    pub fn new(weights: Mat, biases: Vec<f64>) -> Self {
        assert_eq!(weights.rows(), biases.len(), "bias count must equal D");
        LinearDecoder { weights, biases }
    }

    /// Creates an all-zero decoder mapping `n_bits`-bit codes to `R^dim_out`.
    pub fn zeros(dim_out: usize, n_bits: usize) -> Self {
        LinearDecoder {
            weights: Mat::zeros(dim_out, n_bits),
            biases: vec![0.0; dim_out],
        }
    }

    /// Fits the decoder exactly by ridge least squares from codes `z` (as a
    /// 0/1 `N × L` matrix) to targets `x` (`N × D`): the exact W step over `f`.
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ.
    pub fn fit_least_squares(z: &Mat, x: &Mat, lambda: f64) -> Self {
        assert_eq!(z.rows(), x.rows(), "code/target row mismatch");
        let za = z.with_bias_column();
        let w_aug = solve_ridge(&za, x, lambda.max(1e-10))
            .expect("regularised decoder normal equations are SPD");
        // w_aug is (L+1) × D; split into weights (D × L) and biases.
        let l = z.cols();
        let d = x.cols();
        let mut weights = Mat::zeros(d, l);
        let mut biases = vec![0.0; d];
        for out in 0..d {
            for bit in 0..l {
                weights[(out, bit)] = w_aug[(bit, out)];
            }
            biases[out] = w_aug[(l, out)];
        }
        LinearDecoder { weights, biases }
    }

    /// Builds a decoder from `D` trained ridge-regression rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or inconsistent in dimensionality.
    pub fn from_ridge_rows(rows: &[RidgeRegression]) -> Self {
        assert!(!rows.is_empty(), "need at least one output row");
        let l = rows[0].dim();
        let mut weights = Mat::zeros(rows.len(), l);
        let mut biases = Vec::with_capacity(rows.len());
        for (d, r) in rows.iter().enumerate() {
            assert_eq!(r.dim(), l, "row {d} has inconsistent dimensionality");
            weights.set_row(d, r.weight_vector());
            biases.push(r.bias());
        }
        LinearDecoder { weights, biases }
    }

    /// Splits the decoder into `D` ridge-regression rows (to seed a W step).
    pub fn to_ridge_rows(&self, config: SgdConfig) -> Vec<RidgeRegression> {
        (0..self.dim_out())
            .map(|d| {
                let mut r = RidgeRegression::new(self.n_bits(), config);
                let mut w = self.weights.row(d).to_vec();
                w.push(self.biases[d]);
                r.set_weights(&w);
                r
            })
            .collect()
    }

    /// Output dimensionality `D`.
    pub fn dim_out(&self) -> usize {
        self.weights.rows()
    }

    /// Code length `L` the decoder expects.
    pub fn n_bits(&self) -> usize {
        self.weights.cols()
    }

    /// The `D × L` weight matrix.
    pub fn weights(&self) -> &Mat {
        &self.weights
    }

    /// The per-output biases.
    pub fn biases(&self) -> &[f64] {
        &self.biases
    }

    /// The `D` outputs `w_dᵀz + c_d` for one 0/1 code vector.
    fn outputs<'a>(&'a self, z: &'a [f64]) -> impl Iterator<Item = f64> + 'a {
        assert_eq!(z.len(), self.n_bits(), "code length mismatch");
        (0..self.dim_out()).map(move |d| dot(self.weights.row(d), z) + self.biases[d])
    }

    /// Decodes a single 0/1 code vector.
    ///
    /// # Panics
    ///
    /// Panics if `z.len() != n_bits()`.
    pub fn decode_one(&self, z: &[f64]) -> Vec<f64> {
        self.outputs(z).collect()
    }

    /// Decodes every code in `codes` into an `N × D` matrix.
    pub fn decode(&self, codes: &BinaryCodes) -> Mat {
        let mut out = Mat::zeros(codes.len(), self.dim_out());
        let mut z = vec![0.0; codes.n_bits()];
        for i in 0..codes.len() {
            codes.write_f64_row(i, &mut z);
            for (o, v) in out.row_mut(i).iter_mut().zip(self.outputs(&z)) {
                *o = v;
            }
        }
        out
    }

    /// Squared reconstruction error `Σ‖x_n − f(z_n)‖²` over a dataset — the
    /// binary autoencoder objective E_BA of eq. (1) for fixed codes.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent.
    pub fn reconstruction_error(&self, codes: &BinaryCodes, x: &Mat) -> f64 {
        assert_eq!(codes.len(), x.rows(), "code/data count mismatch");
        let mut err = 0.0;
        let mut z = vec![0.0; codes.n_bits()];
        for i in 0..codes.len() {
            codes.write_f64_row(i, &mut z);
            err += self
                .outputs(&z)
                .zip(x.row(i))
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>();
        }
        err
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn decode_one_matches_manual_computation() {
        let dec = LinearDecoder::new(
            Mat::from_rows(&[vec![1.0, -1.0], vec![0.5, 2.0]]),
            vec![0.0, 1.0],
        );
        let out = dec.decode_one(&[1.0, 0.0]);
        assert_eq!(out, vec![1.0, 1.5]);
    }

    #[test]
    fn least_squares_fit_reconstructs_linear_data() {
        let mut rng = SmallRng::seed_from_u64(0);
        // Ground-truth decoder
        let w = Mat::random_normal(6, 4, &mut rng);
        let b: Vec<f64> = (0..6).map(|i| i as f64 * 0.1).collect();
        let truth = LinearDecoder::new(w, b);
        // Random binary codes and their exact decodings as targets.
        let mut z = Mat::zeros(100, 4);
        for i in 0..100 {
            for j in 0..4 {
                z[(i, j)] = if rng.gen_bool(0.5) { 1.0 } else { 0.0 };
            }
        }
        let codes = BinaryCodes::from_matrix(&z);
        let x = truth.decode(&codes);
        let fitted = LinearDecoder::fit_least_squares(&z, &x, 1e-8);
        assert!(fitted.reconstruction_error(&codes, &x) < 1e-6);
    }

    #[test]
    fn ridge_row_round_trip() {
        let mut rng = SmallRng::seed_from_u64(1);
        let dec = LinearDecoder::new(Mat::random_normal(3, 5, &mut rng), vec![0.1, 0.2, 0.3]);
        let rows = dec.to_ridge_rows(SgdConfig::new());
        let back = LinearDecoder::from_ridge_rows(&rows);
        assert_eq!(dec, back);
    }

    #[test]
    fn reconstruction_error_is_zero_for_perfect_model() {
        let dec = LinearDecoder::new(Mat::from_rows(&[vec![2.0]]), vec![0.0]);
        let z = Mat::from_rows(&[vec![1.0], vec![0.0]]);
        let codes = BinaryCodes::from_matrix(&z);
        let x = Mat::from_rows(&[vec![2.0], vec![0.0]]);
        assert_eq!(dec.reconstruction_error(&codes, &x), 0.0);
    }

    #[test]
    fn zeros_decoder_has_zero_output() {
        let dec = LinearDecoder::zeros(4, 8);
        assert_eq!(dec.decode_one(&[1.0; 8]), vec![0.0; 4]);
        assert_eq!(dec.dim_out(), 4);
        assert_eq!(dec.n_bits(), 8);
    }

    #[test]
    #[should_panic(expected = "code length mismatch")]
    fn decode_one_rejects_wrong_length() {
        let dec = LinearDecoder::zeros(2, 3);
        let _ = dec.decode_one(&[1.0, 0.0]);
    }
}
