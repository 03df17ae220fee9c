//! The binary autoencoder model and its objectives.
//!
//! A binary autoencoder (BA) is an encoder `h(x) = step(Ax)` producing an
//! `L`-bit code and a linear decoder `f(z)` mapping the code back to `R^D`
//! (§3.1). Its objectives are
//!
//! * the nested reconstruction error `E_BA(h, f) = Σ‖x_n − f(h(x_n))‖²`
//!   (eq. 1), and
//! * the quadratic-penalty objective
//!   `E_Q(h, f, Z; µ) = Σ‖x_n − f(z_n)‖² + µ‖z_n − h(x_n)‖²` (eq. 3)
//!   that MAC actually minimises for each µ.

use parmac_hash::{BinaryCodes, HashFunction, LinearDecoder, LinearHash};
use parmac_linalg::Mat;
use serde::{Deserialize, Serialize};

/// A binary autoencoder: linear (or kernelised, via pre-expanded inputs) hash
/// encoder plus linear decoder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BinaryAutoencoder {
    encoder: LinearHash,
    decoder: LinearDecoder,
}

impl BinaryAutoencoder {
    /// Combines an encoder and decoder into an autoencoder.
    ///
    /// # Panics
    ///
    /// Panics if the encoder's bit count differs from the decoder's.
    pub fn new(encoder: LinearHash, decoder: LinearDecoder) -> Self {
        assert_eq!(
            encoder.n_bits(),
            decoder.n_bits(),
            "encoder and decoder must agree on the number of bits"
        );
        BinaryAutoencoder { encoder, decoder }
    }

    /// Number of code bits `L`.
    pub fn n_bits(&self) -> usize {
        self.encoder.n_bits()
    }

    /// Input dimensionality `D` expected by the encoder.
    pub fn input_dim(&self) -> usize {
        self.encoder.input_dim()
    }

    /// The encoder (hash function) `h`.
    pub fn encoder(&self) -> &LinearHash {
        &self.encoder
    }

    /// The decoder `f`.
    pub fn decoder(&self) -> &LinearDecoder {
        &self.decoder
    }

    /// Replaces the encoder (after a W step).
    ///
    /// # Panics
    ///
    /// Panics if the bit counts no longer match.
    pub fn set_encoder(&mut self, encoder: LinearHash) {
        assert_eq!(encoder.n_bits(), self.decoder.n_bits());
        self.encoder = encoder;
    }

    /// Replaces the decoder (after a W step).
    ///
    /// # Panics
    ///
    /// Panics if the bit counts no longer match.
    pub fn set_decoder(&mut self, decoder: LinearDecoder) {
        assert_eq!(decoder.n_bits(), self.encoder.n_bits());
        self.decoder = decoder;
    }

    /// Encodes the rows of `x` into binary codes.
    pub fn encode(&self, x: &Mat) -> BinaryCodes {
        self.encoder.encode(x)
    }

    /// Reconstructs inputs from codes.
    pub fn decode(&self, codes: &BinaryCodes) -> Mat {
        self.decoder.decode(codes)
    }

    /// The nested objective `E_BA` of eq. (1): `Σ‖x_n − f(h(x_n))‖²`.
    pub fn ba_error(&self, x: &Mat) -> f64 {
        self.ba_error_given(x, &self.encode(x))
    }

    /// [`ba_error`](Self::ba_error) for a caller that already holds
    /// `hx = h(X)`, so one encoding of `X` can serve several objectives.
    pub fn ba_error_given(&self, x: &Mat, hx: &BinaryCodes) -> f64 {
        self.decoder.reconstruction_error(hx, x)
    }

    /// Mean (per point, per dimension) reconstruction error, handy for
    /// comparing datasets of different sizes.
    pub fn ba_error_per_point(&self, x: &Mat) -> f64 {
        if x.rows() == 0 {
            return 0.0;
        }
        self.ba_error(x) / x.rows() as f64
    }

    /// The quadratic-penalty objective `E_Q` of eq. (3) for given auxiliary
    /// coordinates `z` and penalty parameter `mu`:
    /// `Σ‖x_n − f(z_n)‖² + µ·‖z_n − h(x_n)‖²`.
    ///
    /// Because both `z_n` and `h(x_n)` are binary, `‖z_n − h(x_n)‖²` is the
    /// Hamming distance between the auxiliary code and the encoder's output.
    ///
    /// # Panics
    ///
    /// Panics if `z.len() != x.rows()` or the code widths differ from `L`.
    pub fn quadratic_penalty(&self, x: &Mat, z: &BinaryCodes, mu: f64) -> f64 {
        self.quadratic_penalty_given(x, z, &self.encode(x), mu)
    }

    /// [`quadratic_penalty`](Self::quadratic_penalty) for a caller that
    /// already holds `hx = h(X)`.
    ///
    /// # Panics
    ///
    /// Panics if `z.len() != x.rows()` or the code widths differ from `L`.
    pub fn quadratic_penalty_given(
        &self,
        x: &Mat,
        z: &BinaryCodes,
        hx: &BinaryCodes,
        mu: f64,
    ) -> f64 {
        assert_eq!(z.len(), x.rows(), "one code per data point required");
        assert_eq!(z.n_bits(), self.n_bits(), "code width mismatch");
        let reconstruction = self.decoder.reconstruction_error(z, x);
        let constraint = z.total_differing_bits(hx) as f64;
        reconstruction + mu * constraint
    }

    /// Convenience accessor returning both terms of `E_Q` separately:
    /// `(Σ‖x_n − f(z_n)‖², Σ‖z_n − h(x_n)‖²)`.
    pub fn penalty_terms(&self, x: &Mat, z: &BinaryCodes) -> (f64, f64) {
        let reconstruction = self.decoder.reconstruction_error(z, x);
        let hx = self.encode(x);
        (reconstruction, z.total_differing_bits(&hx) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parmac_linalg::Mat;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn toy_autoencoder(seed: u64) -> (BinaryAutoencoder, Mat) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let x = Mat::random_normal(40, 6, &mut rng);
        let encoder = LinearHash::random(4, 6, &mut rng);
        // Decoder fitted to reconstruct from the encoder's own codes.
        let codes = encoder.encode(&x);
        let decoder = LinearDecoder::fit_least_squares(&codes.to_matrix(), &x, 1e-6);
        (BinaryAutoencoder::new(encoder, decoder), x)
    }

    #[test]
    fn ba_error_is_nonnegative_and_decreases_with_fitted_decoder() {
        let (ba, x) = toy_autoencoder(0);
        let err = ba.ba_error(&x);
        assert!(err >= 0.0);
        // An unfitted (zero) decoder is worse than the least-squares decoder.
        let zero = BinaryAutoencoder::new(ba.encoder().clone(), LinearDecoder::zeros(6, 4));
        assert!(zero.ba_error(&x) >= err);
    }

    #[test]
    fn penalty_reduces_to_ba_error_when_z_equals_hx() {
        let (ba, x) = toy_autoencoder(1);
        let z = ba.encode(&x);
        let eq = ba.quadratic_penalty(&x, &z, 123.0);
        assert!((eq - ba.ba_error(&x)).abs() < 1e-9);
    }

    #[test]
    fn penalty_grows_linearly_with_mu_for_fixed_violation() {
        let (ba, x) = toy_autoencoder(2);
        let mut z = ba.encode(&x);
        // Flip one bit to create exactly one constraint violation.
        let current = z.bit(0, 0);
        z.set_bit(0, 0, !current);
        let e1 = ba.quadratic_penalty(&x, &z, 1.0);
        let e5 = ba.quadratic_penalty(&x, &z, 5.0);
        let (_, violation) = ba.penalty_terms(&x, &z);
        assert_eq!(violation, 1.0);
        assert!((e5 - e1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn per_point_error_scales() {
        let (ba, x) = toy_autoencoder(3);
        assert!((ba.ba_error_per_point(&x) * x.rows() as f64 - ba.ba_error(&x)).abs() < 1e-9);
        assert_eq!(ba.ba_error_per_point(&Mat::zeros(0, 6)), 0.0);
    }

    #[test]
    #[should_panic(expected = "agree on the number of bits")]
    fn mismatched_encoder_decoder_rejected() {
        let mut rng = SmallRng::seed_from_u64(4);
        let encoder = LinearHash::random(4, 6, &mut rng);
        let decoder = LinearDecoder::zeros(6, 5);
        let _ = BinaryAutoencoder::new(encoder, decoder);
    }

    #[test]
    fn accessors_round_trip() {
        let (ba, _) = toy_autoencoder(5);
        assert_eq!(ba.n_bits(), 4);
        assert_eq!(ba.input_dim(), 6);
        let mut copy = ba.clone();
        copy.set_encoder(ba.encoder().clone());
        copy.set_decoder(ba.decoder().clone());
        assert_eq!(copy, ba);
    }
}
