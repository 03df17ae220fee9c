//! Stochastic optimisers and single-layer submodels.
//!
//! MAC decomposes a nested model into many independent single-layer submodels
//! (§3): for the binary autoencoder, `L` single-bit linear SVM hash functions
//! and `D` linear least-squares decoders; for deep nets, one logistic
//! regression per hidden unit. ParMAC trains these submodels with SGD as they
//! circulate around the machine ring (§4.1). This crate provides:
//!
//! * [`SgdConfig`] / [`StepSizeSchedule`] — SGD hyper-parameters with the
//!   Bottou-style automatic step-size calibration used by the paper's
//!   reference code (`sgd` project of Bottou & Bousquet).
//! * [`LinearSvm`] — hinge-loss + L2 binary classifier (the single-bit hash
//!   function), trainable by SGD or by full subgradient batch descent.
//! * [`RidgeRegression`] — a linear decoder row, trainable by SGD or exactly.
//! * [`LogisticRegression`] — the per-unit submodel of the K-layer MAC.
//! * [`RbfFeatureMap`] — the Gaussian RBF expansion used for the nonlinear
//!   hash function of §8.4 (fixed random centres, trainable output weights).
//! * [`RowSource`] and the `fit_indexed` methods — the one minibatch-SGD
//!   driver, which reads the rows a submodel visits in place.
//! * [`Submodel`] — the trait ParMAC's W step uses to update and serialise
//!   submodels generically.

#![warn(missing_docs)]

pub mod kernel;
pub mod logistic;
pub mod minibatch;
pub mod ridge;
pub mod sgd;
pub mod submodel;
pub mod svm;

pub use kernel::RbfFeatureMap;
pub use logistic::LogisticRegression;
pub use minibatch::RowSource;
pub use ridge::RidgeRegression;
pub use sgd::{SgdConfig, StepSizeSchedule};
pub use submodel::Submodel;
pub use svm::LinearSvm;
