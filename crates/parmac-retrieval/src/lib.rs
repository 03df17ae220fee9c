//! Retrieval evaluation: ground truth, Hamming search and the paper's metrics.
//!
//! The paper measures binary-hashing quality with (§8.1):
//!
//! * **precision**: using the `K` Euclidean nearest neighbours in the original
//!   space as ground truth, retrieve the `k` Hamming nearest neighbours in
//!   code space and report the fraction that are true neighbours;
//! * **recall@R** (SIFT-1B): the fraction of queries whose (single) true
//!   nearest neighbour appears within the top `R` retrieved points, for a
//!   range of `R`.
//!
//! This crate computes the exact Euclidean ground truth by brute force,
//! performs Hamming k-NN searches over [`BinaryCodes`](parmac_hash::BinaryCodes),
//! and evaluates both metrics.

#![warn(missing_docs)]

pub mod ground_truth;
pub mod index;
pub mod metrics;
pub mod search;

pub use ground_truth::euclidean_knn;
pub use index::PrefixIndex;
pub use metrics::{precision, recall_at_r, recall_curve};
pub use search::{
    hamming_knn, merge_shard_topk, merge_shard_topk_hits, shard_hamming_topk_batched,
    shard_hamming_topk_chunk,
};
