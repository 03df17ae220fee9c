//! Inputs from `--seed`: the mixture, the held-out query selection, the
//! uniform corpus. The library sees only what is generated here.

use crate::spec::{Workload, QUERIES_PER_CALL, QUERY_BATCHES};
use parmac_core::mac::RetrievalEval;
use parmac_data::synthetic::{gaussian_mixture, MixtureConfig};
use parmac_hash::BinaryCodes;
use parmac_linalg::Mat;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{RngCore, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Everything a workload trains and evaluates on.
pub struct Inputs {
    /// Training features, N × D.
    pub x: Mat,
    /// Held-out features the serving queries are encoded from
    /// (`QUERY_BATCHES × QUERIES_PER_CALL` rows).
    pub query_features: Mat,
    /// The same held-out points as a retrieval evaluation set, with
    /// Euclidean ground truth over the training points.
    pub eval: RetrievalEval,
    /// Wall time of all of the above (`data.datagen_s`; never in `setup_s`).
    pub datagen_secs: f64,
}

/// Seed of the mixture every run of a workload samples from.
const DISTRIBUTION_SEED: u64 = 2019;
/// Mixture components, and their width against `MixtureConfig`'s centre
/// scale of 10. With few tight clusters E_BA is decided by which cluster
/// pairs the hash happens to merge and swings 3× from sample to sample;
/// many overlapping ones make it a sum of small terms that repeats.
const CLUSTERS: usize = 64;
const CLUSTER_SCALE: f64 = 3.0;
const NOISE_SCALE: f64 = 0.3;
/// The mixture pool holds this many times the points one run takes.
const POOL_FACTOR: usize = 4;

/// A workload's distribution is fixed — `parmac-data`'s Gaussian mixture of
/// the workload's shape — and `--seed` draws the sample from it: which pool
/// points train, which are held out as queries. Every seed is then the same
/// problem on different data, so quality and work per point compare across
/// seeds.
pub fn inputs(w: &Workload, seed: u64) -> Inputs {
    let start = Instant::now();
    let n_queries = QUERY_BATCHES * QUERIES_PER_CALL;
    let pool_size = POOL_FACTOR * (w.n + n_queries);
    let pool = gaussian_mixture(
        &MixtureConfig::new(pool_size, w.d, CLUSTERS)
            .with_noise(CLUSTER_SCALE, NOISE_SCALE)
            .with_seed(DISTRIBUTION_SEED),
    );
    let mut rows: Vec<usize> = (0..pool_size).collect();
    rows.shuffle(&mut SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15));
    let (query_rows, rest) = rows.split_at(n_queries);
    let x = pool.features.select_rows(&rest[..w.n]);
    let query_features = pool.features.select_rows(query_rows);
    let true_k = (w.n / 50).clamp(5, 100);
    let eval = RetrievalEval::new(x.clone(), query_features.clone(), true_k, true_k);
    Inputs {
        x,
        query_features,
        eval,
        datagen_secs: start.elapsed().as_secs_f64(),
    }
}

/// `n` uniform random codes of `bits` bits.
pub fn uniform_codes(n: usize, bits: usize, seed: u64) -> BinaryCodes {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x51ed_270b_1f3a_99c5);
    let mut codes = BinaryCodes::zeros(n, bits);
    for i in 0..n {
        let mut word = 0u64;
        for b in 0..bits {
            if b % 64 == 0 {
                word = rng.next_u64();
            }
            codes.set_bit(i, b, (word >> (b % 64)) & 1 == 1);
        }
    }
    codes
}

/// Splits `codes` (one row per query) into the call-sized batches the load
/// generators send.
pub fn query_batches(codes: &BinaryCodes) -> Vec<Arc<BinaryCodes>> {
    (0..codes.len() / QUERIES_PER_CALL)
        .map(|b| {
            let mut batch = BinaryCodes::zeros(0, codes.n_bits());
            for q in 0..QUERIES_PER_CALL {
                batch.push_code_from(codes, b * QUERIES_PER_CALL + q);
            }
            Arc::new(batch)
        })
        .collect()
}
