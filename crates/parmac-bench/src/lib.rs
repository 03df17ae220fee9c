//! Shared helpers for the experiment binaries that regenerate the paper's
//! tables and figures.
//!
//! Each binary in `src/bin/` reproduces one table or figure of the paper's
//! evaluation (the file name says which; the README's "Module ↔ paper map"
//! is the index). They all print tab-separated series to stdout so the
//! output can be diffed or plotted. This library holds what they share: a
//! table printer, experiment-sizing helpers that scale the paper's dataset
//! sizes down to laptop scale, and dataset/evaluation builders for the
//! benchmark suites (CIFAR/GIST-like, SIFT-like).

#![warn(missing_docs)]

use parmac_core::mac::RetrievalEval;
use parmac_core::{BaConfig, MuSchedule, ParMacConfig};
use parmac_data::synthetic::{gaussian_mixture, MixtureConfig};
use parmac_data::{Dataset, SplitSpec};
use parmac_linalg::Mat;

/// The measuring host's parallelism, architecture and active popcount
/// kernel, as a JSON object fragment — recorded by every bench binary so a
/// BENCH entry is self-describing (single-core container numbers read very
/// differently from multicore ones, and scalar-popcount numbers from AVX2).
pub fn host_info_json() -> String {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "{{\"cores\": {cores}, \"arch\": \"{}\", \"popcount\": \"{}\"}}",
        std::env::consts::ARCH,
        parmac_hash::popcount::simd_backend()
    )
}

/// Prints a header line followed by rows, all tab-separated, to stdout.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("# {title}");
    println!("{}", header.join("\t"));
    for row in rows {
        println!("{}", row.join("\t"));
    }
    println!();
}

/// Formats a floating-point cell with a fixed number of decimals.
pub fn cell(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

/// Scale factor applied to the paper's dataset sizes so the experiments run in
/// seconds on one machine. The paper's N (e.g. 50 000 for CIFAR, 10⁶ for
/// SIFT-1M, 10⁸ for SIFT-1B) is divided by this factor, with a floor to keep
/// the statistics meaningful.
pub fn scaled_n(paper_n: usize, scale: usize, floor: usize) -> usize {
    (paper_n / scale.max(1)).max(floor)
}

/// One of the paper's benchmark suites, scaled to laptop size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// CIFAR with GIST features: D = 320, N = 50 000 in the paper.
    Cifar,
    /// SIFT-10K: D = 128, N = 10 000.
    Sift10k,
    /// SIFT-1M: D = 128, N = 10⁶.
    Sift1m,
    /// SIFT-1B learn set: D = 128, N = 10⁸.
    Sift1b,
}

impl Suite {
    /// The paper's training-set size for this suite.
    pub fn paper_n(self) -> usize {
        match self {
            Suite::Cifar => 50_000,
            Suite::Sift10k => 10_000,
            Suite::Sift1m => 1_000_000,
            Suite::Sift1b => 100_000_000,
        }
    }

    /// Feature dimensionality used by the paper.
    pub fn dim(self) -> usize {
        match self {
            Suite::Cifar => 320,
            _ => 128,
        }
    }

    /// Code length `L` used by the paper for this suite.
    pub fn paper_bits(self) -> usize {
        match self {
            Suite::Sift1b => 64,
            _ => 16,
        }
    }

    /// The µ schedule the paper uses for this suite (§8.1).
    pub fn mu_schedule(self) -> MuSchedule {
        match self {
            Suite::Cifar => MuSchedule::cifar(),
            Suite::Sift1b => MuSchedule::sift1b(),
            _ => MuSchedule::sift(),
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Suite::Cifar => "CIFAR (GIST-like)",
            Suite::Sift10k => "SIFT-10K-like",
            Suite::Sift1m => "SIFT-1M-like",
            Suite::Sift1b => "SIFT-1B-like",
        }
    }

    /// Generates a scaled synthetic stand-in for this suite: `n_points` points
    /// of the suite's dimensionality, split 80/10/10.
    pub fn generate(self, n_points: usize, seed: u64) -> Dataset {
        let clusters = match self {
            Suite::Cifar => 10,
            _ => 32,
        };
        gaussian_mixture(
            &MixtureConfig::new(n_points, self.dim(), clusters)
                .with_intrinsic_dim((self.dim() / 8).clamp(4, 32))
                .with_seed(seed)
                .with_split(SplitSpec::new(0.8, 0.1, 0.1)),
        )
    }
}

/// A ready-to-run experiment: training features plus a retrieval evaluation
/// set with precomputed ground truth.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Training features (one row per point).
    pub train: Mat,
    /// Retrieval evaluation (database = training set, queries = held-out
    /// split, Euclidean ground truth).
    pub eval: RetrievalEval,
}

/// Builds a scaled experiment for a suite: generates the synthetic data and
/// precomputes the retrieval ground truth with the paper's `(K, k)` protocol
/// scaled to the dataset size.
pub fn build_experiment(suite: Suite, n_points: usize, seed: u64) -> Experiment {
    let data = suite.generate(n_points, seed);
    let train = data.train_features();
    let queries = data.query_features();
    let true_k = (train.rows() / 50).clamp(5, 100);
    let retrieve_k = (train.rows() / 50).clamp(5, 100);
    let eval = RetrievalEval::new(train.clone(), queries, true_k, retrieve_k);
    Experiment { train, eval }
}

/// A reasonable scaled-down BA configuration for a suite: the paper's µ
/// schedule shape but fewer bits/iterations so the run completes in seconds.
pub fn scaled_ba_config(suite: Suite, bits: usize, iterations: usize, seed: u64) -> BaConfig {
    let sched = suite.mu_schedule();
    let mu0 = sched.value(0).max(1e-4);
    BaConfig::new(bits)
        .with_mu_schedule(mu0.max(0.005), 1.8, iterations)
        .with_seed(seed)
        .with_epochs(1)
}

/// Wraps a BA configuration for a `P`-machine ParMAC run with the defaults the
/// experiments use.
pub fn scaled_parmac_config(ba: BaConfig, machines: usize) -> ParMacConfig {
    ParMacConfig::new(ba, machines).with_minibatch_size(32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_info_reports_cores_arch_and_kernel() {
        let json = host_info_json();
        assert!(json.contains("\"cores\": "), "{json}");
        assert!(json.contains(std::env::consts::ARCH), "{json}");
        assert!(
            json.contains("\"popcount\": \"avx2\"") || json.contains("\"popcount\": \"scalar\""),
            "{json}"
        );
    }

    #[test]
    fn cell_formats_decimals() {
        assert_eq!(cell(1.23456, 2), "1.23");
        assert_eq!(cell(2.0, 0), "2");
    }

    #[test]
    fn scaled_n_applies_floor_and_scale() {
        assert_eq!(scaled_n(100_000, 100, 500), 1000);
        assert_eq!(scaled_n(100_000, 1000, 500), 500);
        assert_eq!(scaled_n(100_000, 0, 10), 100_000);
    }

    #[test]
    fn suites_report_paper_parameters() {
        assert_eq!(Suite::Cifar.dim(), 320);
        assert_eq!(Suite::Sift1m.paper_n(), 1_000_000);
        assert_eq!(Suite::Sift1b.paper_bits(), 64);
        assert_eq!(Suite::Sift10k.mu_schedule().len(), 20);
    }

    #[test]
    fn build_experiment_produces_consistent_shapes() {
        let exp = build_experiment(Suite::Sift10k, 300, 1);
        assert_eq!(exp.train.cols(), 128);
        assert_eq!(exp.eval.database.rows(), exp.train.rows());
        assert_eq!(exp.eval.ground_truth.len(), exp.eval.queries.rows());
    }

    #[test]
    fn scaled_configs_are_valid() {
        let ba = scaled_ba_config(Suite::Cifar, 8, 5, 0);
        assert_eq!(ba.n_bits, 8);
        let pm = scaled_parmac_config(ba, 4);
        assert_eq!(pm.n_machines, 4);
    }

    #[test]
    fn print_table_does_not_panic() {
        print_table("t", &["a", "b"], &[vec!["1".into(), "2".into()]]);
    }
}
