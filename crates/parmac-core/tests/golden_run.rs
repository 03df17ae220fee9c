//! Golden runs: small fixed `ParMacTrainer` runs on `SimBackend` whose final
//! weights, codes and learning curve hash to constants recorded by running
//! this same test body at the commit *before* the W-step visits were made
//! zero-copy (PR 11, `a93a8d2`). The backend matrix proves the five backends
//! agree with each other; this pins that they still agree with the parent's
//! arithmetic — a re-associated `dot`, a hoisted `1/n` or a reordered
//! minibatch changes low-order bits and fails here.
//!
//! The two runs cover shuffled one-pass visits with a ragged last minibatch
//! (80-point shards, minibatches of 32) and the two-round scheme's unshuffled
//! multi-pass visits. To re-record after an *intended* numerical change,
//! print `digest(..)` and say so in the PR.

use parmac_cluster::{CostModel, SimBackend};
use parmac_core::{BaConfig, ParMacConfig, ParMacReport, ParMacTrainer};
use parmac_data::synthetic::{gaussian_mixture, MixtureConfig};
use parmac_optim::SgdConfig;

/// FNV-1a over the little-endian bytes of each word.
fn fnv1a(hash: &mut u64, words: impl IntoIterator<Item = u64>) {
    for word in words {
        for byte in word.to_le_bytes() {
            *hash ^= u64::from(byte);
            *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest(trainer: &ParMacTrainer, report: &ParMacReport) -> u64 {
    let model = trainer.model();
    let mut hash = 0xcbf2_9ce4_8422_2325;
    let floats = model
        .encoder()
        .weights()
        .as_slice()
        .iter()
        .chain(model.encoder().biases())
        .chain(model.decoder().weights().as_slice())
        .chain(model.decoder().biases());
    fnv1a(&mut hash, floats.map(|v| v.to_bits()));
    fnv1a(&mut hash, trainer.codes().as_words().iter().copied());
    for record in report.mac.curve.records() {
        fnv1a(
            &mut hash,
            [
                record.quadratic_penalty.to_bits(),
                record.ba_error.to_bits(),
            ],
        );
    }
    hash
}

fn run(cfg: ParMacConfig) -> u64 {
    let x = gaussian_mixture(&MixtureConfig::new(240, 12, 4).with_seed(21)).features;
    let mut trainer = ParMacTrainer::new(cfg, &x, SimBackend::new(CostModel::distributed()));
    let report = trainer.run(&x);
    assert!(report.mac.iterations_run >= 2, "the run must train");
    digest(&trainer, &report)
}

fn ba() -> BaConfig {
    BaConfig::new(6)
        .with_mu_schedule(0.02, 2.0, 4)
        .with_epochs(2)
        .with_seed(9)
        .with_sgd(SgdConfig::new().with_eta0(0.1))
}

#[test]
fn shuffled_ring_run_matches_the_digest_recorded_at_the_parent_commit() {
    assert_eq!(run(ParMacConfig::new(ba(), 3)), 16209344046822648648);
}

#[test]
fn two_round_unshuffled_run_matches_the_digest_recorded_at_the_parent_commit() {
    let cfg = ParMacConfig::new(ba(), 3)
        .with_within_machine_shuffling(false)
        .with_two_round_communication(true)
        .with_minibatch_size(7);
    assert_eq!(run(cfg), 2327218036682219643);
}
