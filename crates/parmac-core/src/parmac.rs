//! ParMAC: the distributed MAC trainer (§4).
//!
//! Data and auxiliary coordinates are partitioned over `P` machines and never
//! move; the submodels (the `L` hash SVMs and the `D` decoder rows) circulate
//! around the ring and are trained by SGD on each machine's shard (the W
//! step); the Z step is purely local and embarrassingly parallel over points.
//! The trainer is generic over a [`ClusterBackend`] execution engine:
//!
//! * [`SimBackend`] — the deterministic synchronous simulator with a
//!   [`CostModel`](parmac_cluster::CostModel), which also produces the
//!   simulated runtimes used for the speedup experiments;
//! * [`ThreadedBackend`](parmac_cluster::ThreadedBackend) — real threads and channels: one thread per machine
//!   for the W-step ring and one scoped thread per shard for the Z step;
//! * [`PoolBackend`](parmac_cluster::PoolBackend) — a work-stealing thread
//!   pool (§8.5's shared-memory configuration): the Z step is split into
//!   stealable point chunks, the W step drains each machine's submodel queue
//!   across the local workers;
//! * [`ServerBackend`](parmac_cluster::ServerBackend) — machines as
//!   long-lived actors behind typed mailboxes: W-step envelopes routed by
//!   their own visit lists, the Z step as request/reply exchanges, and a
//!   resident serving fleet answering Hamming k-NN queries *during* training
//!   (obtain a [`QueryRouter`](parmac_cluster::QueryRouter) from the backend
//!   before handing it to the trainer). All four produce bitwise-identical
//!   models.
//!
//! The trainer contains no backend-specific dispatch; further substrates
//! (e.g. MPI ranks) plug in by implementing the trait in `parmac-cluster` —
//! see `ClusterBackend`'s docs. Backends that also *serve* are kept fresh
//! through [`ClusterBackend::publish_codes`]: the trainer publishes the
//! auxiliary codes whenever they are (re)built outside a Z step.
//!
//! Extensions of §4.2–4.3 are supported: within-machine minibatch shuffling,
//! cross-machine (topology) shuffling, the two-round communication scheme,
//! fault injection and streaming (via the underlying cluster crate).

use crate::ba::BinaryAutoencoder;
use crate::config::ParMacConfig;
use crate::curve::{IterationRecord, LearningCurve};
use crate::mac::{initialize_ba, refit_decoder, MacReport, RetrievalEval};
use crate::zstep::{self, ZStepProblem};
use parking_lot::Mutex;
use parmac_cluster::{
    ClusterBackend, Fault, SimBackend, SimCluster, WStepStats, ZStepStats, ZUpdate,
};
use parmac_data::{partition_equal, partition_proportional};
use parmac_hash::{BinaryCodes, HashFunction, LinearDecoder, LinearHash};
use parmac_linalg::Mat;
use parmac_optim::{LinearSvm, RidgeRegression};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Report of a ParMAC run: the MAC-level learning curve plus the distributed
/// execution statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParMacReport {
    /// Learning curve and convergence summary (same shape as the serial
    /// trainer's report, so they can be compared directly).
    pub mac: MacReport,
    /// Per-iteration W-step statistics.
    pub w_steps: Vec<WStepStats>,
    /// Per-iteration Z-step statistics.
    pub z_steps: Vec<ZStepStats>,
    /// Total simulated time (cost-model units) across all iterations.
    pub total_simulated_time: f64,
    /// Total wall-clock seconds.
    pub total_wall_clock_secs: f64,
}

/// A submodel circulating in the W step: one hash bit or one decoder row.
#[derive(Debug, Clone)]
enum BaSubmodel {
    Hash { bit: usize, svm: LinearSvm },
    DecoderRow { out: usize, ridge: RidgeRegression },
}

/// The distributed ParMAC trainer for binary autoencoders, generic over the
/// [`ClusterBackend`] execution engine.
#[derive(Debug, Clone)]
pub struct ParMacTrainer<B: ClusterBackend = SimBackend> {
    config: ParMacConfig,
    backend: B,
    model: BinaryAutoencoder,
    codes: BinaryCodes,
    cluster: SimCluster,
    fault_plan: Option<(usize, Fault)>,
    rng: SmallRng,
}

impl<B: ClusterBackend> ParMacTrainer<B> {
    /// Creates a trainer: initialises the model/codes exactly like the serial
    /// trainer (tPCA), partitions the points equally over the machines and
    /// builds the ring. The cluster charges simulated time to the backend's
    /// cost model.
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty or has fewer points than machines.
    pub fn new(mut config: ParMacConfig, x: &Mat, backend: B) -> Self {
        assert!(
            x.rows() > 0 && x.cols() > 0,
            "training data must be non-empty"
        );
        assert!(
            x.rows() >= config.n_machines,
            "need at least one data point per machine"
        );
        // The within-machine minibatch size is a ParMAC-level setting; push it
        // into the submodels' SGD configuration.
        config.ba.sgd = config.ba.sgd.with_minibatch_size(config.minibatch_size);
        let mut rng = SmallRng::seed_from_u64(config.ba.seed);
        let (model, codes) = initialize_ba(&config.ba, x, &mut rng);
        let shards = partition_equal(x.rows(), config.n_machines).into_shards();
        let cluster = SimCluster::new(shards, backend.cost_model());
        // Serving backends (ServerBackend) mirror the initial codes into
        // their resident fleet; computational backends ignore this.
        backend.publish_codes(&cluster, &codes);
        ParMacTrainer {
            config,
            backend,
            model,
            codes,
            cluster,
            fault_plan: None,
            rng,
        }
    }

    /// Injects a machine fault during the W step of MAC iteration
    /// `at_iteration` (0-based), exercising the recovery path of §4.3. Only
    /// honoured by backends that simulate faults (see
    /// [`ClusterBackend::run_w_step`]).
    pub fn with_fault(mut self, at_iteration: usize, fault: Fault) -> Self {
        self.fault_plan = Some((at_iteration, fault));
        self
    }

    /// Re-balances the data proportionally to per-machine speeds (§4.3:
    /// machine `p` gets `N·α_p / Σα` points) and records the speeds in the
    /// cluster's cost accounting. Call before training starts; the model and
    /// code initialisation are per-point and unaffected by the partition.
    ///
    /// # Panics
    ///
    /// Panics if the number of speeds differs from the number of machines or
    /// any speed is not positive and finite.
    pub fn with_machine_speeds(mut self, speeds: Vec<f64>) -> Self {
        assert_eq!(
            speeds.len(),
            self.config.n_machines,
            "one speed per machine"
        );
        let shards = partition_proportional(self.codes.len(), &speeds).into_shards();
        self.cluster = SimCluster::new(shards, self.backend.cost_model()).with_speeds(speeds);
        self.backend.publish_codes(&self.cluster, &self.codes);
        self
    }

    /// The execution backend in use.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// The current model.
    pub fn model(&self) -> &BinaryAutoencoder {
        &self.model
    }

    /// The current auxiliary codes `Z`.
    pub fn codes(&self) -> &BinaryCodes {
        &self.codes
    }

    /// The cluster (shards, topology, cost model).
    pub fn cluster(&self) -> &SimCluster {
        &self.cluster
    }

    /// The configuration in effect.
    pub fn config(&self) -> &ParMacConfig {
        &self.config
    }

    /// Runs ParMAC over the full µ schedule without an evaluation set.
    pub fn run(&mut self, x: &Mat) -> ParMacReport {
        self.run_with_eval(x, None)
    }

    /// Runs ParMAC, optionally evaluating retrieval precision each iteration
    /// (for the learning curves and early stopping).
    pub fn run_with_eval(&mut self, x: &Mat, eval: Option<&RetrievalEval>) -> ParMacReport {
        assert_eq!(x.rows(), self.codes.len(), "data/code count mismatch");
        // lint: allow(wallclock-determinism) — report-only wall-clock for the learning curve; never feeds training
        let start = Instant::now();
        let mut curve = LearningCurve::new();
        let mut w_steps = Vec::new();
        let mut z_steps = Vec::new();
        let mut simulated_time = 0.0;

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

        let schedule: Vec<f64> = self.config.ba.mu_schedule.iter().collect();
        for (i, &mu) in schedule.iter().enumerate() {
            if self.config.cross_machine_shuffling {
                self.cluster.shuffle_topology(&mut self.rng);
            }
            let w_stats = self.w_step(x, i);
            simulated_time += w_stats.timings.simulated;
            w_steps.push(w_stats);

            let (changed, z_stats) = self.z_step(x, mu);
            simulated_time += z_stats.timings.simulated;
            z_steps.push(z_stats);
            iterations_run = i + 1;

            let hx = self.model.encode(x);
            let precision = eval.map(|e| e.precision_of(&self.model));
            curve.push(IterationRecord {
                iteration: iterations_run,
                mu,
                quadratic_penalty: self.model.quadratic_penalty_given(x, &self.codes, &hx, mu),
                ba_error: self.model.ba_error_given(x, &hx),
                precision,
                simulated_time,
                wall_clock_secs: start.elapsed().as_secs_f64(),
            });

            if let Some(p) = precision {
                if p >= best_precision {
                    best_precision = p;
                    best_model = self.model.clone();
                    best_codes = self.codes.clone();
                } else if self.config.ba.early_stopping {
                    stopped_early = true;
                    self.model = best_model.clone();
                    self.codes = best_codes.clone();
                    break;
                }
            }

            if !changed && self.codes.total_differing_bits(&hx) == 0 {
                stopped_early = iterations_run < schedule.len();
                break;
            }
        }

        if eval.is_some() && best_precision > f64::NEG_INFINITY {
            let current = eval
                .map(|e| e.precision_of(&self.model))
                .unwrap_or(best_precision);
            if best_precision > current {
                self.model = best_model;
                self.codes = best_codes;
            }
        }

        // Final W half-step on the binarised codes (§3.1 of the BA paper): fit
        // the decoder optimally to (h(X), X), so the reported E_BA is the best
        // achievable for the returned hash function. Retrieval precision only
        // depends on the encoder, so this never changes the model selection.
        refit_decoder(&mut self.model, x, self.config.ba.decoder_ridge);

        // Early stopping may have restored the best-model codes above; push
        // the final codes to any serving backend so post-training queries see
        // exactly what the trainer returns.
        self.backend.publish_codes(&self.cluster, &self.codes);

        ParMacReport {
            mac: MacReport {
                final_ba_error: self.model.ba_error(x),
                initial_ba_error,
                curve,
                iterations_run,
                stopped_early,
            },
            w_steps,
            z_steps,
            total_simulated_time: simulated_time,
            total_wall_clock_secs: start.elapsed().as_secs_f64(),
        }
    }

    /// One distributed W step: the submodels circulate around the ring and are
    /// updated by SGD on each machine's shard. Returns the step statistics.
    pub fn w_step(&mut self, x: &Mat, iteration: usize) -> WStepStats {
        let ba_cfg = self.config.ba;
        // Automatic step-size calibration on a data prefix (§8.1), once per W
        // step for each submodel family.
        let encoder_sgd = crate::mac::calibrate_encoder_sgd(ba_cfg.sgd, x, &self.codes);
        let decoder_sgd = crate::mac::calibrate_decoder_sgd(ba_cfg.sgd, &self.codes, x);
        // Build the circulating submodels from the current model.
        let mut submodels: Vec<BaSubmodel> = Vec::with_capacity(ba_cfg.n_bits + x.cols());
        for (bit, svm) in self
            .model
            .encoder()
            .to_svms(encoder_sgd)
            .into_iter()
            .enumerate()
        {
            submodels.push(BaSubmodel::Hash { bit, svm });
        }
        for (out, ridge) in self
            .model
            .decoder()
            .to_ridge_rows(decoder_sgd)
            .into_iter()
            .enumerate()
        {
            submodels.push(BaSubmodel::DecoderRow { out, ridge });
        }

        // §4.2: with two-round communication each machine runs all e passes
        // locally and the ring is traversed only once.
        let (ring_epochs, local_passes) = if self.config.two_round_communication {
            (1, ba_cfg.epochs)
        } else {
            (ba_cfg.epochs, 1)
        };

        let params_per_submodel = x.cols() + 1;
        let codes = &self.codes;
        let plan = VisitPlan {
            passes: local_passes,
            shuffle: self.config.within_machine_shuffling,
            seed: ba_cfg.seed ^ (iteration as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        };
        let update = |sub: &mut BaSubmodel, machine: usize, shard: &[usize]| {
            visit_update(sub, machine, shard, x, codes, plan);
        };

        let fault = match self.fault_plan {
            Some((at_iter, fault)) if at_iter == iteration => Some(fault),
            _ => None,
        };

        let (updated, stats) = self.backend.run_w_step(
            &self.cluster,
            submodels,
            ring_epochs,
            params_per_submodel,
            update,
            fault,
        );
        submodels = updated;

        // Reassemble the model from the circulated submodels.
        let mut svms: Vec<Option<LinearSvm>> = vec![None; ba_cfg.n_bits];
        let mut rows: Vec<Option<RidgeRegression>> = vec![None; x.cols()];
        for sub in submodels {
            match sub {
                BaSubmodel::Hash { bit, svm } => svms[bit] = Some(svm),
                BaSubmodel::DecoderRow { out, ridge } => rows[out] = Some(ridge),
            }
        }
        let svms: Vec<LinearSvm> = svms
            .into_iter()
            .map(|s| s.expect("hash submodel returned"))
            .collect();
        let rows: Vec<RidgeRegression> = rows
            .into_iter()
            .map(|r| r.expect("decoder submodel returned"))
            .collect();
        self.model.set_encoder(LinearHash::from_svms(&svms));
        self.model
            .set_decoder(LinearDecoder::from_ridge_rows(&rows));
        stats
    }

    /// One Z step: every machine updates its local coordinates; no
    /// communication. The solves run through the backend (serially on the
    /// simulator, one thread per shard on the threaded backend, stealable
    /// point chunks on the pool backend) and return the changed codes, which
    /// are applied here in topology order — so the result is bitwise
    /// identical across backends. Returns whether any code changed and the
    /// statistics.
    pub fn z_step(&mut self, x: &Mat, mu: f64) -> (bool, ZStepStats) {
        let method = self.config.ba.resolved_z_method();
        let alternations = self.config.ba.z_alternations;
        let model = &self.model;
        let codes = &self.codes;
        // One factorisation for the entire Z step: the decoder and µ are
        // global, so every shard (and every chunk a backend may split a shard
        // into) shares the same read-only `ZStepProblem`.
        let problem = ZStepProblem::new(model.decoder(), mu);
        // Workspace checkout pool: a solve invocation borrows a workspace and
        // returns it afterwards, so at most one workspace is ever built per
        // concurrently-solving worker — not one per chunk — and the per-point
        // kernels allocate nothing regardless of how the backend partitions
        // the work.
        // parking_lot's non-poisoning lock: a panicked solver in one worker
        // must not cascade "workspace pool poisoned" panics into the others
        // (workspaces are checked out whole, so recovery sees a valid pool).
        let workspaces: Mutex<Vec<zstep::ZStepWorkspace>> = Mutex::new(Vec::new());
        let solve = |_machine: usize, chunk: &[usize]| {
            let hx = zstep::encoder_outputs(x, chunk, model.decoder().n_bits(), |row| {
                model.encoder().encode_one(row)
            });
            let mut workspace = workspaces
                .lock()
                .pop()
                .unwrap_or_else(|| zstep::ZStepWorkspace::new(&problem));
            let mut updates = Vec::new();
            zstep::solve_shard_chunk(
                method,
                &problem,
                x,
                chunk,
                &hx,
                alternations,
                &mut workspace,
                |n, z_new| {
                    if !codes.row_equals(n, z_new) {
                        updates.push(ZUpdate {
                            point: n,
                            code: z_new.to_vec(),
                        });
                    }
                },
            );
            workspaces.lock().push(workspace);
            updates
        };
        let (updates, stats) =
            self.backend
                .run_z_step(&self.cluster, self.config.ba.effective_submodels(), solve);
        let changed = !updates.is_empty();
        for update in updates {
            self.codes.set_code(update.point, &update.code);
        }
        (changed, stats)
    }

    /// Consumes the trainer and returns the final model.
    pub fn into_model(self) -> BinaryAutoencoder {
        self.model
    }

    /// Within-machine streaming (§4.3): ingests the data points that were
    /// appended to the feature matrix since training started (rows
    /// `codes.len()..x.rows()`), assigning them to `machine` and initialising
    /// their auxiliary codes with the current encoder. Call between MAC
    /// iterations (conceptually "at the beginning of the Z step").
    ///
    /// # Panics
    ///
    /// Panics if `x` has fewer rows than there are codes, or `machine` is out
    /// of range.
    pub fn add_streaming_points(&mut self, x: &Mat, machine: usize) {
        assert!(
            x.rows() >= self.codes.len(),
            "the extended feature matrix must contain all previously seen points"
        );
        let new_indices: Vec<usize> = (self.codes.len()..x.rows()).collect();
        if new_indices.is_empty() {
            return;
        }
        for &n in &new_indices {
            let bits = self.model.encoder().encode_one(x.row(n));
            let code: Vec<f64> = bits
                .into_iter()
                .map(|b| if b { 1.0 } else { 0.0 })
                .collect();
            self.codes.push_code(&code);
        }
        self.cluster.add_points_to_shard(machine, &new_indices);
        self.backend
            .publish_point_codes(machine, &new_indices, &self.codes);
    }

    /// Across-machine streaming (§4.3): connects a new machine into the ring
    /// after `after`, pre-loaded with the points appended to the feature
    /// matrix since training started. Returns the new machine's id.
    ///
    /// # Panics
    ///
    /// Panics if `x` has fewer rows than there are codes or `after` is not in
    /// the ring.
    pub fn add_streaming_machine(&mut self, x: &Mat, after: usize) -> usize {
        assert!(
            x.rows() >= self.codes.len(),
            "the extended feature matrix must contain all previously seen points"
        );
        let new_indices: Vec<usize> = (self.codes.len()..x.rows()).collect();
        for &n in &new_indices {
            let bits = self.model.encoder().encode_one(x.row(n));
            let code: Vec<f64> = bits
                .into_iter()
                .map(|b| if b { 1.0 } else { 0.0 })
                .collect();
            self.codes.push_code(&code);
        }
        let id = self.cluster.add_machine(after, new_indices.clone(), 1.0);
        self.backend
            .publish_point_codes(id, &new_indices, &self.codes);
        id
    }

    /// Disconnects a machine from the ring (§4.3). Its data is simply no
    /// longer visited; the model keeps training on the remaining shards.
    /// Disconnecting a machine that already left the ring is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if the machine is the last one in the ring.
    pub fn remove_machine(&mut self, machine: usize) {
        self.cluster.remove_machine(machine);
    }
}

/// How one machine visit trains a submodel: `passes` SGD passes (more than
/// one only for the two-round scheme of §4.2), with optional deterministic
/// within-machine shuffling derived from `seed`.
#[derive(Debug, Clone, Copy)]
struct VisitPlan {
    passes: usize,
    shuffle: bool,
    seed: u64,
}

/// One machine visit of one submodel: a pass (or `plan.passes` passes, for
/// the two-round scheme) of minibatch SGD over the machine's shard.
fn visit_update(
    sub: &mut BaSubmodel,
    machine: usize,
    shard: &[usize],
    x: &Mat,
    codes: &BinaryCodes,
    plan: VisitPlan,
) {
    if shard.is_empty() {
        return;
    }
    let VisitPlan {
        passes,
        shuffle,
        seed,
    } = plan;
    // Deterministic per-(visit) shuffling: reproducible regardless of backend
    // thread interleaving.
    let sub_id = match sub {
        BaSubmodel::Hash { bit, .. } => *bit as u64,
        BaSubmodel::DecoderRow { out, .. } => 1000 + *out as u64,
    };
    let mut shuffled;
    let order: &[usize] = if shuffle {
        let mut rng = SmallRng::seed_from_u64(
            seed ^ (machine as u64).wrapping_mul(0x517c_c1b7_2722_0a95) ^ sub_id,
        );
        shuffled = shard.to_vec();
        shuffled.shuffle(&mut rng);
        &shuffled
    } else {
        shard
    };
    // The submodel reads the shard in place, in visit order: X rows are
    // borrowed and codes decoded one at a time, so a visit's allocations do
    // not grow with the shard.
    match sub {
        BaSubmodel::Hash { bit, svm } => {
            let targets: Vec<f64> = order
                .iter()
                .map(|&n| if codes.bit(n, *bit) { 1.0 } else { -1.0 })
                .collect();
            svm.fit_indexed(x, order.iter().copied(), &targets, passes);
        }
        BaSubmodel::DecoderRow { out, ridge } => {
            let targets: Vec<f64> = order.iter().map(|&n| x[(n, *out)]).collect();
            ridge.fit_indexed(codes, order.iter().copied(), &targets, passes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BaConfig;
    use crate::mac::MacTrainer;
    use parmac_cluster::{CostModel, ThreadedBackend};
    use parmac_data::synthetic::{gaussian_mixture, MixtureConfig};

    fn dataset(seed: u64, n: usize) -> Mat {
        gaussian_mixture(&MixtureConfig::new(n, 10, 4).with_seed(seed)).features
    }

    fn quick_ba(bits: usize) -> BaConfig {
        BaConfig::new(bits)
            .with_mu_schedule(0.02, 2.0, 5)
            .with_epochs(1)
            .with_seed(2)
            .with_sgd(parmac_optim::SgdConfig::new().with_eta0(0.1))
    }

    #[test]
    fn parmac_improves_or_preserves_retrieval_quality_on_simulator() {
        // The paper's guarantee (§3.1, §8.2) is about the precision of the
        // returned hash function: with the validation-based bookkeeping the
        // final model is at least as good as the tPCA initialisation. E_BA
        // itself is not monotonic (fig. 7/8), so it is only loosely bounded.
        let data = gaussian_mixture(&MixtureConfig::new(300, 10, 4).with_seed(0));
        let x = data.train_features();
        let eval = crate::mac::RetrievalEval::new(x.clone(), data.query_features(), 10, 5);
        let cfg = ParMacConfig::new(quick_ba(6), 4);
        let mut trainer = ParMacTrainer::new(cfg, &x, SimBackend::new(CostModel::distributed()));
        let report = trainer.run_with_eval(&x, Some(&eval));
        let init_precision = report.mac.curve.records()[0].precision.unwrap();
        let final_precision = eval.precision_of(trainer.model());
        assert!(
            final_precision >= init_precision - 1e-9,
            "precision {init_precision} -> {final_precision}"
        );
        assert!(report.mac.final_ba_error <= report.mac.initial_ba_error * 1.5);
        assert_eq!(report.w_steps.len(), report.mac.iterations_run);
        assert!(report.total_simulated_time > 0.0);
    }

    #[test]
    fn parmac_threaded_backend_produces_comparable_model() {
        let x = dataset(1, 200);
        let cfg = ParMacConfig::new(quick_ba(6), 4).with_within_machine_shuffling(false);
        let mut sim = ParMacTrainer::new(cfg, &x, SimBackend::new(CostModel::distributed()));
        let mut thr = ParMacTrainer::new(cfg, &x, ThreadedBackend::new());
        let r_sim = sim.run(&x);
        let r_thr = thr.run(&x);
        // Both backends execute the same protocol; the threaded one may apply
        // updates in a different interleaving across submodels (submodels are
        // independent), so the final errors should be very close.
        let rel = (r_sim.mac.final_ba_error - r_thr.mac.final_ba_error).abs()
            / r_sim.mac.final_ba_error.max(1e-9);
        assert!(
            rel < 0.05,
            "simulated {} vs threaded {}",
            r_sim.mac.final_ba_error,
            r_thr.mac.final_ba_error
        );
    }

    #[test]
    fn parallel_z_step_is_bitwise_identical_to_serial() {
        // The per-point Z solves are independent, so running them one thread
        // per shard must give exactly the same codes as the serial sweep —
        // not just statistically close.
        let x = dataset(13, 200);
        let cfg = ParMacConfig::new(quick_ba(6), 4);
        let mut parallel = ParMacTrainer::new(cfg, &x, ThreadedBackend::new());
        let mut serial = ParMacTrainer::new(cfg, &x, SimBackend::default());

        parallel.w_step(&x, 0);
        serial.w_step(&x, 0);
        let (changed_par, stats_par) = parallel.z_step(&x, 0.05);
        let (changed_ser, stats_ser) = serial.z_step(&x, 0.05);

        assert_eq!(changed_par, changed_ser);
        assert_eq!(stats_par.points_updated, stats_ser.points_updated);
        assert_eq!(
            parallel.codes().to_matrix(),
            serial.codes().to_matrix(),
            "parallel Z step must be bitwise identical to the serial one"
        );
    }

    #[test]
    fn parallel_z_full_run_matches_serial_z_run_exactly() {
        // Same property over a whole training run: every iteration's Z step
        // applies identical updates, so the final model and codes coincide
        // bit for bit.
        let x = dataset(14, 160);
        let cfg = ParMacConfig::new(quick_ba(5), 4);
        let r_par = ParMacTrainer::new(cfg, &x, ThreadedBackend::new()).run(&x);
        let r_ser = ParMacTrainer::new(cfg, &x, SimBackend::default()).run(&x);
        assert_eq!(r_par.mac.final_ba_error, r_ser.mac.final_ba_error);
        assert_eq!(r_par.mac.iterations_run, r_ser.mac.iterations_run);
    }

    #[test]
    fn parmac_is_close_to_serial_mac() {
        // §6 / §8.2: ParMAC with SGD W steps gives almost identical results to
        // serial MAC.
        let x = dataset(2, 260);
        let ba = quick_ba(6).with_exact_w_step(true);
        let mut serial = MacTrainer::new(ba, &x);
        let serial_report = serial.run(&x);

        // §8.2 / fig. 7: the SGD-trained distributed run approaches the serial
        // exact one as the number of W-step epochs e grows; on a dataset this
        // small (65 points per machine, minibatch 32) e = 8 is needed to give
        // each submodel a meaningful SGD budget per W step.
        let cfg = ParMacConfig::new(quick_ba(6).with_epochs(8), 4);
        let mut distributed =
            ParMacTrainer::new(cfg, &x, SimBackend::new(CostModel::distributed()));
        let parmac_report = distributed.run(&x);

        let serial_final = serial_report.final_ba_error;
        let parmac_final = parmac_report.mac.final_ba_error;
        assert!(
            parmac_final <= serial_final * 1.3 + 1e-9,
            "ParMAC E_BA {parmac_final} much worse than serial {serial_final}"
        );
    }

    #[test]
    fn single_machine_parmac_equals_its_own_rerun_deterministically() {
        let x = dataset(3, 150);
        let cfg = ParMacConfig::new(quick_ba(5), 1);
        let backend = SimBackend::new(CostModel::distributed());
        let r1 = ParMacTrainer::new(cfg, &x, backend).run(&x);
        let r2 = ParMacTrainer::new(cfg, &x, backend).run(&x);
        assert_eq!(r1.mac.final_ba_error, r2.mac.final_ba_error);
        assert_eq!(r1.total_simulated_time, r2.total_simulated_time);
    }

    #[test]
    fn simulated_time_decreases_with_more_machines() {
        let x = dataset(4, 320);
        let time_with = |p: usize| {
            let cfg = ParMacConfig::new(quick_ba(6), p);
            let mut t =
                ParMacTrainer::new(cfg, &x, SimBackend::new(CostModel::new(1.0, 10.0, 5.0)));
            t.run(&x).total_simulated_time
        };
        let t1 = time_with(1);
        let t8 = time_with(8);
        assert!(t8 < t1, "P=1 {t1} vs P=8 {t8}");
        assert!(t1 / t8 > 3.0, "speedup {}", t1 / t8);
    }

    #[test]
    fn two_round_communication_sends_fewer_messages() {
        let x = dataset(5, 200);
        let cfg_multi = ParMacConfig::new(quick_ba(5).with_epochs(4), 4);
        let cfg_two = cfg_multi.with_two_round_communication(true);
        let backend = SimBackend::new(CostModel::distributed());
        let r_multi = ParMacTrainer::new(cfg_multi, &x, backend).run(&x);
        let r_two = ParMacTrainer::new(cfg_two, &x, backend).run(&x);
        let msgs = |r: &ParMacReport| r.w_steps.iter().map(|w| w.messages_sent).sum::<usize>();
        assert!(
            msgs(&r_two) < msgs(&r_multi),
            "two-round {} vs multi-round {}",
            msgs(&r_two),
            msgs(&r_multi)
        );
    }

    #[test]
    fn fault_injection_still_converges() {
        let x = dataset(6, 240);
        let cfg = ParMacConfig::new(quick_ba(5), 4);
        let mut trainer = ParMacTrainer::new(cfg, &x, SimBackend::new(CostModel::distributed()))
            .with_fault(
                1,
                Fault {
                    machine: 2,
                    at_tick: 1,
                },
            );
        let report = trainer.run(&x);
        assert!(report.mac.final_ba_error <= report.mac.initial_ba_error * 1.1);
    }

    #[test]
    fn cross_machine_shuffling_changes_topology_but_not_correctness() {
        let x = dataset(7, 200);
        let cfg = ParMacConfig::new(quick_ba(5), 4).with_cross_machine_shuffling(true);
        let mut trainer = ParMacTrainer::new(cfg, &x, SimBackend::new(CostModel::distributed()));
        let report = trainer.run(&x);
        // E_BA is not monotone along the penalty path (fig. 7/8); assert that
        // training stayed sane: finite errors and a curve that dips at least
        // once below (or near) the initialisation.
        assert!(report.mac.final_ba_error.is_finite());
        let best = report.mac.curve.best_ba_error().unwrap();
        assert!(best <= report.mac.initial_ba_error * 1.05);
    }

    #[test]
    fn streaming_new_points_into_a_machine_keeps_training() {
        let x_initial = dataset(9, 200);
        let cfg = ParMacConfig::new(quick_ba(5), 4);
        let mut trainer =
            ParMacTrainer::new(cfg, &x_initial, SimBackend::new(CostModel::distributed()));
        // One MAC iteration on the initial data.
        trainer.w_step(&x_initial, 0);
        trainer.z_step(&x_initial, 0.05);

        // New points arrive at machine 2 (same distribution, fresh seed).
        let extra = dataset(10, 40);
        let x_extended = x_initial.vstack(&extra).unwrap();
        trainer.add_streaming_points(&x_extended, 2);
        assert_eq!(trainer.codes().len(), 240);

        // Training continues on the extended data without panicking and the
        // new points now participate in the W and Z steps.
        let stats = trainer.w_step(&x_extended, 1);
        assert!(stats.update_visits > 0);
        let (_, z_stats) = trainer.z_step(&x_extended, 0.1);
        assert_eq!(z_stats.points_updated, 240);
        assert!(trainer.model().ba_error(&x_extended).is_finite());
    }

    #[test]
    fn streaming_machine_addition_and_removal() {
        let x_initial = dataset(11, 160);
        let cfg = ParMacConfig::new(quick_ba(5), 4);
        let mut trainer =
            ParMacTrainer::new(cfg, &x_initial, SimBackend::new(CostModel::distributed()));
        trainer.w_step(&x_initial, 0);
        trainer.z_step(&x_initial, 0.05);

        // A new machine joins with its own freshly collected shard.
        let extra = dataset(12, 40);
        let x_extended = x_initial.vstack(&extra).unwrap();
        let new_id = trainer.add_streaming_machine(&x_extended, 1);
        assert_eq!(new_id, 4);
        assert_eq!(trainer.cluster().topology().n_machines(), 5);

        // And an old machine leaves; training continues on the rest.
        trainer.remove_machine(0);
        assert_eq!(trainer.cluster().topology().n_machines(), 4);
        let stats = trainer.w_step(&x_extended, 1);
        assert!(stats.update_visits > 0);
        let (_, z_stats) = trainer.z_step(&x_extended, 0.1);
        // Machine 0's 40 points are no longer visited: 200 - 40 + 40 new.
        assert_eq!(z_stats.points_updated, 160);
    }

    #[test]
    #[should_panic(expected = "at least one data point per machine")]
    fn more_machines_than_points_rejected() {
        let x = dataset(8, 4);
        let cfg = ParMacConfig::new(quick_ba(4), 8);
        let _ = ParMacTrainer::new(cfg, &x, ThreadedBackend::new());
    }
}
