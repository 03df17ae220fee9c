//! The execution-engine seam: [`ClusterBackend`].
//!
//! ParMAC's two steps have very different execution structures — the W step
//! circulates submodels over a ring while the Z step is embarrassingly
//! parallel over data points — but *what* is computed is identical on every
//! substrate. `ClusterBackend` captures that split: a backend decides **how**
//! envelopes move and where the per-shard Z solves run, while the shared
//! [`SimCluster`] state (shards, ring topology, machine speeds, cost model),
//! the W-step protocol itself (the crate-private `ring` engine) and the
//! algorithmic closures supplied by `parmac-core` stay backend-agnostic.
//!
//! One reference and four drivers of the engine ship today:
//!
//! * [`SimBackend`] — the reference: the deterministic synchronous-tick
//!   simulator, charging simulated time to a [`CostModel`] (fig. 10's speedup
//!   experiments). It is the cost-model clock, not a driver of the
//!   asynchronous ring, and every driver is tested bitwise against it;
//! * [`ThreadedBackend`] — the channel ring: one scoped OS thread and one
//!   crossbeam inbox per machine for the W step, one task per shard on `P`
//!   threads for the Z step. Simulated time is still charged with the same
//!   formulas, so speedup curves remain comparable across backends;
//! * [`PoolBackend`](crate::pool::PoolBackend) — the stealing deque (§8.5's
//!   shared-memory configuration): every W-step visit is a task any worker
//!   can take, the Z step splits every shard into point chunks. Its ordered
//!   task runner is the Z fan-out of all three thread backends;
//! * [`ServerBackend`](crate::server::ServerBackend) — the threaded ring
//!   plus a resident serving fleet: it trains through the same two functions
//!   as [`ThreadedBackend`], mirrors each Z step's updates into long-lived
//!   machine actors, and those answer Hamming k-NN queries (via
//!   [`QueryRouter`](crate::server::QueryRouter)) *while* training runs;
//! * [`ProcessBackend`](crate::process::ProcessBackend) — the socket ring:
//!   machines as real OS processes (`parmac-machined` workers) connected by
//!   Unix-domain sockets. The workers route envelope frames, the coordinator
//!   applies each visit exactly once through the engine, and a SIGKILLed
//!   worker becomes a §4.3 fault the step routes around.
//!
//! The Z step uses a *collect-then-apply* contract: the solve closure returns
//! the changed codes per shard as [`ZUpdate`]s instead of mutating shared
//! state, which is what makes shard-parallel execution safe and keeps the
//! parallel result bitwise identical to the serial one (per-point solves are
//! independent; updates are applied in topology order either way). Because the
//! closure is invoked once per machine shard, it is also the right place for
//! per-shard amortised state: `parmac-core`'s closure builds one
//! `ZStepProblem` (Cholesky factorisation) **and one `ZStepWorkspace`** per
//! shard and reuses them `&mut` across the shard's points, so the per-point
//! kernels allocate nothing regardless of which backend drives them.

use crate::cost::{CostModel, StepTimings, WStepStats, ZStepStats};
use crate::pool::solve_tasks;
use crate::sim::{Fault, SimCluster};
use crate::threaded::run_w_step_threaded;
use parmac_hash::BinaryCodes;
use std::time::Instant;

/// A new binary code for one data point, produced by a Z-step solve.
#[derive(Debug, Clone, PartialEq)]
pub struct ZUpdate {
    /// The data point (global index) whose code changed.
    pub point: usize,
    /// The new code as 0/1 values.
    pub code: Vec<f64>,
}

/// An execution engine for ParMAC's distributed steps.
///
/// Implementations run the W-step ring protocol and the per-shard Z solves on
/// their substrate of choice. The trainer in `parmac-core` is generic over
/// this trait and contains no backend-specific dispatch; new substrates plug
/// in here without touching the training logic.
pub trait ClusterBackend {
    /// Human-readable backend name (for reports and logging).
    fn name(&self) -> &'static str;

    /// The cost model this backend *seeds* a trainer's cluster with. At
    /// execution time the cluster's own cost model is authoritative — both
    /// steps charge simulated time from `cluster.cost_model()`, so a cluster
    /// constructed with a different model than the backend's will be charged
    /// with the cluster's.
    fn cost_model(&self) -> CostModel;

    /// Runs one distributed W step: every submodel visits every machine
    /// `epochs` times and is updated on that machine's shard via `update`.
    ///
    /// * `cluster` — shards, ring topology, speeds.
    /// * `submodels` — the `M` circulating submodels; returned updated, in the
    ///   original order.
    /// * `params_per_submodel` — parameter count for the bytes statistic.
    /// * `update` — `update(&mut submodel, machine, shard)` performs one pass
    ///   of stochastic updates. It may be called concurrently for *different*
    ///   submodels, hence `Sync`.
    /// * `fault` — optional machine failure to inject. Only the simulator
    ///   honours faults; real-thread backends ignore the plan (they exercise
    ///   actual thread liveness instead).
    fn run_w_step<S, F>(
        &self,
        cluster: &SimCluster,
        submodels: Vec<S>,
        epochs: usize,
        params_per_submodel: usize,
        update: F,
        fault: Option<Fault>,
    ) -> (Vec<S>, WStepStats)
    where
        S: Send,
        F: Fn(&mut S, usize, &[usize]) + Sync;

    /// Runs one Z step: `solve(machine, shard)` computes the changed codes of
    /// one machine's shard and the backend decides how machines execute
    /// (serially or one thread per shard). Returns all updates in ring
    /// topology order plus the step statistics.
    ///
    /// * `n_submodels` — the `M` used by the cost model (`M · N/P · t_r^Z`).
    fn run_z_step<F>(
        &self,
        cluster: &SimCluster,
        n_submodels: usize,
        solve: F,
    ) -> (Vec<ZUpdate>, ZStepStats)
    where
        F: Fn(usize, &[usize]) -> Vec<ZUpdate> + Sync;

    /// Publishes the current auxiliary codes to the backend's serving side,
    /// shard by shard. Called by the trainer whenever the codes are (re)built
    /// wholesale — at initialisation, after re-partitioning and at the end of
    /// a run — so a backend that also *serves* the codes (the
    /// [`ServerBackend`](crate::server::ServerBackend) retrieval fleet) stays
    /// fresh. Purely computational backends ignore it (the default no-op).
    fn publish_codes(&self, _cluster: &SimCluster, _codes: &BinaryCodes) {}

    /// Publishes the codes of freshly streamed points: `points` were just
    /// added to `machine`'s shard and their codes are rows of `codes`. The
    /// incremental sibling of [`publish_codes`](Self::publish_codes) — a
    /// streaming ingest touches one machine, so only that machine's delta
    /// should move. Default no-op.
    fn publish_point_codes(&self, _machine: usize, _points: &[usize], _codes: &BinaryCodes) {}
}

/// Z-step statistics shared by every backend: simulated time comes from
/// [`SimCluster::simulated_z_time`] (eq. 7), so the simulated speedup curves
/// are directly comparable across substrates.
pub(crate) fn z_stats(cluster: &SimCluster, n_submodels: usize, start: Instant) -> ZStepStats {
    let mut timings = StepTimings::default();
    timings.simulated_compute = cluster.simulated_z_time(n_submodels);
    timings.simulated = timings.simulated_compute;
    ZStepStats {
        timings: timings.with_wall_clock(start.elapsed()),
        points_updated: cluster
            .topology()
            .machines()
            .iter()
            .map(|&m| cluster.shard(m).len())
            .sum(),
    }
}

/// One machine's slice of the code table, cut out for a shard publish: the
/// shard's global point indices and their codes, one row per point in shard
/// order (a word copy per point, nothing decoded).
pub(crate) fn shard_codes(
    cluster: &SimCluster,
    machine: usize,
    codes: &BinaryCodes,
) -> (Vec<usize>, BinaryCodes) {
    let points = cluster.shard(machine).to_vec();
    let mut cut = BinaryCodes::zeros(points.len(), codes.n_bits());
    for (row, &point) in points.iter().enumerate() {
        cut.copy_code_from(row, codes, point);
    }
    (points, cut)
}

/// The codes of freshly streamed `points` (rows of `codes`) as the Z updates
/// an incremental publish sends.
pub(crate) fn point_updates(points: &[usize], codes: &BinaryCodes) -> Vec<ZUpdate> {
    points
        .iter()
        .map(|&point| ZUpdate {
            point,
            code: codes.to_f64_row(point),
        })
        .collect()
}

/// The thread-per-shard Z step of the threaded and server backends: one task
/// per machine of the topology, `P` workers, each machine's updates returned
/// in topology order (the paper's "the Z step is embarrassingly parallel": no
/// communication, disjoint shards).
pub(crate) fn solve_per_shard<F>(cluster: &SimCluster, solve: &F) -> Vec<Vec<ZUpdate>>
where
    F: Fn(usize, &[usize]) -> Vec<ZUpdate> + Sync,
{
    let tasks: Vec<(usize, &[usize])> = cluster
        .topology()
        .machines()
        .iter()
        .map(|&machine| (machine, cluster.shard(machine)))
        .collect();
    solve_tasks(&tasks, tasks.len(), solve)
}

/// The deterministic synchronous-tick simulator backend.
///
/// Executes both steps serially on the calling thread in ring-topology order,
/// charging simulated time to the configured [`CostModel`]. Supports fault
/// injection (§4.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimBackend {
    cost: CostModel,
}

impl SimBackend {
    /// A simulator charging time to `cost`.
    pub fn new(cost: CostModel) -> Self {
        SimBackend { cost }
    }
}

impl Default for SimBackend {
    /// The distributed-cluster cost preset (table 1 / fig. 10).
    fn default() -> Self {
        SimBackend::new(CostModel::distributed())
    }
}

impl ClusterBackend for SimBackend {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn cost_model(&self) -> CostModel {
        self.cost
    }

    fn run_w_step<S, F>(
        &self,
        cluster: &SimCluster,
        mut submodels: Vec<S>,
        epochs: usize,
        params_per_submodel: usize,
        update: F,
        fault: Option<Fault>,
    ) -> (Vec<S>, WStepStats)
    where
        S: Send,
        F: Fn(&mut S, usize, &[usize]) + Sync,
    {
        let stats = cluster.run_w_step(&mut submodels, epochs, params_per_submodel, update, fault);
        (submodels, stats)
    }

    fn run_z_step<F>(
        &self,
        cluster: &SimCluster,
        n_submodels: usize,
        solve: F,
    ) -> (Vec<ZUpdate>, ZStepStats)
    where
        F: Fn(usize, &[usize]) -> Vec<ZUpdate> + Sync,
    {
        let start = Instant::now();
        let mut updates = Vec::new();
        for &machine in cluster.topology().machines() {
            updates.extend(solve(machine, cluster.shard(machine)));
        }
        (updates, z_stats(cluster, n_submodels, start))
    }
}

/// The real-thread backend: one OS thread per machine.
///
/// The W step runs the asynchronous crossbeam ring of §4.1; the Z step runs
/// one task per machine shard on `P` threads. Simulated time is charged with
/// the same cost formulas as [`SimBackend`] so that fig-10-style speedup
/// curves cover both steps on either backend; wall-clock time additionally
/// reflects true parallelism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreadedBackend {
    cost: CostModel,
}

impl ThreadedBackend {
    /// A threaded backend with the distributed cost preset.
    pub fn new() -> Self {
        ThreadedBackend {
            cost: CostModel::distributed(),
        }
    }

    /// Overrides the cost model a trainer built on this backend seeds its
    /// cluster with (the cluster is authoritative at execution time; see
    /// [`ClusterBackend::cost_model`]).
    pub fn with_cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }
}

impl Default for ThreadedBackend {
    fn default() -> Self {
        ThreadedBackend::new()
    }
}

impl ClusterBackend for ThreadedBackend {
    fn name(&self) -> &'static str {
        "threaded"
    }

    fn cost_model(&self) -> CostModel {
        self.cost
    }

    fn run_w_step<S, F>(
        &self,
        cluster: &SimCluster,
        submodels: Vec<S>,
        epochs: usize,
        params_per_submodel: usize,
        update: F,
        _fault: Option<Fault>,
    ) -> (Vec<S>, WStepStats)
    where
        S: Send,
        F: Fn(&mut S, usize, &[usize]) + Sync,
    {
        run_w_step_threaded(cluster, submodels, epochs, params_per_submodel, update)
    }

    fn run_z_step<F>(
        &self,
        cluster: &SimCluster,
        n_submodels: usize,
        solve: F,
    ) -> (Vec<ZUpdate>, ZStepStats)
    where
        F: Fn(usize, &[usize]) -> Vec<ZUpdate> + Sync,
    {
        let start = Instant::now();
        let updates = solve_per_shard(cluster, &solve);
        (
            updates.into_iter().flatten().collect(),
            z_stats(cluster, n_submodels, start),
        )
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ring::tests::shards;

    pub(crate) fn toggle_solve(machine: usize, shard: &[usize]) -> Vec<ZUpdate> {
        // Deterministic per-point "solve": flip points whose index is even,
        // code derived from (machine, point).
        shard
            .iter()
            .filter(|&&n| n % 2 == 0)
            .map(|&n| ZUpdate {
                point: n,
                code: vec![machine as f64, n as f64],
            })
            .collect()
    }

    /// The backend's Z step returns the simulator's updates, bit for bit and
    /// in the same order, and charges the same simulated time.
    pub(crate) fn z_step_matches_sim<B: ClusterBackend>(name: &str, backend: &B) {
        let cost = CostModel::new(1.0, 10.0, 5.0);
        let cluster = SimCluster::new(shards(4, 40), cost);
        let (u_sim, s_sim) = SimBackend::new(cost).run_z_step(&cluster, 8, toggle_solve);
        let (u, s) = backend.run_z_step(&cluster, 8, toggle_solve);
        assert_eq!(u_sim, u, "{name}: Z must be bitwise identical to sim");
        assert_eq!((s_sim.points_updated, s.points_updated), (40, 40), "{name}");
        assert_eq!(s_sim.timings.simulated, s.timings.simulated, "{name}");
    }

    #[test]
    fn all_backends_z_steps_produce_identical_updates_and_times() {
        z_step_matches_sim("threaded", &ThreadedBackend::new());
        let pool = crate::pool::PoolBackend::new();
        z_step_matches_sim("pool", &pool.with_workers(3).with_chunk_size(4));
    }

    /// Z updates come back machine by machine in (shuffled) topology order,
    /// and in shard order within a machine however the shard was split.
    pub(crate) fn z_updates_follow_topology_order<B: ClusterBackend>(backend: &B) {
        let mut cluster = SimCluster::new(shards(4, 16), CostModel::distributed());
        cluster.set_topology(crate::topology::RingTopology::from_order(vec![2, 0, 3, 1]));
        let (updates, _) = backend.run_z_step(&cluster, 2, |machine, shard| {
            shard
                .iter()
                .map(|&n| ZUpdate {
                    point: n,
                    code: vec![machine as f64],
                })
                .collect()
        });
        let machines: Vec<usize> = updates.iter().map(|u| u.code[0] as usize).collect();
        let machine_order: Vec<usize> = machines.chunks(4).map(|c| c[0]).collect();
        assert_eq!(machine_order, vec![2, 0, 3, 1]);
        let points: Vec<usize> = updates.iter().map(|u| u.point).collect();
        assert_eq!(points[..4], [8, 9, 10, 11]);
    }

    #[test]
    fn z_updates_arrive_in_topology_order() {
        z_updates_follow_topology_order(&ThreadedBackend::new());
    }

    #[test]
    fn backend_names_and_cost_models_are_exposed() {
        let sim = SimBackend::new(CostModel::shared_memory());
        assert_eq!(sim.name(), "sim");
        assert_eq!(sim.cost_model(), CostModel::shared_memory());
        let thr = ThreadedBackend::new();
        assert_eq!(thr.name(), "threaded");
        assert_eq!(thr.cost_model(), CostModel::distributed());
    }
}
