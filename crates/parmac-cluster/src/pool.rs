//! Work-stealing thread-pool backend (§8.5's shared-memory configuration).
//!
//! The paper's shared-memory runs execute the very same ring protocol with
//! all "machines" being cores of one box. The protocol is the shared engine
//! (the crate-private `ring` module); this file is its stealing-deque driver
//! plus the ordered task runner behind every thread backend's Z step
//! (`solve_tasks`). Two structural consequences, neither available to the
//! one-thread-per-machine [`ThreadedBackend`](crate::backend::ThreadedBackend):
//!
//! * **The Z step is embarrassingly parallel at *point* granularity**, not
//!   shard granularity: when `P ≪ cores` or the shards are imbalanced
//!   (proportional partitions, streaming), per-shard threads leave cores
//!   idle. [`PoolBackend`] splits every shard into fixed-size point chunks
//!   that *any* worker can steal, then reassembles the per-chunk updates in
//!   deterministic topology-then-chunk order — bitwise identical output to
//!   the serial sweep, wall-clock bounded by the slowest *chunk* rather than
//!   the slowest *shard*.
//! * **Within-machine W-step parallelism** (§8.5): several submodels queued
//!   at the same ring machine are trained concurrently by the local workers.
//!   Distinct submodels are independent (the update closure's `Sync`
//!   contract), and each submodel still visits machines in exact ring order,
//!   so the trained weights stay bitwise identical to the simulator's.
//!
//! The pool itself is hand-rolled (crates.io is unreachable, so no rayon):
//! one [`VecDeque`] of tasks per worker behind a [`Mutex`], workers popping
//! from their own deque's front and stealing from the *back* of a victim's
//! when empty. Z-step tasks are a fixed set known upfront, so a worker whose
//! full scan finds nothing simply exits; W-step visits spawn their successor
//! visit, so workers spin (yield, then briefly sleep) until every submodel
//! has been collected.

use crate::backend::{z_stats, ClusterBackend, ZUpdate};
use crate::cost::{CostModel, WStepStats, ZStepStats};
use crate::ring;
use crate::sim::{Fault, SimCluster};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::thread;
use std::time::{Duration, Instant};

/// Pops a task for `worker`: its own deque's front first (the distribution
/// order), then the *back* of each other worker's deque (steal-on-empty, so
/// thieves and owners contend on opposite ends). Returns `None` only when a
/// full scan over all deques finds nothing.
fn pop_or_steal<T>(queues: &[Mutex<VecDeque<T>>], worker: usize) -> Option<T> {
    if let Some(task) = queues[worker].lock().pop_front() {
        return Some(task);
    }
    for offset in 1..queues.len() {
        let victim = (worker + offset) % queues.len();
        if let Some(task) = queues[victim].lock().pop_back() {
            return Some(task);
        }
    }
    None
}

/// The work-stealing pool backend: `workers` threads share every task of a
/// step regardless of which "machine" it belongs to.
///
/// With `workers == 1` both steps degrade to the exact serial sweep (the
/// degenerate path the CI matrix keeps covered); with more workers the
/// results are still bitwise identical — only the wall clock changes. The
/// default cost model is the [`CostModel::shared_memory`] preset, matching
/// the configuration this backend models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolBackend {
    cost: CostModel,
    workers: usize,
    chunk_size: usize,
}

impl PoolBackend {
    /// Default chunk size: small enough that even one shard splits into many
    /// stealable tasks, large enough to amortise the per-chunk batched
    /// relaxed initialisation.
    pub const DEFAULT_CHUNK_SIZE: usize = 64;

    /// A pool sized to the host's available parallelism, with the
    /// shared-memory cost preset and the default chunk size.
    pub fn new() -> Self {
        PoolBackend {
            cost: CostModel::shared_memory(),
            workers: thread::available_parallelism().map_or(1, |n| n.get()),
            chunk_size: Self::DEFAULT_CHUNK_SIZE,
        }
    }

    /// Overrides the cost model a trainer built on this backend seeds its
    /// cluster with (the cluster is authoritative at execution time; see
    /// [`ClusterBackend::cost_model`]).
    pub fn with_cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Sets the number of pool workers.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        self.workers = workers;
        self
    }

    /// Sets the Z-step chunk size (points per stealable task).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size == 0`.
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        self.chunk_size = chunk_size;
        self
    }

    /// Number of pool workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Points per stealable Z-step task.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }
}

impl Default for PoolBackend {
    fn default() -> Self {
        PoolBackend::new()
    }
}

impl ClusterBackend for PoolBackend {
    fn name(&self) -> &'static str {
        "pool"
    }

    fn cost_model(&self) -> CostModel {
        self.cost
    }

    /// §8.5 within-machine W-step parallelism: every (submodel, machine)
    /// visit is one stealable task carrying the submodel's envelope, so all
    /// submodels queued at one machine are trained concurrently by the local
    /// workers. A visit pushes its successor visit into the worker's own
    /// deque; each submodel therefore visits machines in exact ring order and
    /// the trained weights are bitwise identical to the other backends'.
    /// Faults are ignored (real-thread backends exercise actual liveness
    /// instead).
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
        let machines = cluster.topology().machines();
        let p = machines.len();
        ring::run_w_step(
            cluster,
            machines,
            submodels,
            epochs,
            params_per_submodel,
            update,
            |step, seeded| {
                // At most one worker per circulating submodel can be busy.
                let workers = self.workers.min(seeded.len());
                let queues: Vec<Mutex<VecDeque<_>>> =
                    (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
                for (pos, env) in seeded {
                    queues[env.submodel_id % workers]
                        .lock()
                        .push_back((pos, env));
                }
                thread::scope(|scope| {
                    for worker in 0..workers {
                        let queues = &queues;
                        scope.spawn(move || {
                            let _guard = step.unwind_guard(|| {});
                            let mut idle_scans = 0u32;
                            while !step.is_done() {
                                let Some((pos, mut env)) = pop_or_steal(queues, worker) else {
                                    // Another worker still holds an in-flight
                                    // visit; its successor appears shortly.
                                    idle_scans += 1;
                                    if idle_scans < 16 {
                                        thread::yield_now();
                                    } else {
                                        thread::sleep(Duration::from_micros(50));
                                    }
                                    continue;
                                };
                                idle_scans = 0;
                                if step.visit(&mut env, machines[pos]) {
                                    step.collect(env);
                                } else {
                                    queues[worker].lock().push_back(((pos + 1) % p, env));
                                }
                            }
                        });
                    }
                });
                0
            },
        )
    }

    /// Point-granular Z step: every shard is split into `chunk_size`-point
    /// tasks, any worker solves any chunk, and `solve_tasks` reassembles
    /// the per-chunk updates in topology-then-chunk order — bitwise identical
    /// to [`SimBackend`](crate::backend::SimBackend) (per-point solves are
    /// independent; chunking a shard cannot change any point's solution).
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
        let tasks: Vec<(usize, &[usize])> = cluster
            .topology()
            .machines()
            .iter()
            .flat_map(|&machine| {
                cluster
                    .shard(machine)
                    .chunks(self.chunk_size)
                    .map(move |chunk| (machine, chunk))
            })
            .collect();
        let updates = solve_tasks(&tasks, self.workers, &solve);
        (
            updates.into_iter().flatten().collect(),
            z_stats(cluster, n_submodels, start),
        )
    }
}

/// The one Z fan-out: runs `solve(machine, points)` for every task on up to
/// `workers` stealing threads and returns the per-task updates *in task
/// order*, whichever worker solved what. Fed one task per shard with
/// `workers = P` it is the thread-per-shard Z step of the threaded and server
/// backends; fed point chunks it is the pool's. The fixed task set needs no
/// termination protocol: tasks never spawn tasks, so a worker whose scan
/// finds nothing exits. A panic in `solve` re-raises here.
pub(crate) fn solve_tasks<F>(
    tasks: &[(usize, &[usize])],
    workers: usize,
    solve: &F,
) -> Vec<Vec<ZUpdate>>
where
    F: Fn(usize, &[usize]) -> Vec<ZUpdate> + Sync,
{
    let workers = workers.min(tasks.len());
    if workers <= 1 {
        return tasks.iter().map(|&(m, points)| solve(m, points)).collect();
    }
    // Distribute task indices round-robin so every worker starts with tasks
    // spread across the topology; imbalance is then absorbed by stealing
    // rather than by the initial split.
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|worker| Mutex::new((worker..tasks.len()).step_by(workers).collect()))
        .collect();
    let mut per_task: Vec<Option<Vec<ZUpdate>>> = (0..tasks.len()).map(|_| None).collect();
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let queues = &queues;
                scope.spawn(move || {
                    let mut solved: Vec<(usize, Vec<ZUpdate>)> = Vec::new();
                    while let Some(task) = pop_or_steal(queues, worker) {
                        let (machine, points) = tasks[task];
                        solved.push((task, solve(machine, points)));
                    }
                    solved
                })
            })
            .collect();
        for handle in handles {
            for (task, updates) in handle.join().expect("Z-step worker panicked") {
                per_task[task] = Some(updates);
            }
        }
    });
    per_task
        .into_iter()
        .map(|u| u.expect("every task solved"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::tests::{
        toggle_solve, z_step_matches_sim, z_updates_follow_topology_order,
    };
    use crate::backend::SimBackend;
    use crate::ring::tests as protocol;

    #[test]
    fn pool_z_step_matches_sim_across_worker_and_chunk_sizes() {
        for workers in [1usize, 2, 3, 8] {
            for chunk in [1usize, 3, 7, 64] {
                let pool = PoolBackend::new().with_workers(workers);
                let name = format!("pool (workers={workers}, chunk={chunk})");
                z_step_matches_sim(&name, &pool.with_chunk_size(chunk));
            }
        }
    }

    #[test]
    fn pool_z_updates_arrive_in_topology_then_chunk_order() {
        let backend = PoolBackend::new().with_workers(4).with_chunk_size(2);
        z_updates_follow_topology_order(&backend);
    }

    #[test]
    fn pool_z_step_handles_imbalanced_shards() {
        // One huge shard next to three tiny ones: chunking means every worker
        // can help with the big one.
        let mut shards = vec![(0..60).collect::<Vec<usize>>()];
        shards.extend((0..3).map(|i| vec![60 + i]));
        let cluster = SimCluster::new(shards, CostModel::distributed());
        let (u_sim, _) = SimBackend::default().run_z_step(&cluster, 4, toggle_solve);
        let pool = PoolBackend::new().with_workers(4).with_chunk_size(8);
        let (u_pool, _) = pool.run_z_step(&cluster, 4, toggle_solve);
        assert_eq!(u_sim, u_pool);
    }

    // The W-step cases live in the protocol table (`ring::tests`, which runs
    // them at 1, 2 and 8 workers); these are its pool cells by their old names.
    #[test]
    fn pool_w_step_runs_the_full_protocol() {
        for workers in [1usize, 2, 8] {
            let pool = PoolBackend::new().with_workers(workers);
            protocol::visits_every_machine_e_times("pool", &pool);
        }
    }

    #[test]
    fn pool_w_step_visits_machines_in_ring_order() {
        protocol::shuffled_topology("pool", &PoolBackend::new().with_workers(3));
    }

    #[test]
    fn pool_w_step_empty_submodels_and_single_machine() {
        let pool = PoolBackend::new().with_workers(2);
        protocol::empty_list("pool", &pool);
        protocol::single_machine("pool", &pool);
    }

    #[test]
    fn pool_exposes_name_cost_and_knobs() {
        let pool = PoolBackend::new()
            .with_workers(5)
            .with_chunk_size(17)
            .with_cost_model(CostModel::distributed());
        assert_eq!(pool.name(), "pool");
        assert_eq!(pool.workers(), 5);
        assert_eq!(pool.chunk_size(), 17);
        assert_eq!(pool.cost_model(), CostModel::distributed());
        assert_eq!(
            PoolBackend::default().cost_model(),
            CostModel::shared_memory()
        );
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = PoolBackend::new().with_workers(0);
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_rejected() {
        let _ = PoolBackend::new().with_chunk_size(0);
    }
}
