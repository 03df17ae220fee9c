//! A W-step machine visit reads the resident shard in place: the number of
//! heap allocations it makes is a small constant (visit order, targets,
//! gradient, row scratch) that does not grow with the shard — no per-point
//! `Vec`, no per-minibatch copy. A counting `#[global_allocator]` measures
//! exactly the trainer's `update` closure, through a backend that does
//! nothing but call it once per submodel.
//!
//! One `#[test]` only: the counter is process-wide, and a second test thread
//! would pollute it.

use parmac_cluster::{
    ClusterBackend, CostModel, Fault, SimCluster, WStepStats, ZStepStats, ZUpdate,
};
use parmac_core::{BaConfig, ParMacConfig, ParMacTrainer};
use parmac_data::synthetic::{gaussian_mixture, MixtureConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a statistic and guards nothing.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Visits every submodel once on machine 0's shard, on the calling thread,
/// recording how many allocations each visit made.
#[derive(Default)]
struct VisitCounter {
    per_visit: Mutex<Vec<u64>>,
}

impl ClusterBackend for VisitCounter {
    fn name(&self) -> &'static str {
        "visit-counter"
    }

    fn cost_model(&self) -> CostModel {
        CostModel::distributed()
    }

    fn run_w_step<S, F>(
        &self,
        cluster: &SimCluster,
        mut submodels: Vec<S>,
        _epochs: usize,
        _params_per_submodel: usize,
        update: F,
        _fault: Option<Fault>,
    ) -> (Vec<S>, WStepStats)
    where
        S: Send,
        F: Fn(&mut S, usize, &[usize]) + Sync,
    {
        let mut counts = Vec::with_capacity(submodels.len());
        for sub in &mut submodels {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            update(sub, 0, cluster.shard(0));
            counts.push(ALLOCATIONS.load(Ordering::Relaxed) - before);
        }
        *self.per_visit.lock().expect("no panic while counting") = counts;
        (submodels, WStepStats::default())
    }

    fn run_z_step<F>(
        &self,
        _cluster: &SimCluster,
        _n_submodels: usize,
        _solve: F,
    ) -> (Vec<ZUpdate>, ZStepStats)
    where
        F: Fn(usize, &[usize]) -> Vec<ZUpdate> + Sync,
    {
        unreachable!("the test runs W steps only")
    }
}

const BITS: usize = 8;
const DIM: usize = 24;

/// Allocation counts of the `BITS` encoder-bit visits followed by the `DIM`
/// decoder-row visits of one W step over a single `n`-point shard.
fn visit_allocations(n: usize, shuffle: bool, two_round: bool) -> Vec<u64> {
    let x = gaussian_mixture(&MixtureConfig::new(n, DIM, 4).with_seed(3)).features;
    let cfg = ParMacConfig::new(BaConfig::new(BITS).with_epochs(3).with_seed(1), 1)
        .with_within_machine_shuffling(shuffle)
        .with_two_round_communication(two_round);
    let mut trainer = ParMacTrainer::new(cfg, &x, VisitCounter::default());
    trainer.w_step(&x, 0);
    let counts = trainer
        .backend()
        .per_visit
        .lock()
        .expect("no panic while counting")
        .clone();
    assert_eq!(counts.len(), BITS + DIM);
    counts
}

#[test]
fn a_visit_allocates_the_same_few_buffers_whatever_the_shard_size() {
    for (shuffle, two_round) in [(true, false), (false, true)] {
        let small = visit_allocations(256, shuffle, two_round);
        let large = visit_allocations(2048, shuffle, two_round);
        assert_eq!(
            small, large,
            "allocations per visit grew with the shard (shuffle={shuffle}, two_round={two_round})"
        );
        // Encoder-bit SVM visits and decoder-row ridge visits alike: targets,
        // gradient and row scratch, plus the shuffled order when shuffling.
        let expected = if shuffle { 4 } else { 3 };
        assert!(
            large.iter().all(|&count| count == expected),
            "expected {expected} allocations per visit, counted {large:?}"
        );
    }
}
