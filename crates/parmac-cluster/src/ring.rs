//! The asynchronous W-step protocol of §4.1 / §4.3, written once.
//!
//! *"Each submodel carries a counter"*: submodel `i` is seeded at ring
//! position `i mod P`, is updated on every machine of the ring `e` times,
//! makes one communication-only forwarding lap and is collected. That
//! protocol — the seed rule, the per-visit transition, the `epochs > 0`
//! precondition, the empty-list return and the [`WStepStats`] assembly — is
//! [`run_w_step`] and [`RingStep`]. A backend is a *driver*: a closure that
//! only answers "how is an envelope delivered to its next machine, and on
//! which thread does the visit run" — a channel per machine
//! ([`threaded`](crate::threaded)), a stealing deque ([`pool`](crate::pool))
//! or a socket frame ([`process`](crate::process)).
//!
//! [`SimCluster::run_w_step`] is deliberately *not* a driver: it is the
//! tick-synchronous cost-model clock and the bitwise reference the drivers
//! are tested against, not a copy of the asynchronous ring.

use crate::cost::{ring_hops, StepTimings, WStepStats};
use crate::envelope::SubmodelEnvelope;
use crate::sim::SimCluster;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread;
use std::time::Instant;

/// The shared state of one W step in flight: what every visit reads (ring,
/// shards, epochs, the update closure) and what a finished envelope writes
/// (its submodel and its visit count).
pub(crate) struct RingStep<'a, S, F> {
    cluster: &'a SimCluster,
    ring: &'a [usize],
    epochs: usize,
    update: F,
    update_visits: AtomicUsize,
    collected: Vec<Mutex<Option<S>>>,
    n_collected: AtomicUsize,
    aborted: AtomicBool,
}

/// Runs one W step over `ring` (machine ids in ring order, never empty; a
/// subset of the cluster's topology when machines are down). `drive` receives the step and
/// the seeded envelopes as `(ring position, envelope)` pairs; it must deliver
/// each envelope to its position, call [`RingStep::visit`] there, forward an
/// unfinished envelope to the next position and [`RingStep::collect`] a
/// finished one. It returns the hops it added beyond the fault-free
/// [`ring_hops`] count (re-injections after a fault; 0 in-process).
///
/// # Panics
///
/// Panics if `epochs == 0`.
pub(crate) fn run_w_step<S, F, D>(
    cluster: &SimCluster,
    ring: &[usize],
    submodels: Vec<S>,
    epochs: usize,
    params_per_submodel: usize,
    update: F,
    drive: D,
) -> (Vec<S>, WStepStats)
where
    F: Fn(&mut S, usize, &[usize]),
    D: FnOnce(&RingStep<'_, S, F>, Vec<(usize, SubmodelEnvelope<S>)>) -> usize,
{
    assert!(epochs > 0, "need at least one epoch");
    let start = Instant::now();
    let (m_total, p) = (submodels.len(), ring.len());
    let mut stats = WStepStats::default();
    let submodels = if m_total == 0 {
        submodels
    } else {
        let step = RingStep {
            cluster,
            ring,
            epochs,
            update,
            update_visits: AtomicUsize::new(0),
            collected: (0..m_total).map(|_| Mutex::new(None)).collect(),
            n_collected: AtomicUsize::new(0),
            aborted: AtomicBool::new(false),
        };
        // Round robin by ring position, as in fig. 2.
        let seeded = submodels
            .into_iter()
            .enumerate()
            .map(|(id, sub)| (id % p, SubmodelEnvelope::new(id, sub, ring)))
            .collect();
        stats.messages_sent = ring_hops(m_total, p, epochs) + drive(&step, seeded);
        stats.bytes_sent = stats.messages_sent * params_per_submodel * std::mem::size_of::<f64>();
        stats.update_visits = step.update_visits.into_inner();
        step.collected
            .into_iter()
            .map(|slot| slot.into_inner().expect("every submodel collected"))
            .collect()
    };
    stats.timings = StepTimings::default().with_wall_clock(start.elapsed());
    (submodels, stats)
}

impl<S, F> RingStep<'_, S, F>
where
    F: Fn(&mut S, usize, &[usize]),
{
    /// One visit of `env` at `machine`: advances the counters and the visit
    /// list, runs the update on the machine's shard unless this is a hop of
    /// the final forwarding lap, and returns whether the envelope has now
    /// finished its W step (collect it) or travels on (forward it).
    pub(crate) fn visit(&self, env: &mut SubmodelEnvelope<S>, machine: usize) -> bool {
        if env.record_visit(machine, self.ring, self.epochs) {
            (self.update)(&mut env.payload, machine, self.cluster.shard(machine));
        }
        env.is_finished(self.ring.len(), self.epochs)
    }

    /// Takes a finished envelope's submodel out of circulation and counts its
    /// update visits (every visit that was not a forwarding hop) — once per
    /// submodel here, not per visit on a counter every thread would share.
    pub(crate) fn collect(&self, env: SubmodelEnvelope<S>) {
        let updates = env.visits - env.forward_visits;
        self.update_visits.fetch_add(updates, Ordering::Relaxed);
        *self.collected[env.submodel_id].lock() = Some(env.payload);
        // Release pairs with the Acquire in `is_done`: a thread that sees the
        // full count also sees every slot filled.
        self.n_collected.fetch_add(1, Ordering::Release);
    }

    /// Whether the step threads should stop: every submodel is collected, or
    /// a step thread unwound (see [`unwind_guard`](Self::unwind_guard)).
    pub(crate) fn is_done(&self) -> bool {
        self.n_collected.load(Ordering::Acquire) == self.collected.len()
            || self.aborted.load(Ordering::Acquire)
    }

    /// The guard every step thread holds while it runs visits. A panic in the
    /// update closure takes an envelope with it, so the step can never
    /// complete: the guard then flips [`is_done`](Self::is_done) for the
    /// threads that poll it and calls `wake` for the ones blocked on a
    /// mailbox, every thread exits, and `thread::scope` re-raises the panic
    /// at join instead of waiting forever for the lost envelope.
    pub(crate) fn unwind_guard<W: Fn()>(&self, wake: W) -> UnwindGuard<'_, W> {
        UnwindGuard {
            aborted: &self.aborted,
            wake,
        }
    }
}

/// See [`RingStep::unwind_guard`].
pub(crate) struct UnwindGuard<'a, W: Fn()> {
    aborted: &'a AtomicBool,
    wake: W,
}

impl<W: Fn()> Drop for UnwindGuard<'_, W> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.aborted.store(true, Ordering::Release);
            (self.wake)();
        }
    }
}

/// The W-step protocol table: every case below runs on every in-process
/// backend — the simulator as the reference column, then the three drivers.
/// (The socket ring needs the `parmac-machined` binary; its leg is
/// `tests/process_ring.rs`.)
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::backend::{ClusterBackend, SimBackend, ThreadedBackend};
    use crate::cost::CostModel;
    use crate::pool::PoolBackend;
    use crate::server::ServerBackend;
    use crate::topology::RingTopology;
    use std::collections::HashMap;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc;
    use std::time::Duration;

    /// `n` points dealt evenly over `p` machines, contiguous per machine.
    pub(crate) fn shards(p: usize, n: usize) -> Vec<Vec<usize>> {
        let base = n / p;
        (0..p)
            .map(|i| (i * base..(i + 1) * base).collect())
            .collect()
    }

    fn cluster(p: usize, n: usize) -> SimCluster {
        SimCluster::new(shards(p, n), CostModel::distributed())
    }

    /// Every (submodel, machine) pair is updated exactly `e` times, on that
    /// machine's own shard; submodels come back in their original order; the
    /// counters are the closed forms.
    pub(crate) fn visits_every_machine_e_times<B: ClusterBackend>(name: &str, backend: &B) {
        let (m, p, epochs, params) = (6usize, 4usize, 3usize, 7usize);
        let cluster = cluster(p, 40);
        let visits = Mutex::new(HashMap::<(usize, usize), usize>::new());
        let (result, stats) = backend.run_w_step(
            &cluster,
            (0..m).collect::<Vec<usize>>(),
            epochs,
            params,
            |sub, machine, shard| {
                assert_eq!(shard, cluster.shard(machine), "{name}: foreign shard");
                *visits.lock().entry((*sub, machine)).or_insert(0) += 1;
            },
            None,
        );
        assert_eq!(result, (0..m).collect::<Vec<_>>(), "{name}: order kept");
        let visits = visits.lock();
        for sub in 0..m {
            for machine in 0..p {
                let seen = visits.get(&(sub, machine));
                assert_eq!(seen, Some(&epochs), "{name}: ({sub},{machine})");
            }
        }
        let hops = ring_hops(m, p, epochs);
        assert_eq!(stats.update_visits, m * p * epochs, "{name}: visits");
        assert_eq!(stats.messages_sent, hops, "{name}: messages");
        assert_eq!(stats.bytes_sent, hops * params * 8, "{name}: bytes");
    }

    /// Non-`Copy` payloads come back in the order they went in.
    pub(crate) fn returns_original_order<B: ClusterBackend>(name: &str, backend: &B) {
        let submodels: Vec<String> = (0..5).map(|i| format!("model-{i}")).collect();
        let (result, _) =
            backend.run_w_step(&cluster(3, 9), submodels.clone(), 1, 1, |_, _, _| {}, None);
        assert_eq!(result, submodels, "{name}");
    }

    /// Each visit adds the shard length: after `e` epochs every counter is
    /// `e · N`, whatever the interleaving.
    pub(crate) fn counters_accumulate<B: ClusterBackend>(name: &str, backend: &B) {
        let add_shard = |s: &mut usize, _: usize, shard: &[usize]| *s += shard.len();
        let (subs, stats) =
            backend.run_w_step(&cluster(3, 30), vec![0usize; 5], 2, 1, add_shard, None);
        assert!(subs.iter().all(|&s| s == 2 * 30), "{name}: {subs:?}");
        assert_eq!(stats.update_visits, 5 * 3 * 2, "{name}");
    }

    /// `P = 1`: a submodel "hops" to its only machine once per epoch.
    pub(crate) fn single_machine<B: ClusterBackend>(name: &str, backend: &B) {
        let (result, stats) = backend.run_w_step(
            &cluster(1, 10),
            vec![0usize; 2],
            2,
            1,
            |sub, _, _| *sub += 1,
            None,
        );
        assert_eq!(result, vec![2, 2], "{name}");
        assert_eq!(stats.update_visits, 4, "{name}");
        assert_eq!(stats.messages_sent, ring_hops(2, 1, 2), "{name}");
    }

    /// No submodels: nothing runs, nothing is counted.
    pub(crate) fn empty_list<B: ClusterBackend>(name: &str, backend: &B) {
        let (result, stats) =
            backend.run_w_step(&cluster(2, 4), Vec::<u8>::new(), 1, 1, |_, _, _| {}, None);
        assert!(result.is_empty(), "{name}");
        assert_eq!((stats.update_visits, stats.messages_sent), (0, 0), "{name}");
    }

    /// The single submodel starts at ring position 0 (machine 2) and walks a
    /// shuffled ring in ring order — stealing may move it between workers but
    /// never reorders its visits.
    pub(crate) fn shuffled_topology<B: ClusterBackend>(name: &str, backend: &B) {
        let mut cluster = cluster(4, 8);
        cluster.set_topology(RingTopology::from_order(vec![2, 0, 3, 1]));
        let seen = Mutex::new(Vec::new());
        let record = |_: &mut (), machine: usize, _: &[usize]| seen.lock().push(machine);
        backend.run_w_step(&cluster, vec![(); 1], 1, 1, record, None);
        assert_eq!(*seen.lock(), vec![2, 0, 3, 1], "{name}");
    }

    /// A machine taken out of the ring (streaming removal, §4.3) is routed
    /// around: never updated on, and the step still completes.
    pub(crate) fn removed_machine<B: ClusterBackend>(name: &str, backend: &B) {
        let mut cluster = cluster(3, 9);
        cluster.remove_machine(1);
        let seen = Mutex::new(Vec::new());
        let (result, stats) = backend.run_w_step(
            &cluster,
            vec![0usize; 2],
            2,
            1,
            |sub, machine, _| {
                *sub += 1;
                seen.lock().push(machine);
            },
            None,
        );
        assert_eq!(result, vec![4, 4], "{name}: 2 epochs x 2 live machines");
        assert_eq!(stats.update_visits, 8, "{name}");
        assert!(!seen.lock().contains(&1), "{name}: removed machine updated");
    }

    fn every_case<B: ClusterBackend>(name: &str, backend: &B) {
        visits_every_machine_e_times(name, backend);
        returns_original_order(name, backend);
        counters_accumulate(name, backend);
        single_machine(name, backend);
        empty_list(name, backend);
        shuffled_topology(name, backend);
        removed_machine(name, backend);
    }

    #[test]
    fn sim_runs_every_protocol_case() {
        every_case("sim", &SimBackend::default());
    }

    #[test]
    fn threaded_runs_every_protocol_case() {
        every_case("threaded", &ThreadedBackend::new());
    }

    #[test]
    fn pool_runs_every_protocol_case_at_1_2_and_8_workers() {
        for workers in [1usize, 2, 8] {
            let pool = PoolBackend::new().with_workers(workers);
            every_case(&format!("pool/{workers}"), &pool);
        }
    }

    #[test]
    fn server_runs_every_protocol_case() {
        every_case("server", &ServerBackend::new());
    }

    /// Regression: a panic in `update` on a step thread took its envelope
    /// with it and the step then waited forever for that envelope.
    fn update_panic_unwinds<B: ClusterBackend + Send + 'static>(name: &str, backend: B) {
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            let step = || {
                backend.run_w_step(
                    &cluster(4, 16),
                    vec![0usize, 100, 200, 300],
                    2,
                    1,
                    |s, machine, _| {
                        assert!(!(machine == 1 && *s == 1), "injected update failure");
                        *s += 1;
                    },
                    None,
                )
            };
            let _ = tx.send(catch_unwind(AssertUnwindSafe(step)).is_err());
        });
        let unwound = rx.recv_timeout(Duration::from_secs(5));
        assert_eq!(unwound, Ok(true), "{name}: W step hung or swallowed it");
    }

    #[test]
    fn update_panic_unwinds_the_step_on_threaded_pool_and_server() {
        update_panic_unwinds("threaded", ThreadedBackend::new());
        update_panic_unwinds("pool", PoolBackend::new().with_workers(2));
        update_panic_unwinds("server", ServerBackend::new());
    }
}
