//! The channel-ring driver of the W step: one OS thread per machine.
//!
//! One thread plays the role of each machine and the unidirectional ring is
//! a set of crossbeam channels, one inbox per ring position; each machine
//! runs the asynchronous loop of §4.1: *"extract a submodel from the queue,
//! process it (except in epoch e+1) and send it to the machine's successor"*.
//! The protocol itself — seeding, the visit transition, collection, the
//! statistics — is [`ring`](crate::ring); this file only delivers envelopes.
//!
//! [`ThreadedBackend`](crate::backend::ThreadedBackend) and
//! [`ServerBackend`](crate::server::ServerBackend) both train through it.

use crate::cost::WStepStats;
use crate::envelope::SubmodelEnvelope;
use crate::ring;
use crate::sim::SimCluster;
use crate::waits;
use crossbeam_channel::unbounded;
use std::thread;

/// Runs one W step of `cluster`'s ring on one scoped thread per machine.
/// `update` is called concurrently from several threads (for *different*
/// submodels), hence `Sync`. Simulated time is not charged (use
/// [`SimCluster::run_w_step`] for that); wall-clock time is measured.
///
/// # Panics
///
/// Panics if `epochs == 0`, and re-raises a panic of `update`.
pub(crate) fn run_w_step_threaded<S, F>(
    cluster: &SimCluster,
    submodels: Vec<S>,
    epochs: usize,
    params_per_submodel: usize,
    update: F,
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
            // An inbox carries envelopes; `None` tells its machine to stop.
            let (inboxes, receivers): (Vec<_>, Vec<_>) = (0..p)
                .map(|_| unbounded::<Option<SubmodelEnvelope<S>>>())
                .unzip();
            for (pos, env) in seeded {
                // Cannot fail: the receiver is alive in `receivers`.
                let _ = inboxes[pos].send(Some(env));
            }
            let shutdown = || {
                for inbox in &inboxes {
                    let _ = inbox.send(None);
                }
            };
            thread::scope(|scope| {
                for (pos, rx) in receivers.into_iter().enumerate() {
                    let (machine, inboxes, shutdown) = (machines[pos], &inboxes, &shutdown);
                    scope.spawn(move || {
                        let _guard = step.unwind_guard(shutdown);
                        while let Ok(Some(mut env)) = waits::recv_bounded(&rx, waits::IDLE_TICK) {
                            if step.is_done() {
                                break; // a peer unwound: stop, don't train on
                            }
                            if step.visit(&mut env, machine) {
                                step.collect(env);
                                if step.is_done() {
                                    shutdown();
                                }
                            } else {
                                // A send only fails once a peer has unwound
                                // and dropped its inbox; the step is aborting.
                                let _ = inboxes[(pos + 1) % p].send(Some(env));
                            }
                        }
                    });
                }
            });
            0
        },
    )
}

// The W-step cases live in the protocol table (`ring::tests`); these are its
// threaded cells by their old names.
#[cfg(test)]
mod tests {
    use crate::backend::ThreadedBackend;
    use crate::ring::tests as protocol;

    #[test]
    fn every_submodel_is_updated_on_every_machine_each_epoch() {
        protocol::visits_every_machine_e_times("threaded", &ThreadedBackend::new());
    }

    #[test]
    fn submodels_return_in_original_order() {
        protocol::returns_original_order("threaded", &ThreadedBackend::new());
    }

    #[test]
    fn counters_accumulate_across_machines() {
        protocol::counters_accumulate("threaded", &ThreadedBackend::new());
    }

    #[test]
    fn works_with_single_machine() {
        protocol::single_machine("threaded", &ThreadedBackend::new());
    }

    #[test]
    fn empty_submodel_list_is_a_noop() {
        protocol::empty_list("threaded", &ThreadedBackend::new());
    }

    #[test]
    fn shuffled_topology_is_respected() {
        protocol::shuffled_topology("threaded", &ThreadedBackend::new());
    }
}
