//! Cross-process ring backend: the §4.3 protocol over real OS processes and
//! Unix-domain sockets.
//!
//! Every other backend lives in one address space; this one finally pushes
//! the PR-4 wire codecs across a real process boundary. The architecture is
//! coordinator-sequencer: worker processes ([`run_machined`], spawned by the
//! [`FleetLauncher`]) are the distributed ring — they hold resident shard
//! codes and route [`SubmodelEnvelope`]s by the §4.3 visit list — while the
//! coordinator (inside [`ProcessBackend`], on the trainer's thread) owns the
//! submodel parameter payloads and is the single authority that applies
//! visits. The generic update closures therefore never cross the wire, and
//! every visit is applied exactly once, in ring order per submodel — which
//! is what makes a clean run bitwise-identical to [`SimBackend`].
//!
//! Fault handling composes three mechanisms:
//! - **Detection** (launcher): process exit, control-socket EOF, or
//!   heartbeat timeout, each surfaced as a structured [`MachineDown`].
//! - **Reroute** (coordinator): on a death, every unfinished envelope gets
//!   [`SubmodelEnvelope::handle_fault`] applied to its checkpoint, a fresh
//!   *generation*, and a re-injection at the next live machine after its
//!   last applied visit. In-flight copies from before the fault carry the
//!   old generation and die (`Stale`) at their next processing stop.
//! - **Routing** (workers): `PeerDown` broadcasts let survivors route
//!   around the corpse; an unreachable successor bounces the envelope back
//!   to the coordinator (`ForwardFailed`) rather than dropping it.
//!
//! [`SimBackend`]: crate::backend::SimBackend
//! [`SubmodelEnvelope`]: crate::envelope::SubmodelEnvelope

mod frames;
mod launcher;
mod transport;
mod worker;

pub use frames::Frame;
pub use launcher::{FleetLauncher, MachineDown, MachineDownReason, MACHINED_ENV};
pub use transport::{TransportError, MAX_FRAME_LEN};
pub use worker::run_machined;

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use parmac_hash::BinaryCodes;

use crate::backend::{point_updates, shard_codes, z_stats, ClusterBackend, ZUpdate};
use crate::cost::{CostModel, WStepStats, ZStepStats};
use crate::envelope::SubmodelEnvelope;
use crate::ring;
use crate::sim::{Fault, SimCluster};

use launcher::CoordEvent;

/// Timeout and backoff knobs for the process fleet.
#[derive(Debug, Clone)]
pub struct ProcessConfig {
    /// How often the supervisor pings each worker.
    pub heartbeat_interval: Duration,
    /// Silence longer than this declares a worker dead (wedged == dead).
    pub heartbeat_timeout: Duration,
    /// Deadline for worker spawn/registration and socket connects.
    pub connect_timeout: Duration,
    /// Deadline for individual socket operations (peer connects, shard
    /// fetches).
    pub io_timeout: Duration,
    /// Hard deadline for one whole W or Z step: the no-hang guarantee. A
    /// step that cannot finish by then panics with fleet diagnostics.
    pub step_timeout: Duration,
    /// First retry delay when connecting to a peer that isn't there yet.
    pub backoff_initial: Duration,
    /// Cap on the exponential connect backoff.
    pub backoff_cap: Duration,
}

impl Default for ProcessConfig {
    fn default() -> Self {
        ProcessConfig {
            heartbeat_interval: Duration::from_millis(50),
            heartbeat_timeout: Duration::from_secs(2),
            connect_timeout: Duration::from_secs(10),
            io_timeout: Duration::from_secs(5),
            step_timeout: Duration::from_secs(60),
            backoff_initial: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(100),
        }
    }
}

/// Round id used for out-of-band code publishes (no step is waiting on the
/// acks; they are drained at the next step boundary).
const PUBLISH_ROUND: u64 = u64::MAX;

struct Inner {
    cost: CostModel,
    cfg: ProcessConfig,
    fleet: Mutex<Option<Arc<FleetLauncher>>>,
}

/// The cross-process cluster backend.
///
/// Cloning is cheap and shares the fleet, so tests keep a clone as a chaos
/// handle (`kill_process`) while the trainer owns the original — mirroring
/// the server backend's `kill_machine` pattern. The fleet is spawned lazily
/// on first use and shut down when the last clone drops.
///
/// Like the threaded and server backends, the simulator-only
/// [`Fault`](crate::sim::Fault) plan is ignored: real faults are injected
/// with [`kill_process`](Self::kill_process) (or an actual `kill -9`).
#[derive(Clone)]
pub struct ProcessBackend {
    inner: Arc<Inner>,
}

impl Default for ProcessBackend {
    fn default() -> Self {
        ProcessBackend::new()
    }
}

impl ProcessBackend {
    /// A process backend with the distributed-deployment cost model and
    /// default timeouts.
    pub fn new() -> Self {
        ProcessBackend {
            inner: Arc::new(Inner {
                cost: CostModel::default(),
                cfg: ProcessConfig::default(),
                fleet: Mutex::new(None),
            }),
        }
    }

    /// Overrides the cost model used for simulated-time statistics.
    /// Configure before first use: the builder starts a fresh (unspawned)
    /// fleet slot.
    pub fn with_cost_model(self, cost: CostModel) -> Self {
        ProcessBackend {
            inner: Arc::new(Inner {
                cost,
                cfg: self.inner.cfg.clone(),
                fleet: Mutex::new(None),
            }),
        }
    }

    /// Overrides the fleet timeout/backoff knobs. Configure before first
    /// use: the builder starts a fresh (unspawned) fleet slot.
    pub fn with_config(self, cfg: ProcessConfig) -> Self {
        ProcessBackend {
            inner: Arc::new(Inner {
                cost: self.inner.cost,
                cfg,
                fleet: Mutex::new(None),
            }),
        }
    }

    /// Chaos control mirroring the server backend's `kill_machine`: SIGKILLs
    /// worker `machine`'s process, with no shutdown handshake. Training in
    /// progress routes around the corpse via the §4.3 fault path. Returns
    /// whether a live worker was killed.
    pub fn kill_process(&self, machine: usize) -> bool {
        match self.fleet() {
            Some(fleet) => fleet.kill_worker(machine),
            None => false,
        }
    }

    /// Every structured [`MachineDown`] event observed so far.
    pub fn down_events(&self) -> Vec<MachineDown> {
        self.fleet().map(|f| f.down_events()).unwrap_or_default()
    }

    /// The machines currently known dead.
    pub fn dead_machines(&self) -> Vec<usize> {
        self.fleet()
            .map(|f| f.dead_machines().into_iter().collect())
            .unwrap_or_default()
    }

    /// Diagnostic: fetches worker `machine`'s resident shard (point ids,
    /// codes, publish sequence). Call *between* steps only — the reply is
    /// collected from the same mailbox the step protocols use. Returns
    /// `None` for a dead/unspawned worker or if nothing was ever loaded.
    pub fn fetch_shard(&self, machine: usize) -> Option<(Vec<usize>, BinaryCodes, u64)> {
        let fleet = self.fleet()?;
        fleet.drain_events();
        if !fleet.send_frame(machine, &Frame::FetchShard) {
            return None;
        }
        let deadline = Instant::now() + fleet.config().io_timeout;
        loop {
            match fleet.recv_event_deadline(deadline) {
                Ok(CoordEvent::Frame {
                    machine: _,
                    frame:
                        Frame::ShardSnapshot {
                            machine: m,
                            points,
                            codes,
                            seq,
                        },
                }) if m == machine => {
                    return if points.is_empty() {
                        None
                    } else {
                        Some((points, codes, seq))
                    };
                }
                Ok(_) => continue,
                Err(_) => return None,
            }
        }
    }

    fn fleet(&self) -> Option<Arc<FleetLauncher>> {
        self.inner.fleet.lock().as_ref().map(Arc::clone)
    }

    /// Returns the fleet, creating it on first use, with every machine in
    /// `machines` spawned and registered (dead machines stay dead).
    fn ensure_fleet(&self, machines: &[usize]) -> Arc<FleetLauncher> {
        let fleet = {
            let mut slot = self.inner.fleet.lock();
            match slot.as_ref() {
                Some(fleet) => Arc::clone(fleet),
                None => {
                    let fleet = Arc::new(
                        FleetLauncher::new(self.inner.cfg.clone())
                            .unwrap_or_else(|e| panic!("process backend: {e}")),
                    );
                    *slot = Some(Arc::clone(&fleet));
                    fleet
                }
            }
        };
        fleet
            .ensure_machines(machines)
            .unwrap_or_else(|e| panic!("process backend: {e}"));
        fleet
    }
}

/// The next live machine at-or-after ring position `start_pos`, walking the
/// ring at most once.
fn next_live(ring: &[usize], dead: &BTreeSet<usize>, start_pos: usize) -> Option<usize> {
    (0..ring.len())
        .map(|step| ring[(start_pos + step) % ring.len()])
        .find(|machine| !dead.contains(machine))
}

impl ClusterBackend for ProcessBackend {
    fn name(&self) -> &'static str {
        "process"
    }

    fn cost_model(&self) -> CostModel {
        self.inner.cost
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
        let all: Vec<usize> = cluster.topology().machines().to_vec();
        let fleet = self.ensure_fleet(&all);
        fleet.drain_events();
        let dead = fleet.dead_machines();
        // The round's ring: the live members of the topology, in topology
        // (ring) order — exactly the machine list a SimBackend reference
        // sees after `remove_machine` on the same fault schedule.
        let ring: Vec<usize> = all.iter().copied().filter(|m| !dead.contains(m)).collect();
        let p = ring.len();
        assert!(p > 0, "no live machines left in the process fleet");

        // The socket-ring driver: workers route envelope *headers*, the
        // coordinator keeps the payloads and applies every visit through the
        // shared engine, on this thread.
        ring::run_w_step(
            cluster,
            &ring,
            submodels,
            epochs,
            params_per_submodel,
            update,
            |step, seeded| {
                let m_total = seeded.len();
                let round = fleet.next_round();
                // Open the round on every live worker *before* seeding:
                // control sockets are FIFO, so each worker sees WStepBegin
                // before its seed. (Peer-forwarded envelopes can still race a
                // slow worker's WStepBegin; workers stash those and replay.)
                for &machine in &ring {
                    fleet.send_frame(
                        machine,
                        &Frame::WStepBegin {
                            round,
                            epochs,
                            ring: ring.clone(),
                        },
                    );
                }

                // Coordinator-side authoritative state. `states[id]` is the
                // visit checkpoint (every applied visit, nothing else) with
                // the payload, `gens[id]` the reroute generation,
                // `resume_pos[id]` the ring position where a re-injected
                // envelope should continue.
                let mut gens = vec![0u64; m_total];
                let mut resume_pos = Vec::with_capacity(m_total);
                let mut states = Vec::with_capacity(m_total);
                for (pos, state) in seeded {
                    fleet.send_frame(
                        ring[pos],
                        &Frame::Envelope {
                            round,
                            generation: 0,
                            envelope: state.header(),
                        },
                    );
                    resume_pos.push(pos);
                    states.push(state);
                }
                let mut finished = vec![false; m_total];
                let mut done = 0usize;
                let mut reroutes = 0usize;
                // Re-injects a checkpoint at the next machine not in `dead`
                // from ring position `from`, under an already bumped
                // generation.
                let reinject = |state: &SubmodelEnvelope<S>,
                                from: usize,
                                generation: u64,
                                dead: &BTreeSet<usize>| {
                    let target = next_live(&ring, dead, from).unwrap_or_else(|| {
                        panic!(
                            "no live machine left to route submodel {}",
                            state.submodel_id
                        )
                    });
                    fleet.send_frame(
                        target,
                        &Frame::Envelope {
                            round,
                            generation,
                            envelope: state.header(),
                        },
                    );
                };

                let deadline = Instant::now() + fleet.config().step_timeout;
                while done < m_total {
                    let event = fleet.recv_event_deadline(deadline).unwrap_or_else(|_| {
                        panic!(
                            "process W step round {round} exceeded {:?}: {done}/{m_total} \
                             submodels finished, dead={:?}, events={:?}",
                            fleet.config().step_timeout,
                            fleet.dead_machines(),
                            fleet.down_events(),
                        )
                    });
                    match event {
                        CoordEvent::Frame {
                            machine,
                            frame:
                                Frame::UpdateRequest {
                                    machine: _,
                                    round: r,
                                    generation,
                                    envelope,
                                },
                        } => {
                            let id = envelope.submodel_id;
                            if r != round || id >= m_total {
                                continue;
                            }
                            if finished[id] || generation != gens[id] {
                                // A reroute superseded this copy; tell the
                                // worker to drop it.
                                fleet.send_frame(
                                    machine,
                                    &Frame::Stale {
                                        round,
                                        submodel: id,
                                    },
                                );
                                continue;
                            }
                            let Some(pos) = ring.iter().position(|&m| m == machine) else {
                                continue;
                            };
                            // Authoritative sequencing: the coordinator
                            // applies the visit to its checkpoint.
                            let fin = step.visit(&mut states[id], machine);
                            resume_pos[id] = (pos + 1) % p;
                            if fin {
                                finished[id] = true;
                                done += 1;
                            }
                            fleet.send_frame(
                                machine,
                                &Frame::Processed {
                                    round,
                                    generation,
                                    envelope: states[id].header(),
                                    finished: fin,
                                },
                            );
                        }
                        CoordEvent::Frame {
                            machine: _,
                            frame:
                                Frame::ForwardFailed {
                                    round: r,
                                    generation,
                                    envelope,
                                },
                        } => {
                            let id = envelope.submodel_id;
                            if r != round || id >= m_total || finished[id] || generation != gens[id]
                            {
                                continue;
                            }
                            // The envelope could not move; re-inject it
                            // (fresh generation, same checkpoint).
                            gens[id] += 1;
                            reroutes += 1;
                            let dead_now = fleet.dead_machines();
                            reinject(&states[id], resume_pos[id], gens[id], &dead_now);
                        }
                        CoordEvent::Frame { .. } => {} // stray acks from publishes
                        CoordEvent::Down(down) => {
                            if !ring.contains(&down) {
                                continue;
                            }
                            // §4.3 fault path: apply the fault to every
                            // unfinished envelope's checkpoint and re-inject
                            // from the checkpoint. Old in-flight copies die
                            // as stale at their next stop.
                            let dead_now = fleet.dead_machines();
                            for id in 0..m_total {
                                if finished[id] {
                                    continue;
                                }
                                gens[id] += 1;
                                states[id].handle_fault(down, &ring, epochs);
                                if states[id].is_finished(p, epochs) {
                                    finished[id] = true;
                                    done += 1;
                                } else {
                                    reroutes += 1;
                                    reinject(&states[id], resume_pos[id], gens[id], &dead_now);
                                }
                            }
                        }
                    }
                }
                states.into_iter().for_each(|state| step.collect(state));
                reroutes
            },
        )
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
        let all: Vec<usize> = cluster.topology().machines().to_vec();
        let fleet = self.ensure_fleet(&all);
        fleet.drain_events();
        let dead = fleet.dead_machines();
        let round = fleet.next_round();

        // Solve in topology order over the live machines (identical to the
        // simulator after `remove_machine`), stream each machine's updates
        // into its worker's resident shard, and collect the acks.
        let mut all_updates = Vec::new();
        let mut pending_acks: BTreeSet<usize> = BTreeSet::new();
        for &machine in &all {
            if dead.contains(&machine) {
                continue;
            }
            let updates = solve(machine, cluster.shard(machine));
            if !updates.is_empty()
                && fleet.send_frame(
                    machine,
                    &Frame::ApplyZ {
                        round,
                        updates: updates.clone(),
                    },
                )
            {
                pending_acks.insert(machine);
            }
            all_updates.extend(updates);
        }
        let deadline = Instant::now() + fleet.config().step_timeout;
        while !pending_acks.is_empty() {
            match fleet.recv_event_deadline(deadline) {
                Ok(CoordEvent::Frame {
                    machine: _,
                    frame: Frame::ZApplied { machine, round: r },
                }) if r == round => {
                    pending_acks.remove(&machine);
                }
                Ok(CoordEvent::Down(down)) => {
                    // A machine that died after its solve keeps its updates
                    // in the returned batch (the coordinator's codes are
                    // authoritative); only its replica ack is waived.
                    pending_acks.remove(&down);
                }
                Ok(_) => {}
                Err(_) => panic!(
                    "process Z step round {round} exceeded {:?} awaiting acks from \
                     {pending_acks:?}",
                    fleet.config().step_timeout
                ),
            }
        }
        (all_updates, z_stats(cluster, n_submodels, start))
    }

    fn publish_codes(&self, cluster: &SimCluster, codes: &BinaryCodes) {
        let all: Vec<usize> = cluster.topology().machines().to_vec();
        let fleet = self.ensure_fleet(&all);
        let dead = fleet.dead_machines();
        let seq = fleet.next_seq();
        for &machine in &all {
            if dead.contains(&machine) {
                continue;
            }
            let (points, codes) = shard_codes(cluster, machine, codes);
            fleet.send_frame(machine, &Frame::LoadShard { points, codes, seq });
        }
    }

    fn publish_point_codes(&self, machine: usize, points: &[usize], codes: &BinaryCodes) {
        // Incremental publish into one worker's resident shard. A freshly
        // streamed-in machine (§4.3) may not have a worker yet — spawn it so
        // the delta lands somewhere.
        let fleet = self.ensure_fleet(&[machine]);
        fleet.send_frame(
            machine,
            &Frame::ApplyZ {
                round: PUBLISH_ROUND,
                updates: point_updates(points, codes),
            },
        );
    }
}
