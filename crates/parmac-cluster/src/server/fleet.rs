//! The resident fleet: the machine actors, which of them host which shard,
//! their health as the router sees it, and the self-healing rebalancer.

use super::machine::serving_actor;
use super::{MachineMsg, ReplicationConfig};
use crate::backend::ZUpdate;
use crate::waits;
use crossbeam_channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, AtomicUsize};
use std::sync::{Arc, Weak};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How long the drop/kill paths wait for an actor thread to exit before
/// abandoning it. A wedged actor (sleeping in a scan, or chaos-wedged) must
/// never block shutdown forever.
pub(super) const SHUTDOWN_GRACE: Duration = Duration::from_millis(500);

/// How long a synchronous rebalance (`rebalance_once`) waits for the
/// rebalance actor to acknowledge its pass. A pass is internally bounded by
/// the replication config's timeouts, so this only trips when the fleet is
/// pathologically wedged — the caller then proceeds and the pass completes
/// asynchronously.
const REBALANCE_SYNC_GRACE: Duration = Duration::from_secs(10);

struct MachineHandle {
    tx: Sender<MachineMsg>,
    thread: Option<JoinHandle<()>>,
}

/// One trigger for the rebalance actor. `ack` carries the synchronous
/// callers (`rebalance_once`): the actor signals it after the pass that
/// served the trigger completes.
struct RebalanceCmd {
    ack: Option<Sender<()>>,
}

/// The lazily spawned rebalance actor: its mailbox plus the join handle the
/// fleet uses for bounded shutdown.
struct RebalanceHandle {
    tx: Sender<RebalanceCmd>,
    thread: Option<JoinHandle<()>>,
}

/// The self-healing rebalance actor loop: every pass runs on this one
/// long-lived thread, so passes are serialised by construction — no mutex
/// is held across the snapshot fetches and installs a pass performs.
/// Triggers that arrive while a pass runs coalesce into the next pass (each
/// keeps its ack). Holds only a weak fleet reference, so it can never keep
/// a dropped backend's fleet alive; it exits when the fleet is gone or
/// every trigger sender has been dropped.
fn rebalance_actor(fleet: &Weak<Fleet>, rx: &Receiver<RebalanceCmd>) {
    while let Ok(first) = waits::recv_bounded(rx, waits::IDLE_TICK) {
        let mut acks = Vec::new();
        let mut next = Some(first);
        while let Some(cmd) = next {
            if let Some(ack) = cmd.ack {
                acks.push(ack);
            }
            next = rx.try_recv().ok();
        }
        let Some(fleet) = fleet.upgrade() else { return };
        fleet.rebalance_pass();
        // The pass may have upgraded the last reference; dropping it here
        // runs `Fleet::drop` on this very thread, which is why that drop
        // never joins the rebalance thread from itself.
        drop(fleet);
        for ack in acks {
            let _ = ack.send(());
        }
    }
}

/// Per-machine health as seen by the router's failover path.
#[derive(Debug, Clone, Copy, Default)]
struct MachineHealth {
    consecutive_failures: u32,
    dead: bool,
}

/// A snapshot of the fleet's replication health (see
/// [`ServerBackend::fleet_status`](super::ServerBackend::fleet_status)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetStatus {
    /// The configured replication factor.
    pub target_replicas: usize,
    /// Machines with a live (not dead-marked) actor.
    pub live_machines: usize,
    /// Machines marked dead by the health tracker (killed, or past the
    /// failure threshold).
    pub dead_machines: usize,
    /// Resident shards (the coverage denominator).
    pub shards: usize,
    /// Shards with fewer live hosts than `min(target_replicas,
    /// live_machines)` — what the rebalancer works through.
    pub under_replicated: Vec<usize>,
}

impl FleetStatus {
    /// `true` once every shard has its target number of live replicas.
    pub fn is_fully_replicated(&self) -> bool {
        self.under_replicated.is_empty()
    }
}

/// Joins a finished actor thread, abandoning it after `grace` if it is
/// wedged: the thread then keeps running detached until its mailbox
/// disconnects (all senders dropped) and it drains to Shutdown.
pub(super) fn join_bounded(thread: JoinHandle<()>, grace: Duration) {
    let deadline = Instant::now() + grace;
    while Instant::now() < deadline {
        if thread.is_finished() {
            let _ = thread.join();
            return;
        }
        thread::sleep(Duration::from_millis(2));
    }
}

/// The resident machine fleet: one long-lived actor per machine, shared by
/// the backend and every [`QueryRouter`] cloned from it, plus the
/// replication state — which machines host which shard, per-machine health,
/// and the failover/degraded counters.
///
/// Lock order (outer to inner): `assignments` → `machines` → `health`.
/// Most paths take one lock at a time, and no lock is ever held across a
/// blocking channel operation.
#[derive(Default)]
pub(super) struct Fleet {
    machines: Mutex<BTreeMap<usize, MachineHandle>>,
    pub(super) replication: Mutex<ReplicationConfig>,
    /// shard → hosting machines. The publisher reads this to fan updates to
    /// every replica; the router reads it to plan fan-outs.
    pub(super) assignments: Mutex<BTreeMap<usize, Vec<usize>>>,
    health: Mutex<BTreeMap<usize, MachineHealth>>,
    /// The lazily spawned self-healing rebalance actor. Passes run only on
    /// its thread, which serialises them by construction; the lock guards
    /// only the handle, never a pass.
    rebalancer: Mutex<Option<RebalanceHandle>>,
    /// Publish-sequence clock. Every `publish_codes` pass stamps its
    /// `LoadShard`s with the next value; replica snapshots inherit the seq
    /// of the data they captured, so an actor can reject an install that
    /// raced a newer authoritative publish — ordering replaces the old
    /// publish-vs-rebalance mutex.
    pub(super) publish_seq: AtomicU64,
    /// Read-balancing cursor: successive fan-outs rotate which replica of a
    /// shard is tried first.
    pub(super) rr: AtomicUsize,
    /// Shard attempts that were retried on an alternate replica.
    pub(super) failovers: AtomicU64,
    /// Fan-outs that returned with partial coverage.
    pub(super) degraded: AtomicU64,
}

impl Fleet {
    /// Sends `msg` to `machine`, spawning its actor on first contact. Only
    /// the *publish* paths use this: an authoritative `LoadShard` (or the
    /// legacy streaming path) legitimately brings a machine into existence.
    pub(super) fn send_spawning(&self, machine: usize, msg: MachineMsg) {
        // Clone the mailbox sender inside the guard scope, send after: an
        // actor blocked on a full downstream channel must never be able to
        // wedge a thread that is holding the machine-table lock.
        let tx = {
            let mut map = self.machines.lock();
            map.entry(machine)
                .or_insert_with(|| spawn_actor(machine))
                .tx
                .clone()
        };
        let _ = tx.send(msg);
    }

    /// Sends `msg` to `machine` only if its actor exists. The query/update
    /// fan-outs use this: a killed machine must *not* be resurrected as an
    /// empty actor that would serve partial shards as complete.
    pub(super) fn send_if_resident(&self, machine: usize, msg: MachineMsg) -> Result<(), ()> {
        // Same guard discipline as `send_spawning`: never send while holding
        // the machine-table lock.
        let tx = {
            let map = self.machines.lock();
            map.get(&machine).map(|handle| handle.tx.clone())
        };
        match tx {
            Some(tx) => tx.send(msg).map_err(|_| ()),
            None => Err(()),
        }
    }

    pub(super) fn n_machines(&self) -> usize {
        self.machines.lock().len()
    }

    // ---- health tracking ----

    /// Records one failed interaction. Returns `true` if this crossed the
    /// failure threshold and newly marked the machine dead.
    pub(super) fn record_failure(&self, machine: usize) -> bool {
        let threshold = self.replication.lock().failure_threshold;
        let mut health = self.health.lock();
        let entry = health.entry(machine).or_default();
        entry.consecutive_failures = entry.consecutive_failures.saturating_add(1);
        if !entry.dead && entry.consecutive_failures >= threshold {
            entry.dead = true;
            true
        } else {
            false
        }
    }

    /// Records a successful interaction: clears the failure streak and
    /// revives a dead-marked machine (probe-based recovery — a wedged actor
    /// that answers again is live again).
    pub(super) fn record_success(&self, machine: usize) {
        let mut health = self.health.lock();
        let entry = health.entry(machine).or_default();
        entry.consecutive_failures = 0;
        entry.dead = false;
    }

    fn mark_dead(&self, machine: usize) {
        let threshold = self.replication.lock().failure_threshold;
        let mut health = self.health.lock();
        let entry = health.entry(machine).or_default();
        entry.consecutive_failures = threshold;
        entry.dead = true;
    }

    pub(super) fn dead_set(&self) -> BTreeSet<usize> {
        self.health
            .lock()
            .iter()
            .filter(|(_, h)| h.dead)
            .map(|(&m, _)| m)
            .collect()
    }

    /// Machines with a resident actor that are not dead-marked.
    fn live_set(&self) -> BTreeSet<usize> {
        let with_handle: BTreeSet<usize> = self.machines.lock().keys().copied().collect();
        let dead = self.dead_set();
        with_handle.difference(&dead).copied().collect()
    }

    // ---- replication plumbing ----

    /// Fans one shard's incremental updates to every host of the shard. If
    /// the shard has no assignment yet (legacy streaming to a brand-new
    /// machine), the shard's namesake machine becomes its first host.
    pub(super) fn publish_shard_updates(&self, shard: usize, mut updates: Vec<ZUpdate>) {
        let (hosts, fresh) = {
            let mut assignments = self.assignments.lock();
            match assignments.get(&shard) {
                Some(hosts) => (hosts.clone(), false),
                None => {
                    assignments.insert(shard, vec![shard]);
                    (vec![shard], true)
                }
            }
        };
        for (i, &host) in hosts.iter().enumerate() {
            let payload = if i + 1 == hosts.len() {
                std::mem::take(&mut updates)
            } else {
                updates.clone()
            };
            let msg = MachineMsg::ApplyUpdates {
                shard,
                updates: payload,
            };
            if fresh {
                // The legacy streaming path may be creating this machine.
                self.send_spawning(host, msg);
            } else {
                let _ = self.send_if_resident(host, msg);
            }
        }
    }

    /// Computes the fleet's replication status snapshot.
    pub(super) fn status(&self) -> FleetStatus {
        let target_replicas = self.replication.lock().replicas;
        let live = self.live_set();
        let dead = self.dead_set();
        let assignments = self.assignments.lock().clone();
        let under_replicated = assignments
            .iter()
            .filter(|(_, hosts)| {
                let live_hosts = hosts.iter().filter(|h| live.contains(h)).count();
                live_hosts < target_replicas.min(live.len())
            })
            .map(|(&shard, _)| shard)
            .collect();
        FleetStatus {
            target_replicas,
            live_machines: live.len(),
            dead_machines: dead.len(),
            shards: assignments.len(),
            under_replicated,
        }
    }

    /// The rebalance actor's mailbox, spawning the actor on first use. The
    /// thread holds only a weak reference, so it cannot keep a dropped
    /// backend's fleet alive indefinitely.
    fn rebalance_tx(self: &Arc<Self>) -> Sender<RebalanceCmd> {
        let mut guard = self.rebalancer.lock();
        let handle = guard.get_or_insert_with(|| {
            let weak = Arc::downgrade(self);
            let (tx, rx) = unbounded();
            let thread = thread::Builder::new()
                .name("parmac-rebalance".into())
                .spawn(move || rebalance_actor(&weak, &rx))
                .ok();
            RebalanceHandle { tx, thread }
        });
        handle.tx.clone()
    }

    /// Wakes the self-healing rebalancer (fire-and-forget). Back-to-back
    /// notifications coalesce into a single pass on the rebalance actor.
    pub(super) fn notify_rebalance(self: &Arc<Self>) {
        let _ = self.rebalance_tx().send(RebalanceCmd { ack: None });
    }

    /// One synchronous rebalancing pass: triggers the rebalance actor and
    /// waits (bounded) for it to acknowledge a pass that started after this
    /// call. If the fleet is badly wedged the wait gives up — the pass
    /// still happens, just asynchronously.
    pub(super) fn rebalance_once(self: &Arc<Self>) {
        let (ack_tx, ack_rx) = unbounded();
        let _ = self.rebalance_tx().send(RebalanceCmd { ack: Some(ack_tx) });
        let _ = ack_rx.recv_timeout(REBALANCE_SYNC_GRACE);
    }

    // lint: actor-region — the rebalancer runs on the dedicated rebalance
    // actor thread; a panic here silently stops self-healing.

    /// One rebalancing pass: prune hosts whose actor is gone, re-replicate
    /// every under-replicated shard from a live donor onto the least-loaded
    /// live machine, and trim over-replicated shards. Runs only on the
    /// rebalance actor thread, which serialises passes against each other;
    /// racing a publish is safe because installs are seq-ordered (see
    /// `Fleet::publish_seq`).
    fn rebalance_pass(self: &Arc<Self>) {
        let config = *self.replication.lock();
        let shard_list: Vec<usize> = self.assignments.lock().keys().copied().collect();
        for shard in shard_list {
            self.rebalance_shard(shard, &config);
        }
    }

    fn rebalance_shard(self: &Arc<Self>, shard: usize, config: &ReplicationConfig) {
        // Prune hosts whose actor no longer exists (killed machines were
        // already purged, but a failed install can leave strays).
        let with_handle: BTreeSet<usize> = self.machines.lock().keys().copied().collect();
        {
            let mut assignments = self.assignments.lock();
            if let Some(hosts) = assignments.get_mut(&shard) {
                hosts.retain(|h| with_handle.contains(h));
            }
        }
        loop {
            let live = self.live_set();
            let target = config.replicas.min(live.len());
            let hosts = self
                .assignments
                .lock()
                .get(&shard)
                .cloned()
                .unwrap_or_default();
            let live_hosts = hosts.iter().filter(|h| live.contains(h)).count();
            if hosts.len() > target.max(live_hosts) {
                // Over-replicated: drop a dead-marked host first, else the
                // most recently added one.
                // `hosts` cannot be empty in this branch (its length exceeds
                // a non-negative target), but never panic the rebalancer on
                // it — a missing victim just ends the trim.
                let victim = hosts
                    .iter()
                    .copied()
                    .find(|h| !live.contains(h))
                    .or_else(|| hosts.last().copied());
                let Some(victim) = victim else { return };
                if let Some(hosts) = self.assignments.lock().get_mut(&shard) {
                    hosts.retain(|&h| h != victim);
                }
                let _ = self.send_if_resident(victim, MachineMsg::DropShard { shard });
                continue;
            }
            if live_hosts >= target {
                return;
            }
            // Under-replicated: pick the live machine hosting the fewest
            // shards that does not already host this one (smallest id wins
            // ties — deterministic placement).
            let load: BTreeMap<usize, usize> = {
                let assignments = self.assignments.lock();
                let mut load: BTreeMap<usize, usize> = live.iter().map(|&m| (m, 0usize)).collect();
                for hosts in assignments.values() {
                    for h in hosts {
                        if let Some(count) = load.get_mut(h) {
                            *count += 1;
                        }
                    }
                }
                load
            };
            let candidate = load
                .iter()
                .filter(|(m, _)| !hosts.contains(m))
                .min_by_key(|(&m, &count)| (count, m))
                .map(|(&m, _)| m);
            let Some(candidate) = candidate else { return };
            // Prefer a live donor; a dead-marked one (wedged, not killed)
            // still holds correct bytes and is better than losing the shard.
            let donor = hosts
                .iter()
                .copied()
                .find(|h| live.contains(h))
                .or_else(|| hosts.first().copied());
            let Some(donor) = donor else { return };
            if !self.replicate(shard, donor, candidate, config) {
                return;
            }
        }
    }

    /// Copies `shard` from `donor` onto `candidate` with the stash-and-replay
    /// protocol: `ExpectReplica` first, *then* record the assignment (so
    /// every update published from now on reaches the candidate's stash),
    /// then fetch the donor's snapshot and install it. Returns `false` if
    /// the copy failed (the assignment is rolled back).
    fn replicate(
        self: &Arc<Self>,
        shard: usize,
        donor: usize,
        candidate: usize,
        config: &ReplicationConfig,
    ) -> bool {
        if self
            .send_if_resident(candidate, MachineMsg::ExpectReplica { shard })
            .is_err()
        {
            return false;
        }
        if let Some(hosts) = self.assignments.lock().get_mut(&shard) {
            hosts.push(candidate);
        }
        let (snap_tx, snap_rx) = unbounded();
        let fetch = MachineMsg::FetchShard {
            shard,
            reply: snap_tx,
        };
        let installed = self.send_if_resident(donor, fetch).is_ok()
            && match snap_rx.recv_timeout(config.query_deadline) {
                Ok(Some((points, codes, seq))) => {
                    let install = MachineMsg::InstallReplica {
                        shard,
                        points,
                        codes,
                        seq,
                    };
                    self.send_if_resident(candidate, install).is_ok()
                }
                Ok(None) => false,
                Err(_) => {
                    if self.record_failure(donor) {
                        self.notify_rebalance();
                    }
                    false
                }
            };
        if installed {
            self.record_success(donor);
        } else {
            if let Some(hosts) = self.assignments.lock().get_mut(&shard) {
                if let Some(pos) = hosts.iter().rposition(|&h| h == candidate) {
                    hosts.remove(pos);
                }
            }
            let _ = self.send_if_resident(candidate, MachineMsg::DropShard { shard });
        }
        installed
    }
    // lint: end-actor-region

    // ---- chaos / lifecycle controls ----

    /// Kills a machine: its actor is shut down (bounded join) and it is
    /// removed from every shard assignment and marked dead, so no query or
    /// update is routed to a resurrected empty actor. Wakes the rebalancer.
    pub(super) fn kill_machine(self: &Arc<Self>, machine: usize) {
        let handle = self.machines.lock().remove(&machine);
        if let Some(mut handle) = handle {
            let _ = handle.tx.send(MachineMsg::Shutdown);
            drop(handle.tx);
            if let Some(thread) = handle.thread.take() {
                join_bounded(thread, SHUTDOWN_GRACE);
            }
        }
        for hosts in self.assignments.lock().values_mut() {
            hosts.retain(|&h| h != machine);
        }
        self.mark_dead(machine);
        self.notify_rebalance();
    }

    /// Restores a machine: spawns a fresh actor if none exists, probes it
    /// (`Ping` with the replica timeout), and on a pong marks it live and
    /// runs a synchronous rebalance so under-replicated shards land on it.
    /// Returns `false` if the probe timed out (the machine stays dead).
    pub(super) fn restore_machine(self: &Arc<Self>, machine: usize) -> bool {
        self.machines
            .lock()
            .entry(machine)
            .or_insert_with(|| spawn_actor(machine));
        let (pong_tx, pong_rx) = unbounded();
        let timeout = self.replication.lock().replica_timeout;
        if self
            .send_if_resident(machine, MachineMsg::Ping { reply: pong_tx })
            .is_err()
        {
            return false;
        }
        match pong_rx.recv_timeout(timeout) {
            Ok(_) => {
                self.record_success(machine);
                self.rebalance_once();
                true
            }
            Err(_) => {
                self.mark_dead(machine);
                false
            }
        }
    }
}

fn spawn_actor(machine: usize) -> MachineHandle {
    let (tx, rx) = unbounded();
    // Spawn failure (thread exhaustion) must not panic the caller — it can
    // be a serving thread. On failure the closure (owning `rx`) is dropped,
    // so the mailbox is born disconnected: every send to this machine fails,
    // the health tracker marks it dead and failover covers its shards.
    let thread = thread::Builder::new()
        .name(format!("parmac-serve-{machine}"))
        .spawn(move || serving_actor(machine, rx))
        .ok();
    MachineHandle { tx, thread }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        // Stop the rebalance actor first so no pass races the machine
        // teardown. The handle is hoisted out of the lock (an `if let`
        // scrutinee would keep `rebalancer` locked across the join), and
        // the join is skipped when this drop runs *on* the rebalance thread
        // itself — the pass that upgraded the last weak reference drops it
        // there, and a self-join would deadlock. In that case the thread is
        // detached and exits on its own once its mailbox disconnects.
        let rebalancer = self.rebalancer.lock().take();
        if let Some(mut handle) = rebalancer {
            drop(handle.tx);
            if let Some(thread) = handle.thread.take() {
                if thread.thread().id() != thread::current().id() {
                    join_bounded(thread, SHUTDOWN_GRACE);
                }
            }
        }
        // Take ownership of the machine table so no lock is held across the
        // shutdown sends and joins.
        let map = std::mem::take(&mut *self.machines.lock());
        for handle in map.values() {
            let _ = handle.tx.send(MachineMsg::Shutdown);
        }
        // Bounded shutdown: join actors that exit within the grace period,
        // abandon the wedged ones (their mailboxes disconnect when the
        // handles drop, so they exit on their own once they wake).
        let deadline = Instant::now() + SHUTDOWN_GRACE;
        for (_, mut handle) in map {
            drop(handle.tx);
            if let Some(thread) = handle.thread.take() {
                let grace = deadline.saturating_duration_since(Instant::now());
                join_bounded(thread, grace);
            }
        }
    }
}
