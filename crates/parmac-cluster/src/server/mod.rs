//! Sharded-server backend: the threaded ring **plus a resident serving
//! fleet**, so training and retrieval run in the same process, with shard
//! replication, failover routing and health-tracked self-healing.
//!
//! ParMAC's data layout — every machine keeps its shard and its slice of the
//! auxiliary codes forever, only submodels move — is exactly the shape of a
//! serving fleet. [`ServerBackend`] *holds* one and otherwise trains like
//! [`ThreadedBackend`](crate::backend::ThreadedBackend):
//!
//! * **Training** — the W step is the channel ring over scoped per-machine
//!   threads and the Z step the thread-per-shard fan-out, both shared with
//!   the threaded backend, so weights and codes are bitwise identical to
//!   every other backend. After the Z step each machine's changed codes are
//!   mirrored into the fleet (`ApplyUpdates`, to every replica of the
//!   shard); nothing else of training ever enters an actor's mailbox.
//! * **Retrieval** — [`Query`]/[`QueryReply`] over the typed mailbox
//!   protocol ([`MachineMsg`]): each machine actor owns a copy of its shards'
//!   binary codes and answers Hamming k-NN queries *while training runs*.
//!   [`QueryRouter`] fans a query batch out to the machines hosting the
//!   shards and merges the per-shard top-k
//!   ([`parmac_retrieval::merge_shard_topk`]) into exactly the answer a
//!   single-process [`hamming_knn`](parmac_retrieval::hamming_knn) over the
//!   concatenated shards would give.
//!
//! # Replication and failover
//!
//! A [`ReplicationConfig`] places each shard's codes on `replicas` distinct
//! machine actors. The same `LoadShard`/`ApplyUpdates` messages that keep a
//! single copy fresh through training publishes flow to *every* host of the
//! shard, so replicas stay bitwise identical. The router's fan-out
//! read-balances across live replicas (a rotating cursor) and **fails over**
//! to an alternate replica when a machine is dead (its mailbox is
//! disconnected — detected instantly) or wedged (no reply within
//! `replica_timeout`); the whole fan-out is bounded by `query_deadline`, so
//! a wedged actor can never hang a query. Consecutive failures mark a
//! machine dead in the health tracker; a dead machine is only tried as a
//! last resort, and any successful reply (or an explicit
//! [`ServerBackend::restore_machine`] probe) revives it.
//!
//! Every `knn`-family answer is **coverage-aware**: a [`KnnResponse`]
//! carries [`Coverage`] (shards answered / shards total), so a degraded
//! answer is explicit, never a silently shorter candidate list.
//!
//! Machine deaths wake a rebalancer that re-replicates under-replicated
//! shards onto the least-loaded live machines: the new host is told to
//! expect the shard (`ExpectReplica`), the assignment is recorded so
//! concurrent training publishes start flowing to it (stashed until the
//! snapshot lands), a live replica donates a snapshot (`FetchShard`), and
//! `InstallReplica` installs it and replays the stash. Because the trainer
//! publishes from a single thread and mailboxes are FIFO, the replayed
//! stream is a contiguous suffix of the update stream — stale re-applications
//! are always superseded, so a rebalanced replica converges to the same
//! bytes as its donor even when the copy races training.
//!
//! # Thread structure
//!
//! A serving machine is **one thread that owns its shards** (§4): the actor,
//! spawned by the first [`publish_codes`] that names the machine, holds
//! every replica it hosts — codes and index — outright, and a query never
//! leaves the thread whose mailbox received it. To use more cores, run more
//! machines (§8.5). A resident fleet of `P` machines is `P` actor threads
//! plus at most one admission loop and one rebalancer, each spawned on
//! first use — nothing else — all kept until the backend is dropped (the
//! drop path is bounded: a wedged actor is abandoned after a grace period,
//! never joined forever). The training steps run on scoped threads that end
//! with the step. Both populations share machine ids and shard layout.
//!
//! [`publish_codes`]: crate::backend::ClusterBackend::publish_codes

use crate::backend::{
    point_updates, shard_codes, solve_per_shard, z_stats, ClusterBackend, ZUpdate,
};
use crate::cost::{CostModel, WStepStats, ZStepStats};
use crate::sim::{Fault, SimCluster};
use crate::threaded::run_w_step_threaded;
use crossbeam_channel::Sender;
use parmac_hash::BinaryCodes;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

mod fleet;
mod machine;
mod router;

pub use fleet::FleetStatus;
pub use router::{AdmissionConfig, AdmissionError, QueryRouter, ServingStats};

/// Replication and failover knobs of the serving fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationConfig {
    /// How many distinct machines host each shard's codes (capped at the
    /// fleet size). 1 is the unreplicated layout: a dead machine degrades
    /// coverage until the trainer republishes.
    pub replicas: usize,
    /// How long one failover wave waits for a machine's reply before trying
    /// the next replica. A *dead* machine (disconnected mailbox) is detected
    /// instantly and never costs this wait; only a wedged-but-alive actor
    /// does.
    pub replica_timeout: Duration,
    /// Total budget of one fan-out across all failover waves: a query
    /// returns (possibly with degraded coverage) within this bound no matter
    /// how many machines are wedged.
    pub query_deadline: Duration,
    /// Consecutive failures (timeouts on a fan-out wave, or a failed probe)
    /// after which a machine is marked dead. Dead machines are skipped by
    /// read-balancing (tried only as a last resort) and trigger the
    /// rebalancer.
    pub failure_threshold: u32,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        ReplicationConfig {
            replicas: 1,
            replica_timeout: Duration::from_millis(250),
            query_deadline: Duration::from_secs(2),
            failure_threshold: 2,
        }
    }
}

/// How much of the fleet answered one fan-out: `shards_answered` of
/// `shards_total` resident shards contributed their top-k to the merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Coverage {
    /// Shards that contributed an answer.
    pub shards_answered: usize,
    /// Shards the fleet holds (the denominator of the coverage contract).
    pub shards_total: usize,
}

impl Coverage {
    /// `true` when every resident shard answered — the result is exactly the
    /// single-process answer. Vacuously `true` on an empty fleet.
    pub fn is_full(&self) -> bool {
        self.shards_answered == self.shards_total
    }

    /// Answered fraction in `[0, 1]` (1.0 on an empty fleet).
    pub fn fraction(&self) -> f64 {
        if self.shards_total == 0 {
            1.0
        } else {
            self.shards_answered as f64 / self.shards_total as f64
        }
    }
}

/// A coverage-aware k-NN answer: the per-query neighbour lists plus how much
/// of the fleet produced them. A degraded answer (machines down past the
/// replication factor) is explicit — callers that require exactness gate on
/// [`Coverage::is_full`] or use [`expect_full`](Self::expect_full).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KnnResponse {
    /// Per query: the merged global top-k over every answering shard.
    pub answers: Vec<Vec<usize>>,
    /// How many shards answered.
    pub coverage: Coverage,
}

impl KnnResponse {
    /// The answers, asserting full coverage.
    ///
    /// # Panics
    ///
    /// Panics if the answer is degraded (some shard did not answer).
    pub fn expect_full(self) -> Vec<Vec<usize>> {
        assert!(
            self.coverage.is_full(),
            "degraded k-NN answer: coverage {}/{}",
            self.coverage.shards_answered,
            self.coverage.shards_total
        );
        self.answers
    }

    /// `true` when at least one resident shard did not answer.
    pub fn is_degraded(&self) -> bool {
        !self.coverage.is_full()
    }
}

/// A Hamming k-NN query fanned out to machines hosting the requested shards.
///
/// The wire-serialisable request payload is [`wire`](crate::wire)'s
/// `WireQuery`; in-process the query carries its reply channel.
pub struct Query {
    /// The query codes (shared across the fan-out, one allocation total).
    pub queries: Arc<BinaryCodes>,
    /// Which resident shards this machine should answer for. Shards it does
    /// not host come back in [`QueryReply::missing`] so the router can retry
    /// them on another replica.
    pub shards: Vec<usize>,
    /// How many neighbours each shard should return (its shard top-k).
    pub k: usize,
    /// Per-query probe budget for the machine's prefix index: `None` is
    /// exact mode, `Some(b)` stops each query after `b` non-empty buckets
    /// (see [`parmac_retrieval::PrefixIndex::topk_batched`]).
    pub probes: Option<usize>,
    /// Where the machine sends its [`QueryReply`].
    pub reply: Sender<QueryReply>,
}

/// One shard's per-query hit lists: ascending `(Hamming distance, global
/// point index)` pairs, at most `k` per query.
pub type ShardHits = Vec<Vec<(u32, usize)>>;

/// One machine's answer to a [`Query`]: per requested shard, either that
/// shard's top-k per query or a "not resident here" marker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryReply {
    /// The answering machine (the replica identity).
    pub machine: usize,
    /// Per answered shard: `(shard id, per-query hits)`.
    pub answered: Vec<(usize, ShardHits)>,
    /// Requested shards this machine does not host (the router retries them
    /// on an alternate replica).
    pub missing: Vec<usize>,
}

/// One machine's share of a Z step's result: the wire form of a shard's
/// updates (see [`wire`](crate::wire)).
#[derive(Debug, Clone, PartialEq)]
pub struct ZShardUpdates {
    /// The machine whose shard was solved.
    pub machine: usize,
    /// The changed codes, in shard order.
    pub updates: Vec<ZUpdate>,
}

/// The typed mailbox protocol of a serving-fleet machine: retrieval, shard
/// placement and the replica-installation handshake. Training never enters a
/// mailbox — the W and Z steps run on the threaded ring and the shard-parallel
/// Z fan-out, and only their *results* arrive here as `ApplyUpdates`.
// lint: wire-protocol — every variant must be codec'd, declared tag-only,
// or explicitly local-only (checked by the wire-symmetry pass).
pub enum MachineMsg {
    /// Retrieval: answer a Hamming k-NN query from the requested shards.
    /// Crosses the wire as [`WireQuery`](crate::wire::WireQuery); the reply
    /// channel is transport-level routing.
    // lint: wire(WireQuery)
    Query(Query),
    /// Authoritatively (re)place one shard's codes on this machine. Clears
    /// any pending replica-installation state for the shard.
    LoadShard {
        /// The shard being placed.
        shard: usize,
        /// Global indices of the points in the shard.
        points: Vec<usize>,
        /// Their binary codes, one row per point, in `points` order.
        codes: BinaryCodes,
        /// The publish-sequence stamp (see `Fleet::publish_seq`). An actor
        /// ignores a `LoadShard` older than the shard data it already holds.
        seq: u64,
    },
    /// Rebalancer: a replica snapshot fetched from a live donor. Installs it
    /// and replays updates stashed since the matching `ExpectReplica`.
    InstallReplica {
        /// The shard being installed.
        shard: usize,
        /// Global indices of the points in the snapshot.
        points: Vec<usize>,
        /// Their binary codes, in `points` order.
        codes: BinaryCodes,
        /// The publish seq of the donor data the snapshot captured. An
        /// install that raced a newer authoritative `LoadShard` is ignored
        /// — ordering, not a publish-wide lock, keeps donors from
        /// overwriting fresher publishes.
        seq: u64,
    },
    /// Rebalancer: this machine is about to receive `InstallReplica` for the
    /// shard; stash (do not apply) updates for it until the snapshot lands.
    ExpectReplica {
        /// The shard to expect.
        shard: usize,
    },
    /// Stop hosting a shard (over-replication trim, or a cancelled install).
    DropShard {
        /// The shard to drop.
        shard: usize,
    },
    /// Apply incremental Z-step code updates to one hosted shard.
    ApplyUpdates {
        /// The shard the updates belong to.
        shard: usize,
        /// The changed codes.
        updates: Vec<ZUpdate>,
    },
    /// Rebalancer: reply with a snapshot of one hosted shard (`None` if not
    /// hosted), so it can be installed on an under-replicated peer.
    // lint: wire(tag-only) — a shard id; the reply channel is routing
    FetchShard {
        /// The shard to snapshot.
        shard: usize,
        /// Where to send the `(points, codes, seq)` snapshot — `seq` is the
        /// publish stamp of the donated data.
        reply: Sender<Option<(Vec<usize>, BinaryCodes, u64)>>,
    },
    /// Health probe: reply with the machine id.
    // lint: wire(tag-only) — a bare probe; the reply channel is routing
    Ping {
        /// Where to send the pong.
        reply: Sender<usize>,
    },
    /// Chaos: block the actor thread for the duration (simulates a wedged —
    /// alive but unresponsive — machine).
    // lint: local-only — chaos-harness control, never crosses a wire
    Wedge(Duration),
    /// Stop the actor.
    Shutdown,
}

/// The sharded-server backend: the fourth [`ClusterBackend`].
///
/// Training steps are the threaded backend's, bitwise identical to
/// [`SimBackend`](crate::backend::SimBackend); the resident serving fleet it
/// holds answers retrieval queries concurrently, with shard replication and
/// failover (see the module docs for the full picture). Cloning the backend
/// shares the fleet.
#[derive(Clone)]
pub struct ServerBackend {
    cost: CostModel,
    router: QueryRouter,
}

impl ServerBackend {
    /// A server backend with the distributed cost preset and an empty fleet.
    pub fn new() -> Self {
        ServerBackend {
            cost: CostModel::distributed(),
            router: QueryRouter::default(),
        }
    }

    /// Overrides the cost model a trainer built on this backend seeds its
    /// cluster with (the cluster is authoritative at execution time; see
    /// [`ClusterBackend::cost_model`]).
    pub fn with_cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Sets the replication factor: each shard's codes live on `replicas`
    /// distinct machines (capped at the fleet size), so any single machine
    /// failure leaves every shard answerable at `replicas >= 2`.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero.
    pub fn with_replication(self, replicas: usize) -> Self {
        assert!(replicas > 0, "replication factor must be positive");
        self.router.fleet.replication.lock().replicas = replicas;
        self
    }

    /// Sets the full replication/failover configuration (factor, per-wave
    /// replica timeout, total query deadline, failure threshold).
    ///
    /// # Panics
    ///
    /// Panics if `replicas` or `failure_threshold` is zero.
    pub fn with_replication_config(self, config: ReplicationConfig) -> Self {
        assert!(config.replicas > 0, "replication factor must be positive");
        assert!(
            config.failure_threshold > 0,
            "failure threshold must be positive"
        );
        *self.router.fleet.replication.lock() = config;
        self
    }

    /// Sets the admission-queue sizing (default: capacity 256, a 256-query
    /// budget per coalesced fan-out). Call before the first
    /// [`QueryRouter::knn_admitted`]: the admission loop captures the
    /// configuration when it spawns.
    ///
    /// # Panics
    ///
    /// Panics if `queue_capacity` or `max_batch` is zero.
    pub fn with_admission_config(self, config: AdmissionConfig) -> Self {
        assert!(config.queue_capacity > 0, "queue capacity must be positive");
        assert!(config.max_batch > 0, "max batch must be positive");
        *self.router.admission.config.lock() = config;
        self
    }

    /// A retrieval front-end over this backend's serving fleet. Routers stay
    /// valid (and keep the fleet alive) after the backend is moved into a
    /// trainer.
    pub fn query_router(&self) -> QueryRouter {
        self.router.clone()
    }

    /// Chaos/lifecycle: kills a machine — its actor shuts down (bounded,
    /// never hangs on a wedged thread), it leaves every shard assignment and
    /// is marked dead. In-flight queries fail over to the surviving
    /// replicas; the rebalancer re-replicates what it hosted.
    pub fn kill_machine(&self, machine: usize) {
        self.router.fleet.kill_machine(machine);
    }

    /// Chaos/lifecycle: restores a machine — a fresh actor is spawned if
    /// needed and probed (`Ping`); on a pong the machine is marked live and
    /// a synchronous rebalance re-replicates under-replicated shards onto
    /// it. Returns `false` if the probe timed out.
    pub fn restore_machine(&self, machine: usize) -> bool {
        self.router.fleet.restore_machine(machine)
    }

    /// Chaos: blocks a machine's actor thread for `duration`, simulating a
    /// wedged (alive but unresponsive) machine. Returns `false` if the
    /// machine has no actor.
    pub fn wedge_machine(&self, machine: usize, duration: Duration) -> bool {
        self.router
            .fleet
            .send_if_resident(machine, MachineMsg::Wedge(duration))
            .is_ok()
    }

    /// Runs one synchronous rebalancing pass (the same work the self-healing
    /// background pass does): prunes gone hosts, re-replicates
    /// under-replicated shards from live donors, trims over-replication.
    pub fn rebalance(&self) {
        self.router.fleet.rebalance_once();
    }

    /// Snapshot of the fleet's replication health.
    pub fn fleet_status(&self) -> FleetStatus {
        self.router.fleet_status()
    }
}

impl Default for ServerBackend {
    fn default() -> Self {
        ServerBackend::new()
    }
}

impl ClusterBackend for ServerBackend {
    fn name(&self) -> &'static str {
        "server"
    }

    fn cost_model(&self) -> CostModel {
        self.cost
    }

    /// Loads every machine's shard codes into the resident serving fleet
    /// (spawning actors on first publish), placing each shard on
    /// `replicas` distinct machines: shard `s` goes to machines `s, s+1,
    /// ... (mod P)`. A publish is authoritative — it refreshes the
    /// assignments, revives dead-marked machines (they receive complete
    /// state), and is how an unreplicated fleet recovers a lost shard.
    ///
    /// Holds no lock across the sends: every `LoadShard` of this pass is
    /// stamped with a fresh publish seq, and actors reject any replica
    /// install (or older load) that would roll a shard back past it — so a
    /// concurrently running rebalance pass cannot clobber the publish.
    fn publish_codes(&self, cluster: &SimCluster, codes: &BinaryCodes) {
        let p = cluster.n_machines();
        if p == 0 {
            return;
        }
        let seq = self.router.fleet.publish_seq.fetch_add(1, Ordering::SeqCst) + 1;
        let replicas = self.router.fleet.replication.lock().replicas.min(p);
        for shard in 0..p {
            let (points, cut) = shard_codes(cluster, shard, codes);
            let hosts: Vec<usize> = (0..replicas).map(|j| (shard + j) % p).collect();
            self.router
                .fleet
                .assignments
                .lock()
                .insert(shard, hosts.clone());
            let load = |host: usize, points: Vec<usize>, codes: BinaryCodes| {
                let msg = MachineMsg::LoadShard {
                    shard,
                    points,
                    codes,
                    seq,
                };
                self.router.fleet.send_spawning(host, msg);
                self.router.fleet.record_success(host);
            };
            // Every host but the last gets a copy; the last takes the cut.
            let (&last, copies) = hosts.split_last().expect("at least one replica");
            for &host in copies {
                load(host, points.clone(), cut.clone());
            }
            load(last, points, cut);
        }
    }

    /// Streams just the new points' codes to every host of the ingesting
    /// machine's shard (an incremental `ApplyUpdates`, not a full fleet
    /// reload). A brand-new machine becomes its own shard's first host.
    fn publish_point_codes(&self, machine: usize, points: &[usize], codes: &BinaryCodes) {
        if !points.is_empty() {
            self.router
                .fleet
                .publish_shard_updates(machine, point_updates(points, codes));
        }
    }

    /// The W step is the threaded backend's: the channel ring over scoped
    /// per-machine threads. The fleet is not involved — submodels are not
    /// served.
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

    /// The Z step is the threaded backend's thread-per-shard fan-out; each
    /// machine's updates are then mirrored into the serving fleet — to *every*
    /// replica of the shard, in topology order — so queries issued from now
    /// on see the post-step codes whichever replica answers them.
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
        let per_machine = solve_per_shard(cluster, &solve);
        for (&machine, shard_updates) in cluster.topology().machines().iter().zip(per_machine) {
            if !shard_updates.is_empty() {
                self.router
                    .fleet
                    .publish_shard_updates(machine, shard_updates.clone());
            }
            updates.extend(shard_updates);
        }
        (updates, z_stats(cluster, n_submodels, start))
    }
}

#[cfg(test)]
mod tests;
