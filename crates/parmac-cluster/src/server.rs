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
//! The fleet is genuinely long-lived: one detached thread per machine,
//! spawned on first [`publish_codes`] and kept until the backend is dropped
//! (the drop path is bounded: a wedged actor is abandoned after a grace
//! period, never joined forever). The training steps run on scoped threads
//! that end with the step. Both populations share machine ids and shard
//! layout — one process, training and serving concurrently.
//!
//! [`publish_codes`]: crate::backend::ClusterBackend::publish_codes

use crate::backend::{
    point_updates, shard_codes, solve_per_shard, z_stats, ClusterBackend, ZUpdate,
};
use crate::cost::{CostModel, WStepStats, ZStepStats};
use crate::sim::{Fault, SimCluster};
use crate::threaded::run_w_step_threaded;
use crate::waits;
use crossbeam_channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use parking_lot::Mutex;
use parmac_hash::BinaryCodes;
use parmac_retrieval::{merge_shard_topk, PrefixIndex};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Minimum queries per scan task: a batch only splits over scan workers when
/// every worker gets at least this many queries, so the dispatch overhead
/// stays well under the probe cost and small batches run serially on the
/// actor thread.
const MIN_QUERIES_PER_SCAN_TASK: usize = 4;

/// How long the drop/kill paths wait for an actor thread to exit before
/// abandoning it. A wedged actor (sleeping in a scan, or chaos-wedged) must
/// never block shutdown forever.
const SHUTDOWN_GRACE: Duration = Duration::from_millis(500);

/// How long a synchronous rebalance (`rebalance_once`) waits for the
/// rebalance actor to acknowledge its pass. A pass is internally bounded by
/// the replication config's timeouts, so this only trips when the fleet is
/// pathologically wedged — the caller then proceeds and the pass completes
/// asynchronously.
const REBALANCE_SYNC_GRACE: Duration = Duration::from_secs(10);

/// Default number of scan workers per serving actor: the host's parallelism,
/// capped so a many-machine fleet does not oversubscribe the box.
fn default_scan_workers() -> usize {
    thread::available_parallelism()
        .map_or(1, |w| w.get())
        .min(4)
}

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
    /// (see [`PrefixIndex::topk_batched`]).
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

/// One chunk's scan result: `(chunk index, per-query top-k hits)`.
type ChunkHits = (usize, Vec<Vec<(u32, usize)>>);

/// A scan work order for one persistent scan worker: probe the index
/// snapshot for the queries in `q_rows` and send that chunk's per-query
/// top-k back.
struct ScanTask {
    index: Arc<PrefixIndex>,
    queries: Arc<BinaryCodes>,
    q_rows: std::ops::Range<usize>,
    k: usize,
    probes: Option<usize>,
    chunk: usize,
    reply: Sender<ChunkHits>,
}

/// The persistent scan workers owned by one serving actor — a real pool, not
/// per-query thread spawns: each worker is a long-lived thread draining its
/// own task channel, so a query batch pays only channel sends.
struct ScanPool {
    txs: Vec<Sender<ScanTask>>,
    threads: Vec<JoinHandle<()>>,
}

impl ScanPool {
    fn new(machine: usize, workers: usize) -> Self {
        let mut txs = Vec::with_capacity(workers);
        let mut threads = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, rx) = unbounded::<ScanTask>();
            // lint: actor-region — scan workers are detached serving threads
            let spawned = thread::Builder::new()
                .name(format!("parmac-scan-{machine}-{w}"))
                .spawn(move || {
                    while let Ok(task) = waits::recv_bounded(&rx, waits::IDLE_TICK) {
                        let hits = task.index.topk_batched_range(
                            &task.queries,
                            task.q_rows.clone(),
                            task.k,
                            task.probes,
                        );
                        let reply = task.reply.clone();
                        let chunk = task.chunk;
                        // Drop the task (and its query/index Arcs) before
                        // replying, so batch ownership reverts to the caller.
                        drop(task);
                        let _ = reply.send((chunk, hits));
                    }
                });
            // lint: end-actor-region
            match spawned {
                Ok(thread) => {
                    txs.push(tx);
                    threads.push(thread);
                }
                // Spawn failure (thread exhaustion) degrades the pool rather
                // than panicking the serving actor: `scan_index` falls back
                // to scanning on the actor thread when the pool is short.
                Err(_) => break,
            }
        }
        ScanPool { txs, threads }
    }
}

impl Drop for ScanPool {
    fn drop(&mut self) {
        self.txs.clear();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// One hosted replica of a shard: the multi-probe index the actor serves
/// from, plus the materialised `(points, codes)` pair so the shard can be
/// donated to an under-replicated peer (`FetchShard`) without reverse-
/// engineering the index. `row_of` maps global point id → row, so an update
/// to an existing point rewrites its row instead of appending.
struct ReplicaShard {
    points: Vec<usize>,
    codes: BinaryCodes,
    row_of: HashMap<usize, usize>,
    index: Arc<PrefixIndex>,
    /// Publish stamp of the authoritative data this replica derives from
    /// (0 = created by the streaming path, before any full publish).
    seq: u64,
}

impl ReplicaShard {
    // lint: actor-region — replica maintenance runs on serving-actor threads
    fn build(points: Vec<usize>, codes: BinaryCodes, seq: u64) -> Self {
        let index = Arc::new(PrefixIndex::build(&codes, &points));
        let row_of = points.iter().enumerate().map(|(r, &p)| (p, r)).collect();
        ReplicaShard {
            points,
            codes,
            row_of,
            index,
            seq,
        }
    }

    fn apply(&mut self, update: &ZUpdate) {
        let row = match self.row_of.get(&update.point) {
            Some(&row) => {
                self.codes.set_code(row, &update.code);
                row
            }
            None => {
                let row = self.points.len();
                self.row_of.insert(update.point, row);
                self.points.push(update.point);
                self.codes.push_code(&update.code);
                row
            }
        };
        // Same-prefix updates rewrite their bucket row; bucket-moving ones
        // ride the index's delta region until it recompacts, so a Z step
        // costs per-update work, not a rebuild. `make_mut` copies only in
        // the brief window where a scan worker still holds a snapshot.
        Arc::make_mut(&mut self.index).upsert_code(update.point, &self.codes, row);
    }
    // lint: end-actor-region
}

/// State owned by one long-lived serving actor: every shard replica this
/// machine hosts, plus the replica-installation protocol state — shards it
/// has been told to *expect* (`ExpectReplica` arrived, snapshot still in
/// flight) and the updates stashed for them. Mailbox FIFO plus the
/// single-threaded publisher make the stash a contiguous suffix of the
/// update stream, so replaying it over the installed snapshot converges to
/// the donor's bytes.
struct MachineState {
    machine: usize,
    shards: BTreeMap<usize, ReplicaShard>,
    expecting: BTreeSet<usize>,
    pending: BTreeMap<usize, Vec<ZUpdate>>,
    /// How many scan workers split this machine's query batches (1 = serial).
    scan_workers: usize,
    /// Lazily spawned persistent workers (`scan_workers - 1` threads; the
    /// actor itself scans chunk 0).
    pool: Option<ScanPool>,
}

impl MachineState {
    // lint: actor-region — every method below runs on a serving-actor thread
    fn install(&mut self, shard: usize, points: Vec<usize>, codes: BinaryCodes, seq: u64) {
        // A newer authoritative publish already landed: the snapshot is
        // stale, and installing it would roll the shard back. The install
        // attempt is over either way, so drop its protocol state too.
        if self.shards.get(&shard).is_some_and(|r| r.seq > seq) {
            self.expecting.remove(&shard);
            self.pending.remove(&shard);
            return;
        }
        let mut replica = ReplicaShard::build(points, codes, seq);
        if let Some(stash) = self.pending.remove(&shard) {
            // Replay updates that raced the snapshot fetch. Stale
            // re-applications (updates the donor already folded into the
            // snapshot) are idempotent overwrites.
            for update in &stash {
                replica.apply(update);
            }
        }
        self.expecting.remove(&shard);
        self.shards.insert(shard, replica);
    }

    fn apply_updates(&mut self, shard: usize, updates: Vec<ZUpdate>) {
        if let Some(replica) = self.shards.get_mut(&shard) {
            for update in &updates {
                replica.apply(update);
            }
        } else if self.expecting.contains(&shard) {
            self.pending.entry(shard).or_default().extend(updates);
        } else {
            // Legacy incremental path: updates to a shard this machine never
            // loaded create it from scratch (streaming `publish_point_codes`
            // to a brand-new machine).
            let width = updates.first().map_or(1, |u| u.code.len().max(1));
            let mut replica = ReplicaShard::build(Vec::new(), BinaryCodes::zeros(0, width), 0);
            for update in &updates {
                replica.apply(update);
            }
            self.shards.insert(shard, replica);
        }
    }

    fn answer(&mut self, query: &Query) -> QueryReply {
        let mut answered = Vec::new();
        let mut missing = Vec::new();
        for &shard in &query.shards {
            // Tolerate malformed queries (width mismatch, k = 0) with an
            // empty answer instead of panicking: a panic here would kill the
            // detached actor and leave the router failing over for nothing.
            // A resident-but-unservable shard counts as *answered* (empty),
            // never missing: its replicas are identical, so retrying
            // elsewhere cannot do better.
            match self.shards.get(&shard) {
                Some(replica) => {
                    let servable = !replica.index.is_empty()
                        && query.k > 0
                        && replica.index.n_bits() == query.queries.n_bits();
                    let hits = if servable {
                        let index = Arc::clone(&replica.index);
                        scan_index(
                            &index,
                            self.machine,
                            self.scan_workers,
                            &mut self.pool,
                            &query.queries,
                            query.k,
                            query.probes,
                        )
                    } else {
                        vec![Vec::new(); query.queries.len()]
                    };
                    answered.push((shard, hits));
                }
                None => missing.push(shard),
            }
        }
        QueryReply {
            machine: self.machine,
            answered,
            missing,
        }
    }
    // lint: end-actor-region
}

/// The shard's batched top-k, split over this machine's scan workers: each
/// worker probes the shared index snapshot for a contiguous sub-range of the
/// query *batch*, so concatenating the chunks in order is exactly the
/// whole-batch answer (per-query probing is independent — no merge needed;
/// the queries of a sub-range that the index cannot prune for share that
/// worker's one blocked sweep of the snapshot).
/// Each worker keeps at least [`MIN_QUERIES_PER_SCAN_TASK`] queries — small
/// batches probe serially on the actor thread regardless of the worker
/// count.
fn scan_index(
    index: &Arc<PrefixIndex>,
    machine: usize,
    scan_workers: usize,
    pool: &mut Option<ScanPool>,
    queries: &Arc<BinaryCodes>,
    k: usize,
    probes: Option<usize>,
) -> Vec<Vec<(u32, usize)>> {
    let batch = queries.len();
    let max_useful = (batch / MIN_QUERIES_PER_SCAN_TASK).max(1);
    let workers = scan_workers.min(max_useful).max(1);
    if workers == 1 {
        return index.topk_batched(queries, k, probes);
    }
    let pool = pool.get_or_insert_with(|| {
        // Sized once for the configured maximum; smaller scans simply use
        // a prefix of the workers.
        ScanPool::new(machine, scan_workers - 1)
    });
    // lint: actor-region — runs on the serving-actor thread; must not panic
    // The pool may be short if worker spawns failed: cap the split to the
    // workers that actually exist (plus the actor thread itself).
    let workers = workers.min(pool.txs.len() + 1);
    if workers == 1 {
        return index.topk_batched(queries, k, probes);
    }
    let chunk_len = batch.div_ceil(workers);
    let (reply_tx, reply_rx) = unbounded();
    let mut outstanding = 0usize;
    let mut per_chunk: Vec<Option<ShardHits>> = vec![None; workers];
    for c in 1..workers {
        let lo = (c * chunk_len).min(batch);
        let hi = ((c + 1) * chunk_len).min(batch);
        let task = ScanTask {
            index: Arc::clone(index),
            queries: Arc::clone(queries),
            q_rows: lo..hi,
            k,
            probes,
            chunk: c,
            reply: reply_tx.clone(),
        };
        if pool.txs[c - 1].send(task).is_ok() {
            outstanding += 1;
        }
        // A dead worker (channel closed) is recovered below: its chunk is
        // simply scanned on the actor thread like a missing reply.
    }
    drop(reply_tx);
    // The actor probes chunk 0 itself while the workers probe the rest.
    per_chunk[0] = Some(index.topk_batched_range(queries, 0..chunk_len.min(batch), k, probes));
    while outstanding > 0 {
        match reply_rx.recv_timeout(waits::IDLE_TICK) {
            Ok((chunk, hits)) => {
                per_chunk[chunk] = Some(hits);
                outstanding -= 1;
            }
            Err(RecvTimeoutError::Timeout) => continue,
            // Remaining workers died mid-scan: their reply senders are gone;
            // fall through and rescan the missing chunks locally.
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    per_chunk
        .into_iter()
        .enumerate()
        .flat_map(|(c, hits)| {
            hits.unwrap_or_else(|| {
                let lo = (c * chunk_len).min(batch);
                let hi = ((c + 1) * chunk_len).min(batch);
                index.topk_batched_range(queries, lo..hi, k, probes)
            })
        })
        .collect()
    // lint: end-actor-region
}

/// The long-lived serving actor loop: retrieval, shard placement and the
/// replica-installation protocol until `Shutdown`.
fn serving_actor(machine: usize, rx: Receiver<MachineMsg>, scan_workers: usize) {
    let mut state = MachineState {
        machine,
        shards: BTreeMap::new(),
        expecting: BTreeSet::new(),
        pending: BTreeMap::new(),
        scan_workers,
        pool: None,
    };
    while let Ok(msg) = waits::recv_bounded(&rx, waits::IDLE_TICK) {
        match msg {
            MachineMsg::Query(query) => {
                let reply = query.reply.clone();
                let answer = state.answer(&query);
                // Release the shared query batch before replying so the
                // router's caller sees its Arc unique again on return.
                drop(query);
                let _ = reply.send(answer);
            }
            MachineMsg::LoadShard {
                shard,
                points,
                codes,
                seq,
            } => {
                // Authoritative for its seq: a load that raced a newer
                // publish must not roll the shard back.
                if state.shards.get(&shard).is_none_or(|r| r.seq <= seq) {
                    // Discard any in-flight install state.
                    state.pending.remove(&shard);
                    state.expecting.remove(&shard);
                    state
                        .shards
                        .insert(shard, ReplicaShard::build(points, codes, seq));
                }
            }
            MachineMsg::InstallReplica {
                shard,
                points,
                codes,
                seq,
            } => state.install(shard, points, codes, seq),
            MachineMsg::ExpectReplica { shard } => {
                if !state.shards.contains_key(&shard) {
                    state.expecting.insert(shard);
                }
            }
            MachineMsg::DropShard { shard } => {
                state.shards.remove(&shard);
                state.expecting.remove(&shard);
                state.pending.remove(&shard);
            }
            MachineMsg::ApplyUpdates { shard, updates } => state.apply_updates(shard, updates),
            MachineMsg::FetchShard { shard, reply } => {
                let snapshot = state
                    .shards
                    .get(&shard)
                    .map(|r| (r.points.clone(), r.codes.clone(), r.seq));
                let _ = reply.send(snapshot);
            }
            MachineMsg::Ping { reply } => {
                let _ = reply.send(machine);
            }
            MachineMsg::Wedge(duration) => thread::sleep(duration),
            MachineMsg::Shutdown => break,
        }
    }
}

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
/// [`ServerBackend::fleet_status`]).
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
/// wedged. Returns `true` if the thread actually exited.
fn join_bounded(thread: JoinHandle<()>, grace: Duration) -> bool {
    let deadline = Instant::now() + grace;
    while Instant::now() < deadline {
        if thread.is_finished() {
            let _ = thread.join();
            return true;
        }
        thread::sleep(Duration::from_millis(2));
    }
    // Abandon: the thread keeps running detached until its mailbox
    // disconnects (all senders dropped) and it drains to Shutdown.
    false
}

/// The resident machine fleet: one long-lived actor per machine, shared by
/// the backend and every [`QueryRouter`] cloned from it, plus the
/// replication state — which machines host which shard, per-machine health,
/// and the failover/degraded counters.
///
/// Lock order (outer to inner): `assignments` → `machines` → `health`.
/// Most paths take one lock at a time, and no lock is ever held across a
/// blocking channel operation.
struct Fleet {
    machines: Mutex<BTreeMap<usize, MachineHandle>>,
    /// Scan workers per serving actor, captured when each actor spawns.
    scan_workers: AtomicUsize,
    replication: Mutex<ReplicationConfig>,
    /// shard → hosting machines. The publisher reads this to fan updates to
    /// every replica; the router reads it to plan fan-outs.
    assignments: Mutex<BTreeMap<usize, Vec<usize>>>,
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
    publish_seq: AtomicU64,
    /// Read-balancing cursor: successive fan-outs rotate which replica of a
    /// shard is tried first.
    rr: AtomicUsize,
    /// Shard attempts that were retried on an alternate replica.
    failovers: AtomicU64,
    /// Fan-outs that returned with partial coverage.
    degraded: AtomicU64,
}

impl Default for Fleet {
    fn default() -> Self {
        Fleet {
            machines: Mutex::new(BTreeMap::new()),
            scan_workers: AtomicUsize::new(default_scan_workers()),
            replication: Mutex::new(ReplicationConfig::default()),
            assignments: Mutex::new(BTreeMap::new()),
            health: Mutex::new(BTreeMap::new()),
            rebalancer: Mutex::new(None),
            publish_seq: AtomicU64::new(0),
            rr: AtomicUsize::new(0),
            failovers: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
        }
    }
}

impl Fleet {
    /// Sends `msg` to `machine`, spawning its actor on first contact. Only
    /// the *publish* paths use this: an authoritative `LoadShard` (or the
    /// legacy streaming path) legitimately brings a machine into existence.
    fn send_spawning(&self, machine: usize, msg: MachineMsg) {
        // Clone the mailbox sender inside the guard scope, send after: an
        // actor blocked on a full downstream channel must never be able to
        // wedge a thread that is holding the machine-table lock.
        let tx = {
            let mut map = self.machines.lock();
            let scan_workers = self.scan_workers.load(Ordering::Relaxed);
            map.entry(machine)
                .or_insert_with(|| spawn_actor(machine, scan_workers))
                .tx
                .clone()
        };
        let _ = tx.send(msg);
    }

    /// Sends `msg` to `machine` only if its actor exists. The query/update
    /// fan-outs use this: a killed machine must *not* be resurrected as an
    /// empty actor that would serve partial shards as complete.
    fn send_if_resident(&self, machine: usize, msg: MachineMsg) -> Result<(), ()> {
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

    fn n_machines(&self) -> usize {
        self.machines.lock().len()
    }

    // ---- health tracking ----

    /// Records one failed interaction. Returns `true` if this crossed the
    /// failure threshold and newly marked the machine dead.
    fn record_failure(&self, machine: usize) -> bool {
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
    fn record_success(&self, machine: usize) {
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

    fn dead_set(&self) -> BTreeSet<usize> {
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
    fn publish_shard_updates(&self, shard: usize, mut updates: Vec<ZUpdate>) {
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
    fn status(&self) -> FleetStatus {
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
    fn notify_rebalance(self: &Arc<Self>) {
        let _ = self.rebalance_tx().send(RebalanceCmd { ack: None });
    }

    /// One synchronous rebalancing pass: triggers the rebalance actor and
    /// waits (bounded) for it to acknowledge a pass that started after this
    /// call. If the fleet is badly wedged the wait gives up — the pass
    /// still happens, just asynchronously.
    fn rebalance_once(self: &Arc<Self>) {
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
        let rollback = |fleet: &Fleet| {
            if let Some(hosts) = fleet.assignments.lock().get_mut(&shard) {
                if let Some(pos) = hosts.iter().rposition(|&h| h == candidate) {
                    hosts.remove(pos);
                }
            }
            let _ = fleet.send_if_resident(candidate, MachineMsg::DropShard { shard });
        };
        let (snap_tx, snap_rx) = unbounded();
        if self
            .send_if_resident(
                donor,
                MachineMsg::FetchShard {
                    shard,
                    reply: snap_tx,
                },
            )
            .is_err()
        {
            rollback(self);
            return false;
        }
        match snap_rx.recv_timeout(config.query_deadline) {
            Ok(Some((points, codes, seq))) => {
                if self
                    .send_if_resident(
                        candidate,
                        MachineMsg::InstallReplica {
                            shard,
                            points,
                            codes,
                            seq,
                        },
                    )
                    .is_err()
                {
                    rollback(self);
                    return false;
                }
                self.record_success(donor);
                true
            }
            Ok(None) => {
                rollback(self);
                false
            }
            Err(_) => {
                if self.record_failure(donor) {
                    self.notify_rebalance();
                }
                rollback(self);
                false
            }
        }
    }
    // lint: end-actor-region

    // ---- chaos / lifecycle controls ----

    /// Kills a machine: its actor is shut down (bounded join) and it is
    /// removed from every shard assignment and marked dead, so no query or
    /// update is routed to a resurrected empty actor. Wakes the rebalancer.
    fn kill_machine(self: &Arc<Self>, machine: usize) {
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
    fn restore_machine(self: &Arc<Self>, machine: usize) -> bool {
        {
            let mut map = self.machines.lock();
            let scan_workers = self.scan_workers.load(Ordering::Relaxed);
            map.entry(machine)
                .or_insert_with(|| spawn_actor(machine, scan_workers));
        }
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

fn spawn_actor(machine: usize, scan_workers: usize) -> MachineHandle {
    let (tx, rx) = unbounded();
    // Spawn failure (thread exhaustion) must not panic the caller — it can
    // be a serving thread. On failure the closure (owning `rx`) is dropped,
    // so the mailbox is born disconnected: every send to this machine fails,
    // the health tracker marks it dead and failover covers its shards.
    let thread = thread::Builder::new()
        .name(format!("parmac-serve-{machine}"))
        .spawn(move || serving_actor(machine, rx, scan_workers))
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

/// The result of one fan-out: per answering shard (ascending shard order)
/// the per-query hit lists, plus the coverage achieved.
struct FanOut {
    per_shard: Vec<Vec<Vec<(u32, usize)>>>,
    coverage: Coverage,
}

/// Per-shard failover state inside one fan-out.
struct ShardAttempt {
    shard: usize,
    /// Replica candidates in try-order: hosts rotated by the read-balancing
    /// cursor, live ones first, dead-marked ones as a last resort.
    candidates: Vec<usize>,
    /// Next candidate index.
    cursor: usize,
    /// The machine currently asked, if an attempt is outstanding this wave.
    in_flight: Option<usize>,
    answered: bool,
}

/// One coverage-aware fan-out with replica failover. Shards are dispatched
/// to their read-balanced first replica; a dead machine (disconnected
/// mailbox) cascades to the next replica instantly, a wedged one after
/// `replica_timeout`; the whole fan-out is bounded by `query_deadline`.
/// Every shard that cannot be answered within the budget is simply absent
/// from the merge — and visible in the returned [`Coverage`].
fn fan_out_topk(
    fleet: &Arc<Fleet>,
    queries: &Arc<BinaryCodes>,
    k: usize,
    probes: Option<usize>,
) -> FanOut {
    let config = *fleet.replication.lock();
    let plan: BTreeMap<usize, Vec<usize>> = fleet.assignments.lock().clone();
    let total = plan.len();
    if total == 0 {
        return FanOut {
            per_shard: Vec::new(),
            coverage: Coverage {
                shards_answered: 0,
                shards_total: 0,
            },
        };
    }
    let dead = fleet.dead_set();
    let rr = fleet.rr.fetch_add(1, Ordering::Relaxed);
    let mut attempts: Vec<ShardAttempt> = plan
        .into_iter()
        .map(|(shard, mut hosts)| {
            if !hosts.is_empty() {
                let shift = rr % hosts.len();
                hosts.rotate_left(shift);
            }
            // Stable partition: live replicas first, dead ones last resort.
            let mut candidates: Vec<usize> = hosts
                .iter()
                .copied()
                .filter(|h| !dead.contains(h))
                .collect();
            candidates.extend(hosts.iter().copied().filter(|h| dead.contains(h)));
            ShardAttempt {
                shard,
                candidates,
                cursor: 0,
                in_flight: None,
                answered: false,
            }
        })
        .collect();
    let mut hits_by_shard: BTreeMap<usize, Vec<Vec<(u32, usize)>>> = BTreeMap::new();
    let (reply_tx, reply_rx) = unbounded::<QueryReply>();
    let overall_deadline = Instant::now() + config.query_deadline;

    'outer: loop {
        // Dispatch phase: give every unanswered shard without an outstanding
        // attempt its next candidate, grouping shards by machine so each
        // machine scans one batch. A disconnected mailbox cascades
        // immediately to the next candidate.
        loop {
            let mut by_machine: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for (i, attempt) in attempts.iter_mut().enumerate() {
                if attempt.answered || attempt.in_flight.is_some() {
                    continue;
                }
                if attempt.cursor >= attempt.candidates.len() {
                    continue; // exhausted: stays unanswered
                }
                let machine = attempt.candidates[attempt.cursor];
                if attempt.cursor > 0 {
                    fleet.failovers.fetch_add(1, Ordering::Relaxed);
                }
                attempt.cursor += 1;
                attempt.in_flight = Some(machine);
                by_machine.entry(machine).or_default().push(i);
            }
            if by_machine.is_empty() {
                break;
            }
            let mut cascaded = false;
            for (machine, idxs) in by_machine {
                let shards: Vec<usize> = idxs.iter().map(|&i| attempts[i].shard).collect();
                let sent = fleet.send_if_resident(
                    machine,
                    MachineMsg::Query(Query {
                        queries: Arc::clone(queries),
                        shards,
                        k,
                        probes,
                        reply: reply_tx.clone(),
                    }),
                );
                if sent.is_err() {
                    // Dead machine: instant failover, plus a health strike.
                    if fleet.record_failure(machine) {
                        fleet.notify_rebalance();
                    }
                    for i in idxs {
                        attempts[i].in_flight = None;
                    }
                    cascaded = true;
                }
            }
            if !cascaded {
                break;
            }
        }
        if attempts.iter().all(|a| a.answered || a.in_flight.is_none()) {
            // Nothing outstanding: everything is answered or exhausted.
            break 'outer;
        }

        // Wait phase: collect replies until the wave times out. Late replies
        // from earlier waves still count (first answer wins per shard). The
        // multi-recv loop waits against the *absolute* wave deadline, so a
        // burst of replies never stretches the wave by per-recv drift.
        let wave_deadline = (Instant::now() + config.replica_timeout).min(overall_deadline);
        loop {
            let now = Instant::now();
            if now >= wave_deadline {
                // Penalise every machine that left an attempt hanging, free
                // the shards for the next wave.
                let mut blamed: BTreeSet<usize> = BTreeSet::new();
                for attempt in attempts.iter_mut() {
                    if let Some(machine) = attempt.in_flight.take() {
                        if !attempt.answered {
                            blamed.insert(machine);
                        }
                    }
                }
                for machine in blamed {
                    if fleet.record_failure(machine) {
                        fleet.notify_rebalance();
                    }
                }
                if now >= overall_deadline {
                    break 'outer;
                }
                continue 'outer;
            }
            match waits::recv_deadline(&reply_rx, wave_deadline) {
                Ok(reply) => {
                    fleet.record_success(reply.machine);
                    let mut freed = false;
                    for (shard, hits) in reply.answered {
                        if let Some(attempt) = attempts.iter_mut().find(|a| a.shard == shard) {
                            if !attempt.answered {
                                attempt.answered = true;
                                attempt.in_flight = None;
                                hits_by_shard.insert(shard, hits);
                            }
                        }
                    }
                    for shard in reply.missing {
                        if let Some(attempt) = attempts.iter_mut().find(|a| a.shard == shard) {
                            if !attempt.answered && attempt.in_flight == Some(reply.machine) {
                                attempt.in_flight = None;
                                freed = true;
                            }
                        }
                    }
                    // Settled = answered, or out of candidates with nothing
                    // in flight (a lost shard must not make every fan-out
                    // wait out the wave timeout — degraded, but fast).
                    if attempts.iter().all(|a| {
                        a.answered || (a.in_flight.is_none() && a.cursor >= a.candidates.len())
                    }) {
                        break 'outer;
                    }
                    if freed {
                        continue 'outer;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {} // re-check the deadline
                Err(RecvTimeoutError::Disconnected) => break 'outer,
            }
        }
    }

    let coverage = Coverage {
        shards_answered: hits_by_shard.len(),
        shards_total: total,
    };
    if !coverage.is_full() {
        fleet.degraded.fetch_add(1, Ordering::Relaxed);
    }
    FanOut {
        per_shard: hits_by_shard.into_values().collect(),
        coverage,
    }
}

/// Sizing of the batched admission queue (see [`QueryRouter::knn_admitted`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Capacity of the bounded admission mailbox. A submission finding the
    /// mailbox full is *shed*: the caller gets [`AdmissionError::Shed`]
    /// immediately instead of queueing unboundedly — explicit load shedding,
    /// never a silent drop.
    pub queue_capacity: usize,
    /// Query budget of one coalesced fan-out: the admission loop stops
    /// draining further submissions once the accumulated batch holds at
    /// least this many *queries*. Bounds the size of the concatenated batch
    /// and the latency outliers a slow scan inflicts on the queries
    /// coalesced with it. The first submission of a batch is always served
    /// whole, so one oversized submission can exceed the budget by itself.
    pub max_batch: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            queue_capacity: 256,
            max_batch: 256,
        }
    }
}

/// Snapshot of the admission/shedding and availability counters. At every
/// quiesce point (no `knn_admitted` call in flight) `submitted == answered +
/// shed`: every query is accounted for, whatever the fleet's health.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServingStats {
    /// Submissions to [`QueryRouter::knn_admitted`].
    pub submitted: u64,
    /// Submissions answered (possibly coalesced into a shared fan-out).
    pub answered: u64,
    /// Submissions shed: the admission queue was full, or the backend shut
    /// down before the reply. Every shed surfaces as [`AdmissionError`].
    pub shed: u64,
    /// Fan-out batches dispatched by the admission loop.
    pub batches: u64,
    /// Submissions that shared a fan-out with at least one other submission.
    pub coalesced: u64,
    /// Shard attempts retried on an alternate replica (dead or timed-out
    /// machine). Counts every fan-out, admitted or direct.
    pub failovers: u64,
    /// Fan-outs that returned with partial coverage (the response's
    /// [`Coverage`] said so too — degradation is never silent).
    pub degraded: u64,
}

#[derive(Default)]
struct AdmissionCounters {
    submitted: AtomicU64,
    answered: AtomicU64,
    shed: AtomicU64,
    batches: AtomicU64,
    coalesced: AtomicU64,
}

impl AdmissionCounters {
    fn snapshot(&self, fleet: &Fleet) -> ServingStats {
        ServingStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            answered: self.answered.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            failovers: fleet.failovers.load(Ordering::Relaxed),
            degraded: fleet.degraded.load(Ordering::Relaxed),
        }
    }
}

/// Why a [`QueryRouter::knn_admitted`] call returned no answer. Either way
/// the query was counted in [`ServingStats::shed`] — load shedding is
/// explicit, never silent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The bounded admission queue was at capacity; retry later or back off.
    Shed {
        /// The capacity the queue was configured with.
        queue_capacity: usize,
    },
    /// The admission loop has shut down (the backend was dropped).
    Closed,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::Shed { queue_capacity } => {
                write!(
                    f,
                    "query shed: admission queue at capacity {queue_capacity}"
                )
            }
            AdmissionError::Closed => write!(f, "admission loop shut down"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// One admitted-but-unanswered query batch.
struct Pending {
    queries: Arc<BinaryCodes>,
    k: usize,
    probes: Option<usize>,
    reply: Sender<KnnResponse>,
}

struct AdmissionHandle {
    tx: Sender<Pending>,
    thread: Option<JoinHandle<()>>,
}

/// The batched admission front: a bounded mailbox plus one loop thread that
/// drains concurrently arriving submissions and coalesces them into shared
/// fan-out batches. Spawned lazily on the first admitted query.
struct Admission {
    handle: Mutex<Option<AdmissionHandle>>,
    config: Mutex<AdmissionConfig>,
    counters: Arc<AdmissionCounters>,
}

impl Default for Admission {
    fn default() -> Self {
        Admission {
            handle: Mutex::new(None),
            config: Mutex::new(AdmissionConfig::default()),
            counters: Arc::new(AdmissionCounters::default()),
        }
    }
}

impl Admission {
    /// The bounded submission sender, spawning the admission loop on first
    /// use. The loop thread owns an `Arc` of the fleet, so the fleet outlives
    /// every admitted query.
    fn sender(&self, fleet: &Arc<Fleet>) -> Sender<Pending> {
        let mut guard = self.handle.lock();
        let handle = guard.get_or_insert_with(|| {
            let config = *self.config.lock();
            let (tx, rx) = bounded(config.queue_capacity);
            let fleet = Arc::clone(fleet);
            let counters = Arc::clone(&self.counters);
            let thread = thread::Builder::new()
                .name("parmac-admission".into())
                .spawn(move || admission_loop(&fleet, &rx, &counters, config.max_batch))
                .expect("spawn admission loop");
            AdmissionHandle {
                tx,
                thread: Some(thread),
            }
        });
        handle.tx.clone()
    }
}

impl Drop for Admission {
    fn drop(&mut self) {
        // Take the handle out in its own statement: an `if let` scrutinee
        // temporary lives for the whole block (Rust 2021 scoping), which
        // would keep `self.handle` locked across the bounded join below.
        let handle = self.handle.lock().take();
        if let Some(mut handle) = handle {
            // Dropping the mailbox sender disconnects the loop; it drains the
            // already-admitted queue (answering every blocked caller) and
            // exits. The join is bounded: a fan-out already cannot outlive
            // its query deadline, but a pathological pile-up is abandoned
            // rather than hanging the drop.
            drop(handle.tx);
            if let Some(thread) = handle.thread.take() {
                join_bounded(thread, SHUTDOWN_GRACE.max(Duration::from_secs(3)));
            }
        }
    }
}

/// The admission loop: blocks for one submission, opportunistically drains
/// whatever else arrived concurrently (until the batch holds `max_batch`
/// queries), groups runs of equal code width *and* probe budget, and serves
/// each group with one coalesced fan-out. The probed-bucket set of a
/// budgeted query is a fixed function of the query prefix and the budget —
/// never of `k` — so coalescing submissions with different `k` at the same
/// budget cannot change any submission's answer.
fn admission_loop(
    fleet: &Arc<Fleet>,
    rx: &Receiver<Pending>,
    counters: &AdmissionCounters,
    max_batch: usize,
) {
    while let Ok(first) = waits::recv_bounded(rx, waits::IDLE_TICK) {
        let mut total_queries = first.queries.len();
        let mut batch = vec![first];
        while total_queries < max_batch {
            match rx.try_recv() {
                Ok(pending) => {
                    total_queries += pending.queries.len();
                    batch.push(pending);
                }
                Err(_) => break,
            }
        }
        let mut start = 0;
        while start < batch.len() {
            let width = batch[start].queries.n_bits();
            let probes = batch[start].probes;
            let mut end = start + 1;
            while end < batch.len()
                && batch[end].queries.n_bits() == width
                && batch[end].probes == probes
            {
                end += 1;
            }
            serve_coalesced(fleet, counters, &batch[start..end]);
            start = end;
        }
    }
}

/// Serves a group of equal-width, equal-budget submissions with one fan-out
/// at the group's largest `k`: each per-shard list is the ascending prefix
/// of its shard's ranking over the probed candidate set (all of it in exact
/// mode), so merging to any smaller `k` is that submission's own answer —
/// coalescing changes batching, never answers. Every submission in the
/// group shares the fan-out's coverage.
fn serve_coalesced(fleet: &Arc<Fleet>, counters: &AdmissionCounters, group: &[Pending]) {
    // lint: actor-region — runs on the admission thread; must not panic
    counters.batches.fetch_add(1, Ordering::Relaxed);
    if group.len() > 1 {
        counters
            .coalesced
            .fetch_add(group.len() as u64, Ordering::Relaxed);
    }
    // An empty group cannot happen (callers slice non-empty runs), but fold
    // instead of `max().expect` so the admission thread cannot die on it.
    let k_max = group.iter().map(|p| p.k).fold(0, usize::max);
    let queries = if group.len() == 1 {
        Arc::clone(&group[0].queries)
    } else {
        let mut all = BinaryCodes::zeros(0, group[0].queries.n_bits());
        for pending in group {
            all.append_codes(&pending.queries);
        }
        Arc::new(all)
    };
    let mut fan = fan_out_topk(fleet, &queries, k_max, group[0].probes);
    let mut offset = 0usize;
    for pending in group {
        let answers: Vec<Vec<usize>> = (offset..offset + pending.queries.len())
            .map(|q| {
                let lists: Vec<Vec<(u32, usize)>> = fan
                    .per_shard
                    .iter_mut()
                    .map(|hits| std::mem::take(&mut hits[q]))
                    .collect();
                merge_shard_topk(&lists, pending.k)
            })
            .collect();
        offset += pending.queries.len();
        counters.answered.fetch_add(1, Ordering::Relaxed);
        let _ = pending.reply.send(KnnResponse {
            answers,
            coverage: fan.coverage,
        });
    }
    // lint: end-actor-region
}

/// Front-end that fans Hamming k-NN queries out to the machines hosting the
/// shards and merges the per-shard top-k into the global answer. Cheap to
/// clone; can be handed to request threads while training runs.
///
/// Two entry points: [`knn`](Self::knn)/[`knn_shared`](Self::knn_shared)
/// fan out immediately (one fan-out per call), and
/// [`knn_admitted`](Self::knn_admitted) goes through the bounded admission
/// queue, which coalesces concurrently arriving submissions into shared
/// fan-out batches and sheds load explicitly when saturated. Every answer is
/// a coverage-aware [`KnnResponse`].
#[derive(Clone)]
pub struct QueryRouter {
    fleet: Arc<Fleet>,
    admission: Arc<Admission>,
}

impl QueryRouter {
    /// For each query code, the indices of the `k` resident database codes
    /// with the smallest Hamming distance, closest first (ties broken by
    /// global index) — with full coverage, exactly what a single-process
    /// [`hamming_knn`](parmac_retrieval::hamming_knn) over the concatenated
    /// shards returns. Queries are answered from each machine's current
    /// shard snapshot, so calling concurrently with training is safe; an
    /// empty fleet (nothing published yet) yields empty result lists with
    /// vacuously full `0/0` coverage.
    ///
    /// Copies the query batch once to share it across the fan-out; callers
    /// that already hold an `Arc` should use [`knn_shared`](Self::knn_shared).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn knn(&self, queries: &BinaryCodes, k: usize) -> KnnResponse {
        self.knn_shared(&Arc::new(queries.clone()), k)
    }

    /// [`knn`](Self::knn) without the copy: the shared batch is handed to
    /// every machine as-is, so the fan-out allocates nothing per machine.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn knn_shared(&self, queries: &Arc<BinaryCodes>, k: usize) -> KnnResponse {
        self.knn_with_probes(queries, k, None)
    }

    /// Budgeted retrieval: each machine stops a query's index probing after
    /// `probes` non-empty prefix buckets instead of running to provable
    /// exactness, trading recall for throughput (the recall-vs-qps knob of
    /// the serving stack; see [`PrefixIndex::topk_batched`]). Recall against
    /// the exact answer is monotone non-decreasing in `probes`; a budget of
    /// at least every machine's occupied-bucket count is exact mode.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn knn_budgeted(&self, queries: &Arc<BinaryCodes>, k: usize, probes: usize) -> KnnResponse {
        self.knn_with_probes(queries, k, Some(probes))
    }

    fn knn_with_probes(
        &self,
        queries: &Arc<BinaryCodes>,
        k: usize,
        probes: Option<usize>,
    ) -> KnnResponse {
        assert!(k > 0, "k must be positive");
        let mut fan = fan_out_topk(&self.fleet, queries, k, probes);
        let answers = (0..queries.len())
            .map(|q| {
                let lists: Vec<Vec<(u32, usize)>> = fan
                    .per_shard
                    .iter_mut()
                    .map(|hits| std::mem::take(&mut hits[q]))
                    .collect();
                merge_shard_topk(&lists, k)
            })
            .collect();
        KnnResponse {
            answers,
            coverage: fan.coverage,
        }
    }

    /// Submits a query batch through the bounded admission queue. Under
    /// concurrent load the admission loop coalesces waiting submissions into
    /// one fan-out batch (scanned by the batched kernel in a single shard
    /// walk); when the queue is full the call returns
    /// [`AdmissionError::Shed`] *immediately* — explicit backpressure, so a
    /// saturated fleet degrades by answering fewer queries exactly rather
    /// than all queries late. Every submission ends up in
    /// [`ServingStats`]: `answered + shed == submitted`.
    ///
    /// Answers are identical to [`knn_shared`](Self::knn_shared) with the
    /// same arguments, including the coverage.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn knn_admitted(
        &self,
        queries: Arc<BinaryCodes>,
        k: usize,
    ) -> Result<KnnResponse, AdmissionError> {
        self.admit(queries, k, None)
    }

    /// [`knn_budgeted`](Self::knn_budgeted) through the bounded admission
    /// queue: the admission loop only coalesces submissions with the *same*
    /// probe budget into a shared fan-out (the probed-bucket set depends on
    /// the budget, never on `k`), so answers equal the direct budgeted call.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn knn_admitted_budgeted(
        &self,
        queries: Arc<BinaryCodes>,
        k: usize,
        probes: usize,
    ) -> Result<KnnResponse, AdmissionError> {
        self.admit(queries, k, Some(probes))
    }

    fn admit(
        &self,
        queries: Arc<BinaryCodes>,
        k: usize,
        probes: Option<usize>,
    ) -> Result<KnnResponse, AdmissionError> {
        assert!(k > 0, "k must be positive");
        let counters = &self.admission.counters;
        counters.submitted.fetch_add(1, Ordering::Relaxed);
        let tx = self.admission.sender(&self.fleet);
        let (reply_tx, reply_rx) = unbounded();
        let pending = Pending {
            queries,
            k,
            probes,
            reply: reply_tx,
        };
        if let Err(err) = tx.try_send(pending) {
            counters.shed.fetch_add(1, Ordering::Relaxed);
            return Err(match err {
                TrySendError::Full(_) => AdmissionError::Shed {
                    queue_capacity: self.admission.config.lock().queue_capacity,
                },
                TrySendError::Disconnected(_) => AdmissionError::Closed,
            });
        }
        // Heartbeat-bounded wait for the admission worker's reply: if the
        // worker dies, the reply sender drops and this surfaces as `Closed`
        // within one tick instead of hanging the caller forever.
        match waits::recv_bounded(&reply_rx, waits::IDLE_TICK) {
            Ok(response) => Ok(response),
            Err(()) => {
                counters.shed.fetch_add(1, Ordering::Relaxed);
                Err(AdmissionError::Closed)
            }
        }
    }

    /// Snapshot of the admission/shedding and availability counters.
    pub fn serving_stats(&self) -> ServingStats {
        self.admission.counters.snapshot(&self.fleet)
    }

    /// Number of resident machine actors (live or wedged; killed machines
    /// are gone).
    pub fn n_machines(&self) -> usize {
        self.fleet.n_machines()
    }

    /// Snapshot of the fleet's replication health.
    pub fn fleet_status(&self) -> FleetStatus {
        self.fleet.status()
    }
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
    fleet: Arc<Fleet>,
    admission: Arc<Admission>,
}

impl ServerBackend {
    /// A server backend with the distributed cost preset and an empty fleet.
    pub fn new() -> Self {
        ServerBackend {
            cost: CostModel::distributed(),
            fleet: Arc::new(Fleet::default()),
            admission: Arc::new(Admission::default()),
        }
    }

    /// Overrides the cost model a trainer built on this backend seeds its
    /// cluster with (the cluster is authoritative at execution time; see
    /// [`ClusterBackend::cost_model`]).
    pub fn with_cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Sets how many scan workers each serving actor splits its query
    /// batches over (default: the host's parallelism, capped at 4). Workers
    /// probe the shared index snapshot for disjoint sub-ranges of the batch
    /// and per-query answers are independent, so the worker count never
    /// changes answers. Call before the fleet spawns (i.e. before the first
    /// `publish_codes`): each actor captures the count when it starts.
    pub fn with_scan_workers(self, workers: usize) -> Self {
        self.fleet
            .scan_workers
            .store(workers.max(1), Ordering::Relaxed);
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
        self.fleet.replication.lock().replicas = replicas;
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
        *self.fleet.replication.lock() = config;
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
        *self.admission.config.lock() = config;
        self
    }

    /// A retrieval front-end over this backend's serving fleet. Routers stay
    /// valid (and keep the fleet alive) after the backend is moved into a
    /// trainer.
    pub fn query_router(&self) -> QueryRouter {
        QueryRouter {
            fleet: Arc::clone(&self.fleet),
            admission: Arc::clone(&self.admission),
        }
    }

    /// Chaos/lifecycle: kills a machine — its actor shuts down (bounded,
    /// never hangs on a wedged thread), it leaves every shard assignment and
    /// is marked dead. In-flight queries fail over to the surviving
    /// replicas; the rebalancer re-replicates what it hosted.
    pub fn kill_machine(&self, machine: usize) {
        self.fleet.kill_machine(machine);
    }

    /// Chaos/lifecycle: restores a machine — a fresh actor is spawned if
    /// needed and probed (`Ping`); on a pong the machine is marked live and
    /// a synchronous rebalance re-replicates under-replicated shards onto
    /// it. Returns `false` if the probe timed out.
    pub fn restore_machine(&self, machine: usize) -> bool {
        self.fleet.restore_machine(machine)
    }

    /// Chaos: blocks a machine's actor thread for `duration`, simulating a
    /// wedged (alive but unresponsive) machine. Returns `false` if the
    /// machine has no actor.
    pub fn wedge_machine(&self, machine: usize, duration: Duration) -> bool {
        self.fleet
            .send_if_resident(machine, MachineMsg::Wedge(duration))
            .is_ok()
    }

    /// Runs one synchronous rebalancing pass (the same work the self-healing
    /// background pass does): prunes gone hosts, re-replicates
    /// under-replicated shards from live donors, trims over-replication.
    pub fn rebalance(&self) {
        self.fleet.rebalance_once();
    }

    /// Snapshot of the fleet's replication health.
    pub fn fleet_status(&self) -> FleetStatus {
        self.fleet.status()
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
        let seq = self.fleet.publish_seq.fetch_add(1, Ordering::SeqCst) + 1;
        let replicas = self.fleet.replication.lock().replicas.min(p);
        for shard in 0..p {
            let (points, cut) = shard_codes(cluster, shard, codes);
            let hosts: Vec<usize> = (0..replicas).map(|j| (shard + j) % p).collect();
            self.fleet.assignments.lock().insert(shard, hosts.clone());
            let load = |host: usize, points: Vec<usize>, codes: BinaryCodes| {
                let msg = MachineMsg::LoadShard {
                    shard,
                    points,
                    codes,
                    seq,
                };
                self.fleet.send_spawning(host, msg);
                self.fleet.record_success(host);
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
            self.fleet
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
                self.fleet
                    .publish_shard_updates(machine, shard_updates.clone());
            }
            updates.extend(shard_updates);
        }
        (updates, z_stats(cluster, n_submodels, start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::tests::{z_step_matches_sim, z_updates_follow_topology_order};
    use crate::ring::tests::{self as protocol, shards};

    /// Single-process reference over the database minus the points in
    /// `lost`, with answers mapped back to global point indices — what a
    /// degraded fleet that lost exactly those shards should answer.
    fn knn_excluding(
        db: &BinaryCodes,
        queries: &BinaryCodes,
        k: usize,
        lost: std::ops::Range<usize>,
    ) -> Vec<Vec<usize>> {
        let keep: Vec<usize> = (0..db.len()).filter(|i| !lost.contains(i)).collect();
        let mut sub = BinaryCodes::zeros(0, db.n_bits());
        for &i in &keep {
            sub.push_code(&db.to_f64_row(i));
        }
        parmac_retrieval::hamming_knn(&sub, queries, k)
            .into_iter()
            .map(|row| row.into_iter().map(|r| keep[r]).collect())
            .collect()
    }

    #[test]
    fn server_z_step_matches_sim() {
        z_step_matches_sim("server", &ServerBackend::new());
    }

    #[test]
    fn server_z_updates_arrive_in_topology_order() {
        z_updates_follow_topology_order(&ServerBackend::new());
    }

    // The W-step cases live in the protocol table (`ring::tests`); these are
    // its server cells by their old names.
    #[test]
    fn server_w_step_runs_the_full_protocol() {
        protocol::visits_every_machine_e_times("server", &ServerBackend::new());
    }

    #[test]
    fn server_w_step_visits_machines_in_ring_order() {
        protocol::shuffled_topology("server", &ServerBackend::new());
    }

    #[test]
    fn server_w_step_empty_submodels_and_single_machine() {
        protocol::empty_list("server", &ServerBackend::new());
        protocol::single_machine("server", &ServerBackend::new());
    }

    #[test]
    fn pre_faulted_envelopes_are_routed_around_the_dead_machine() {
        protocol::removed_machine("server", &ServerBackend::new());
    }

    #[test]
    fn published_codes_are_served_and_match_single_process_knn() {
        use parmac_linalg::Mat;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(3);
        let db = BinaryCodes::from_matrix(&Mat::random_uniform(60, 12, 0.0, 1.0, &mut rng));
        let queries = BinaryCodes::from_matrix(&Mat::random_uniform(5, 12, 0.0, 1.0, &mut rng));
        let cluster = SimCluster::new(shards(3, 60), CostModel::distributed());
        let backend = ServerBackend::new();
        backend.publish_codes(&cluster, &db);
        let router = backend.query_router();
        assert_eq!(router.n_machines(), 3);
        for k in [1usize, 7, 60] {
            assert_eq!(
                router.knn(&queries, k).expect_full(),
                parmac_retrieval::hamming_knn(&db, &queries, k),
                "k={k}"
            );
        }
    }

    #[test]
    fn replicated_publish_matches_single_process_knn() {
        // R = 2 places every shard on two machines; a healthy fleet must
        // answer exactly like the unreplicated one (read balancing only
        // changes which replica answers, never the answer).
        use parmac_linalg::Mat;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(29);
        let db = BinaryCodes::from_matrix(&Mat::random_uniform(60, 12, 0.0, 1.0, &mut rng));
        let queries = BinaryCodes::from_matrix(&Mat::random_uniform(6, 12, 0.0, 1.0, &mut rng));
        let cluster = SimCluster::new(shards(3, 60), CostModel::distributed());
        let backend = ServerBackend::new().with_replication(2);
        backend.publish_codes(&cluster, &db);
        let router = backend.query_router();
        let status = router.fleet_status();
        assert!(status.is_fully_replicated(), "{status:?}");
        assert_eq!(status.target_replicas, 2);
        let reference = parmac_retrieval::hamming_knn(&db, &queries, 7);
        // Several calls, so the read-balancing cursor rotates through every
        // replica choice.
        for _ in 0..4 {
            assert_eq!(router.knn(&queries, 7).expect_full(), reference);
        }
        assert_eq!(router.serving_stats().degraded, 0);
    }

    #[test]
    fn kill_at_r2_fails_over_with_full_coverage() {
        // The tentpole guarantee: at R = 2, killing *any single machine*
        // leaves every shard answerable — answers stay bitwise identical to
        // the single-process reference, coverage stays full.
        use parmac_linalg::Mat;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(31);
        let db = BinaryCodes::from_matrix(&Mat::random_uniform(60, 12, 0.0, 1.0, &mut rng));
        let queries = BinaryCodes::from_matrix(&Mat::random_uniform(5, 12, 0.0, 1.0, &mut rng));
        let cluster = SimCluster::new(shards(3, 60), CostModel::distributed());
        for victim in 0..3 {
            let backend = ServerBackend::new().with_replication(2);
            backend.publish_codes(&cluster, &db);
            backend.kill_machine(victim);
            let router = backend.query_router();
            for k in [1usize, 7, 60] {
                let response = router.knn(&queries, k);
                assert!(response.coverage.is_full(), "victim={victim} k={k}");
                assert_eq!(
                    response.answers,
                    parmac_retrieval::hamming_knn(&db, &queries, k),
                    "victim={victim} k={k}"
                );
            }
            let status = router.fleet_status();
            assert_eq!(status.dead_machines, 1, "victim={victim}");
        }
    }

    #[test]
    fn killed_machine_no_longer_shrinks_answers_silently() {
        // Regression for the pre-replication bug: a killed machine dropped
        // its shard from every answer with no signal to the caller. At R = 1
        // the shard *is* lost, but the response now says so: coverage is
        // degraded and the answers equal the reference over the surviving
        // shards — never a silently shorter candidate set.
        use parmac_linalg::Mat;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(37);
        let db = BinaryCodes::from_matrix(&Mat::random_uniform(60, 12, 0.0, 1.0, &mut rng));
        let queries = BinaryCodes::from_matrix(&Mat::random_uniform(5, 12, 0.0, 1.0, &mut rng));
        let cluster = SimCluster::new(shards(3, 60), CostModel::distributed());
        let backend = ServerBackend::new(); // R = 1
        backend.publish_codes(&cluster, &db);
        backend.kill_machine(1); // shard 1 = points 20..40, now lost
        let router = backend.query_router();
        let response = router.knn(&queries, 9);
        assert!(response.is_degraded(), "lost shard must be flagged");
        assert_eq!(
            response.coverage,
            Coverage {
                shards_answered: 2,
                shards_total: 3
            }
        );
        assert_eq!(response.answers, knn_excluding(&db, &queries, 9, 20..40));
        let stats = router.serving_stats();
        assert!(stats.degraded >= 1, "{stats:?}");
        // A republish is authoritative: it restores the machine's actor and
        // the lost shard, and coverage returns to full.
        backend.publish_codes(&cluster, &db);
        assert_eq!(
            router.knn(&queries, 9).expect_full(),
            parmac_retrieval::hamming_knn(&db, &queries, 9)
        );
    }

    #[test]
    #[should_panic(expected = "degraded")]
    fn expect_full_panics_on_degraded_coverage() {
        KnnResponse {
            answers: Vec::new(),
            coverage: Coverage {
                shards_answered: 1,
                shards_total: 2,
            },
        }
        .expect_full();
    }

    #[test]
    fn wedged_machine_fails_over_within_deadline_and_recovers() {
        // A wedged (alive but unresponsive) machine must cost at most the
        // replica timeout per wave, never a hang: queries fail over to the
        // other replica, the health tracker marks the machine dead after
        // consecutive failures, and a probe after it recovers revives it.
        use parmac_linalg::Mat;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(41);
        let db = BinaryCodes::from_matrix(&Mat::random_uniform(60, 12, 0.0, 1.0, &mut rng));
        let queries = BinaryCodes::from_matrix(&Mat::random_uniform(4, 12, 0.0, 1.0, &mut rng));
        let cluster = SimCluster::new(shards(3, 60), CostModel::distributed());
        let backend = ServerBackend::new().with_replication_config(ReplicationConfig {
            replicas: 2,
            replica_timeout: Duration::from_millis(100),
            query_deadline: Duration::from_secs(5),
            failure_threshold: 2,
        });
        backend.publish_codes(&cluster, &db);
        let router = backend.query_router();
        let reference = parmac_retrieval::hamming_knn(&db, &queries, 7);
        assert!(backend.wedge_machine(0, Duration::from_millis(600)));
        let start = Instant::now();
        // Every fan-out during the wedge must still produce the exact
        // full-coverage answer via the surviving replicas, within the
        // deadline. Repeated queries rack up consecutive failures on the
        // wedged machine until it is marked dead.
        for _ in 0..4 {
            assert_eq!(router.knn(&queries, 7).expect_full(), reference);
        }
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "queries must not hang on a wedged actor"
        );
        let stats = router.serving_stats();
        assert!(stats.failovers >= 1, "{stats:?}");
        assert_eq!(stats.degraded, 0, "R=2 must hide a single wedge");
        // Let the wedge pass, then probe: the machine answers again and is
        // marked live; the fleet converges back to full replication.
        thread::sleep(Duration::from_millis(700));
        let mut restored = false;
        for _ in 0..50 {
            if backend.restore_machine(0) {
                restored = true;
                break;
            }
            thread::sleep(Duration::from_millis(20));
        }
        assert!(restored, "recovered machine must pass the probe");
        let status = backend.fleet_status();
        assert_eq!(status.dead_machines, 0, "{status:?}");
        assert!(status.is_fully_replicated(), "{status:?}");
        assert_eq!(router.knn(&queries, 7).expect_full(), reference);
    }

    #[test]
    fn rebalance_reconverges_after_kill() {
        // Self-healing: after a kill, the rebalancer re-replicates the dead
        // machine's shards from the surviving replicas. Killing the *other*
        // original host afterwards must then still leave full coverage —
        // proof the new replica really exists and serves.
        use parmac_linalg::Mat;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(43);
        let db = BinaryCodes::from_matrix(&Mat::random_uniform(80, 12, 0.0, 1.0, &mut rng));
        let queries = BinaryCodes::from_matrix(&Mat::random_uniform(5, 12, 0.0, 1.0, &mut rng));
        let cluster = SimCluster::new(shards(4, 80), CostModel::distributed());
        let backend = ServerBackend::new().with_replication(2);
        backend.publish_codes(&cluster, &db);
        backend.kill_machine(0);
        backend.rebalance();
        let status = backend.fleet_status();
        assert!(status.is_fully_replicated(), "{status:?}");
        assert_eq!(status.live_machines, 3);
        // Shard 0's original hosts were machines 0 and 1. With 0 dead and
        // the fleet rebalanced, killing 1 as well must not lose the shard.
        backend.kill_machine(1);
        let router = backend.query_router();
        let response = router.knn(&queries, 9);
        assert!(response.coverage.is_full(), "{:?}", response.coverage);
        assert_eq!(
            response.answers,
            parmac_retrieval::hamming_knn(&db, &queries, 9)
        );
    }

    #[test]
    fn rebalanced_replicas_stay_fresh_through_z_updates() {
        // A replica created by the rebalancer must keep receiving training
        // publishes like an original: updates published after the rebalance
        // are visible even when every original host of the shard is gone.
        let cluster = SimCluster::new(shards(3, 12), CostModel::distributed());
        let backend = ServerBackend::new().with_replication(2);
        backend.publish_codes(&cluster, &BinaryCodes::zeros(12, 2));
        backend.kill_machine(0);
        backend.rebalance();
        assert!(backend.fleet_status().is_fully_replicated());
        // Point 2 lives in shard 0 (originally hosted on machines 0 and 1).
        backend.run_z_step(&cluster, 1, |_, shard| {
            shard
                .iter()
                .filter(|&&n| n == 2)
                .map(|&n| ZUpdate {
                    point: n,
                    code: vec![1.0, 1.0],
                })
                .collect()
        });
        backend.kill_machine(1);
        let router = backend.query_router();
        let q = BinaryCodes::from_bools(&[vec![true, true]]);
        let response = router.knn(&q, 1);
        assert!(response.coverage.is_full(), "{:?}", response.coverage);
        assert_eq!(response.answers, vec![vec![2]]);
    }

    #[test]
    fn restore_after_kill_requires_republish_at_r1() {
        // At R = 1 a killed machine's shard has no surviving replica: the
        // rebalancer cannot recreate data that no longer exists anywhere.
        // Restoring the machine brings back an *empty* actor — coverage
        // stays (correctly) degraded until the trainer republishes.
        let cluster = SimCluster::new(shards(2, 8), CostModel::distributed());
        let backend = ServerBackend::new();
        let codes = BinaryCodes::zeros(8, 2);
        backend.publish_codes(&cluster, &codes);
        backend.kill_machine(0);
        assert!(backend.restore_machine(0), "fresh actor must answer a ping");
        let router = backend.query_router();
        let q = BinaryCodes::from_bools(&[vec![false, false]]);
        let response = router.knn(&q, 3);
        assert!(response.is_degraded(), "lost shard cannot come back alone");
        assert_eq!(
            response.coverage,
            Coverage {
                shards_answered: 1,
                shards_total: 2
            }
        );
        backend.publish_codes(&cluster, &codes);
        let response = router.knn(&q, 3);
        assert!(response.coverage.is_full(), "{:?}", response.coverage);
        assert_eq!(response.answers, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn wedged_actor_drop_is_bounded() {
        // Satellite regression: dropping the backend used to join every
        // actor unconditionally, so a wedged actor blocked the drop for as
        // long as it stayed wedged. The drop path must abandon it after the
        // shutdown grace instead.
        let cluster = SimCluster::new(shards(2, 8), CostModel::distributed());
        let backend = ServerBackend::new();
        backend.publish_codes(&cluster, &BinaryCodes::zeros(8, 2));
        assert!(backend.wedge_machine(0, Duration::from_secs(10)));
        let start = Instant::now();
        drop(backend);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "drop must not wait out a 10s wedge (took {:?})",
            start.elapsed()
        );
    }

    #[test]
    fn fleet_status_reports_replication_health() {
        let cluster = SimCluster::new(shards(3, 12), CostModel::distributed());
        let backend = ServerBackend::new().with_replication(2);
        backend.publish_codes(&cluster, &BinaryCodes::zeros(12, 2));
        let status = backend.fleet_status();
        assert_eq!(status.target_replicas, 2);
        assert_eq!(status.live_machines, 3);
        assert_eq!(status.dead_machines, 0);
        assert_eq!(status.shards, 3);
        assert!(status.is_fully_replicated());
        backend.kill_machine(2);
        backend.rebalance();
        let status = backend.fleet_status();
        assert_eq!(status.live_machines, 2);
        assert_eq!(status.dead_machines, 1);
        assert!(status.is_fully_replicated(), "{status:?}");
    }

    #[test]
    fn z_step_refreshes_the_served_codes() {
        let cluster = SimCluster::new(shards(2, 8), CostModel::distributed());
        let backend = ServerBackend::new();
        let initial = BinaryCodes::zeros(8, 2);
        backend.publish_codes(&cluster, &initial);
        let router = backend.query_router();
        // Flip point 5's code to (1, 1); a (1, 1) query must now rank it first.
        backend.run_z_step(&cluster, 1, |_, shard| {
            shard
                .iter()
                .filter(|&&n| n == 5)
                .map(|&n| ZUpdate {
                    point: n,
                    code: vec![1.0, 1.0],
                })
                .collect()
        });
        let q = BinaryCodes::from_bools(&[vec![true, true]]);
        assert_eq!(router.knn(&q, 1).expect_full(), vec![vec![5]]);
    }

    #[test]
    fn mismatched_query_width_yields_empty_answers_not_a_dead_actor() {
        // Regression: a width-mismatched query used to panic inside the
        // detached serving actor, leaving every later call blocked forever.
        // The shard is resident, so it counts as answered (empty), with full
        // coverage — retrying another replica could not do better.
        let cluster = SimCluster::new(shards(2, 8), CostModel::distributed());
        let backend = ServerBackend::new();
        backend.publish_codes(&cluster, &BinaryCodes::zeros(8, 4));
        let router = backend.query_router();
        let wrong_width = BinaryCodes::from_bools(&[vec![true, false]]);
        assert_eq!(
            router.knn(&wrong_width, 3).expect_full(),
            vec![Vec::<usize>::new()]
        );
        // The fleet is still alive and serves well-formed queries.
        let ok = BinaryCodes::from_bools(&[vec![false, false, false, false]]);
        assert_eq!(router.knn(&ok, 1).expect_full(), vec![vec![0]]);
    }

    #[test]
    fn streamed_point_codes_are_served_incrementally() {
        // publish_point_codes must reach the (possibly brand-new) machine's
        // actor without a full fleet reload.
        let cluster = SimCluster::new(shards(2, 8), CostModel::distributed());
        let backend = ServerBackend::new();
        backend.publish_codes(&cluster, &BinaryCodes::zeros(8, 2));
        let mut all = BinaryCodes::zeros(8, 2);
        all.push_code(&[1.0, 1.0]); // point 8 joins machine 2 (a new actor)
        backend.publish_point_codes(2, &[8], &all);
        let router = backend.query_router();
        assert_eq!(router.n_machines(), 3);
        let q = BinaryCodes::from_bools(&[vec![true, true]]);
        assert_eq!(router.knn(&q, 1).expect_full(), vec![vec![8]]);
    }

    #[test]
    fn router_on_an_empty_fleet_returns_empty_lists() {
        let backend = ServerBackend::new();
        let router = backend.query_router();
        let q = BinaryCodes::from_bools(&[vec![true, false]]);
        let response = router.knn(&q, 3);
        assert!(response.coverage.is_full(), "0/0 is vacuously full");
        assert_eq!(response.answers, vec![Vec::<usize>::new()]);
        assert_eq!(router.n_machines(), 0);
    }

    #[test]
    fn knn_shared_does_not_copy_the_query_batch() {
        // The satellite regression: `knn` used to deep-clone the batch on
        // every call. The Arc-accepting entry must share the caller's
        // allocation across the fan-out and release it afterwards.
        let cluster = SimCluster::new(shards(3, 30), CostModel::distributed());
        let backend = ServerBackend::new();
        use parmac_linalg::Mat;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(17);
        let db = BinaryCodes::from_matrix(&Mat::random_uniform(30, 8, 0.0, 1.0, &mut rng));
        backend.publish_codes(&cluster, &db);
        let router = backend.query_router();
        let queries = Arc::new(BinaryCodes::from_matrix(&Mat::random_uniform(
            4, 8, 0.0, 1.0, &mut rng,
        )));
        let shared = router.knn_shared(&queries, 5);
        assert_eq!(shared, router.knn(&queries, 5));
        assert_eq!(
            shared.expect_full(),
            parmac_retrieval::hamming_knn(&db, &queries, 5)
        );
        // Every fan-out clone has been released: the caller's Arc is unique
        // again, so no machine kept (or copied into) a private batch.
        assert_eq!(Arc::strong_count(&queries), 1);
    }

    #[test]
    fn scan_workers_do_not_change_answers() {
        // Query-partitioned multi-worker probing must stay bitwise identical
        // to the serial scan. MIN_QUERIES_PER_SCAN_TASK would keep a small
        // batch serial, so use a batch large enough to actually split.
        use parmac_linalg::Mat;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let n = 3000;
        let batch = 3 * (MIN_QUERIES_PER_SCAN_TASK * 2);
        let mut rng = SmallRng::seed_from_u64(18);
        let db = BinaryCodes::from_matrix(&Mat::random_uniform(n, 16, 0.0, 1.0, &mut rng));
        let queries = BinaryCodes::from_matrix(&Mat::random_uniform(batch, 16, 0.0, 1.0, &mut rng));
        let cluster = SimCluster::new(shards(3, n), CostModel::distributed());
        let reference = parmac_retrieval::hamming_knn(&db, &queries, 40);
        let shared = Arc::new(queries.clone());
        let mut budgeted_reference = None;
        for workers in [1usize, 3] {
            let backend = ServerBackend::new().with_scan_workers(workers);
            backend.publish_codes(&cluster, &db);
            let router = backend.query_router();
            assert_eq!(
                router.knn(&queries, 40).expect_full(),
                reference,
                "workers={workers}"
            );
            // The split must also leave budgeted answers independent of the
            // worker count: probe order is per query, not per worker.
            let budgeted = router.knn_budgeted(&shared, 40, 1);
            let pinned = budgeted_reference.get_or_insert_with(|| budgeted.clone());
            assert_eq!(&budgeted, pinned, "budgeted, workers={workers}");
        }
    }

    #[test]
    fn budgeted_queries_saturate_to_the_exact_answer() {
        use parmac_linalg::Mat;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(23);
        let db = BinaryCodes::from_matrix(&Mat::random_uniform(240, 16, 0.0, 1.0, &mut rng));
        let cluster = SimCluster::new(shards(3, 240), CostModel::distributed());
        let backend = ServerBackend::new();
        backend.publish_codes(&cluster, &db);
        let router = backend.query_router();
        let queries = Arc::new(BinaryCodes::from_matrix(&Mat::random_uniform(
            5, 16, 0.0, 1.0, &mut rng,
        )));
        let exact = parmac_retrieval::hamming_knn(&db, &queries, 9);
        // A budget covering every bucket (2^16 is a safe upper bound here)
        // must equal exact mode, both direct and through admission.
        assert_eq!(
            router.knn_budgeted(&queries, 9, 1 << 16).expect_full(),
            exact
        );
        assert_eq!(
            router
                .knn_admitted_budgeted(Arc::clone(&queries), 9, 1 << 16)
                .expect("admitted")
                .expect_full(),
            exact
        );
        // A small budget still returns well-formed sorted hit lists with at
        // most k entries, each a true database point.
        for answers in router.knn_budgeted(&queries, 9, 1).answers {
            assert!(answers.len() <= 9);
            for &id in &answers {
                assert!(id < db.len());
            }
        }
    }

    #[test]
    fn admitted_queries_match_direct_fanout_and_are_accounted() {
        use parmac_linalg::Mat;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(19);
        let db = BinaryCodes::from_matrix(&Mat::random_uniform(60, 12, 0.0, 1.0, &mut rng));
        let cluster = SimCluster::new(shards(3, 60), CostModel::distributed());
        let backend = ServerBackend::new();
        backend.publish_codes(&cluster, &db);
        let router = backend.query_router();
        let queries = Arc::new(BinaryCodes::from_matrix(&Mat::random_uniform(
            5, 12, 0.0, 1.0, &mut rng,
        )));
        for k in [1usize, 7, 60] {
            assert_eq!(
                router
                    .knn_admitted(Arc::clone(&queries), k)
                    .expect("admitted")
                    .expect_full(),
                parmac_retrieval::hamming_knn(&db, &queries, k),
                "k={k}"
            );
        }
        let stats = router.serving_stats();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.answered, 3);
        assert_eq!(stats.shed, 0);
        assert_eq!(stats.submitted, stats.answered + stats.shed);
    }

    #[test]
    fn coalesced_submissions_with_different_k_get_their_own_topk() {
        // Force coalescing deterministically: saturate the admission loop
        // with a slow first batch is racy, so instead drive serve_coalesced
        // directly through the public API with many concurrent clients and
        // verify every answer against the single-process reference.
        use parmac_linalg::Mat;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(20);
        let db = BinaryCodes::from_matrix(&Mat::random_uniform(90, 10, 0.0, 1.0, &mut rng));
        let cluster = SimCluster::new(shards(3, 90), CostModel::distributed());
        let backend = ServerBackend::new();
        backend.publish_codes(&cluster, &db);
        let router = backend.query_router();
        let batches: Vec<(Arc<BinaryCodes>, usize)> = (0..12)
            .map(|i| {
                let q = Arc::new(BinaryCodes::from_matrix(&Mat::random_uniform(
                    1 + i % 3,
                    10,
                    0.0,
                    1.0,
                    &mut rng,
                )));
                (q, 1 + 7 * (i % 4))
            })
            .collect();
        thread::scope(|scope| {
            for (q, k) in &batches {
                let router = router.clone();
                let db = &db;
                scope.spawn(move || {
                    let got = router
                        .knn_admitted(Arc::clone(q), *k)
                        .expect("default queue is large enough");
                    assert_eq!(
                        got.expect_full(),
                        parmac_retrieval::hamming_knn(db, q, *k),
                        "k={k}"
                    );
                });
            }
        });
        let stats = router.serving_stats();
        assert_eq!(stats.submitted, 12);
        assert_eq!(stats.answered, 12);
        assert_eq!(stats.shed, 0);
    }

    #[test]
    fn saturated_admission_queue_sheds_explicitly_and_accounts_every_query() {
        // Tiny queue + many concurrent clients: some submissions must be
        // shed with an explicit error; every answered one must be exact; and
        // the counters must balance (answered + shed == submitted).
        use parmac_linalg::Mat;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(21);
        let db = BinaryCodes::from_matrix(&Mat::random_uniform(80, 12, 0.0, 1.0, &mut rng));
        let cluster = SimCluster::new(shards(4, 80), CostModel::distributed());
        let backend = ServerBackend::new().with_admission_config(AdmissionConfig {
            queue_capacity: 1,
            max_batch: 4,
        });
        backend.publish_codes(&cluster, &db);
        let router = backend.query_router();
        let queries = Arc::new(BinaryCodes::from_matrix(&Mat::random_uniform(
            2, 12, 0.0, 1.0, &mut rng,
        )));
        let reference = parmac_retrieval::hamming_knn(&db, &queries, 9);
        let clients = 8usize;
        let per_client = 25usize;
        let (answered, shed) = thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    let router = router.clone();
                    let queries = Arc::clone(&queries);
                    let reference = &reference;
                    scope.spawn(move || {
                        let (mut ok, mut shed) = (0u64, 0u64);
                        for _ in 0..per_client {
                            match router.knn_admitted(Arc::clone(&queries), 9) {
                                Ok(response) => {
                                    assert!(response.coverage.is_full());
                                    assert_eq!(
                                        &response.answers, reference,
                                        "answered must be exact"
                                    );
                                    ok += 1;
                                }
                                Err(AdmissionError::Shed { queue_capacity }) => {
                                    assert_eq!(queue_capacity, 1);
                                    shed += 1;
                                }
                                Err(AdmissionError::Closed) => {
                                    panic!("admission loop died mid-test")
                                }
                            }
                        }
                        (ok, shed)
                    })
                })
                .collect();
            handles.into_iter().fold((0u64, 0u64), |acc, h| {
                let (ok, shed) = h.join().expect("client thread");
                (acc.0 + ok, acc.1 + shed)
            })
        });
        let stats = router.serving_stats();
        assert_eq!(stats.submitted, (clients * per_client) as u64);
        assert_eq!(stats.answered, answered);
        assert_eq!(stats.shed, shed);
        assert_eq!(
            stats.submitted,
            stats.answered + stats.shed,
            "every query accounted for: {stats:?}"
        );
        assert!(stats.batches >= 1);
    }

    #[test]
    fn admitted_path_on_an_empty_fleet_returns_empty_lists() {
        let backend = ServerBackend::new();
        let router = backend.query_router();
        let q = Arc::new(BinaryCodes::from_bools(&[vec![true, false]]));
        let response = router.knn_admitted(q, 3).expect("admitted");
        assert!(response.coverage.is_full(), "0/0 is vacuously full");
        assert_eq!(response.answers, vec![Vec::<usize>::new()]);
    }

    #[test]
    fn server_exposes_name_and_cost() {
        let backend = ServerBackend::new().with_cost_model(CostModel::shared_memory());
        assert_eq!(backend.name(), "server");
        assert_eq!(backend.cost_model(), CostModel::shared_memory());
        assert_eq!(
            ServerBackend::default().cost_model(),
            CostModel::distributed()
        );
    }

    /// Fetches `(points, codes, seq)` for `shard` from `machine`'s actor.
    fn fetch_shard(
        fleet: &Arc<Fleet>,
        machine: usize,
        shard: usize,
    ) -> Option<(Vec<usize>, BinaryCodes, u64)> {
        let (tx, rx) = unbounded();
        fleet
            .send_if_resident(machine, MachineMsg::FetchShard { shard, reply: tx })
            .ok()?;
        rx.recv_timeout(Duration::from_secs(5)).ok().flatten()
    }

    #[test]
    fn stale_install_replica_cannot_roll_back_a_newer_publish() {
        // Regression for the lock that used to serialise publishes against
        // the rebalancer: ordering replaced it. A replica snapshot fetched
        // before a publish (low seq) must be rejected by an actor that
        // already holds the publish's authoritative data (higher seq).
        let fleet = Arc::new(Fleet::default());
        let mut v1 = BinaryCodes::zeros(2, 8);
        v1.set_code(0, &[1.0; 8]);
        let mut v2 = BinaryCodes::zeros(2, 8);
        v2.set_code(1, &[1.0; 8]);

        fleet.send_spawning(
            0,
            MachineMsg::LoadShard {
                shard: 0,
                points: vec![4, 5],
                codes: v2.clone(),
                seq: 2,
            },
        );
        fleet.send_spawning(
            0,
            MachineMsg::InstallReplica {
                shard: 0,
                points: vec![4, 5],
                codes: v1.clone(),
                seq: 1,
            },
        );
        let (_, codes, seq) = fetch_shard(&fleet, 0, 0).expect("shard hosted");
        assert_eq!(seq, 2, "stale install must not displace the publish");
        assert_eq!(codes, v2);

        // An older LoadShard is equally stale.
        fleet.send_spawning(
            0,
            MachineMsg::LoadShard {
                shard: 0,
                points: vec![4, 5],
                codes: v1.clone(),
                seq: 1,
            },
        );
        let (_, codes, seq) = fetch_shard(&fleet, 0, 0).expect("shard hosted");
        assert_eq!((seq, codes), (2, v2));

        // On a machine with nothing newer the same install is welcome.
        fleet.send_spawning(
            1,
            MachineMsg::InstallReplica {
                shard: 0,
                points: vec![4, 5],
                codes: v1.clone(),
                seq: 1,
            },
        );
        let (_, codes, seq) = fetch_shard(&fleet, 1, 0).expect("shard hosted");
        assert_eq!((seq, codes), (1, v1));
    }

    #[test]
    fn publish_racing_rebalance_converges_to_the_latest_publish() {
        // The old design held `rebalance_lock` across every publish and
        // every rebalance pass. Now they genuinely overlap; seq ordering
        // must still make the newest publish win on every assigned host.
        use parmac_linalg::Mat;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(41);
        let v1 = BinaryCodes::from_matrix(&Mat::random_uniform(60, 12, 0.0, 1.0, &mut rng));
        let v2 = BinaryCodes::from_matrix(&Mat::random_uniform(60, 12, 0.0, 1.0, &mut rng));
        let queries = BinaryCodes::from_matrix(&Mat::random_uniform(5, 12, 0.0, 1.0, &mut rng));
        let cluster = SimCluster::new(shards(3, 60), CostModel::distributed());

        let backend = ServerBackend::new().with_replication(2);
        backend.publish_codes(&cluster, &v1);
        backend.kill_machine(1); // give the racing passes real work
        thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..3 {
                    backend.rebalance();
                }
            });
            backend.publish_codes(&cluster, &v2);
        });
        backend.rebalance();

        let status = backend.fleet_status();
        assert!(status.is_fully_replicated(), "{status:?}");
        // Every assigned host must serve the v2 publish — nothing rolled
        // back by a racing install, nothing left at the v1 seq.
        let assignments = backend.fleet.assignments.lock().clone();
        assert_eq!(assignments.len(), 3);
        for (&shard, hosts) in &assignments {
            let expected: Vec<usize> = cluster.shard(shard).to_vec();
            for &host in hosts {
                let (points, codes, seq) =
                    fetch_shard(&backend.fleet, host, shard).expect("assigned host hosts shard");
                assert_eq!(seq, 2, "shard {shard} on machine {host}");
                assert_eq!(points, expected, "shard {shard} on machine {host}");
                for (row, &point) in expected.iter().enumerate() {
                    assert_eq!(
                        codes.to_f64_row(row),
                        v2.to_f64_row(point),
                        "shard {shard} host {host} point {point}"
                    );
                }
            }
        }
        assert_eq!(
            backend.query_router().knn(&queries, 7).expect_full(),
            parmac_retrieval::hamming_knn(&v2, &queries, 7)
        );
    }

    #[test]
    fn admission_drop_joins_its_loop_without_holding_the_handle_lock() {
        // Regression for the `if let Some(h) = self.handle.lock().take()`
        // scrutinee: under Rust 2021 scoping that guard lived across the
        // bounded join. The drop must complete promptly even when another
        // thread pokes the handle lock concurrently.
        use parmac_linalg::Mat;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(43);
        let db = BinaryCodes::from_matrix(&Mat::random_uniform(30, 8, 0.0, 1.0, &mut rng));
        let queries = BinaryCodes::from_matrix(&Mat::random_uniform(2, 8, 0.0, 1.0, &mut rng));
        let cluster = SimCluster::new(shards(3, 30), CostModel::distributed());
        let backend = ServerBackend::new();
        backend.publish_codes(&cluster, &db);
        let router = backend.query_router();
        let _ = router.knn_admitted(Arc::new(queries), 3).expect("admitted");
        let started = Instant::now();
        drop(backend);
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "drop wedged: {:?}",
            started.elapsed()
        );
    }
}
