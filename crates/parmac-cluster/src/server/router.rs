//! The query path: the coverage-aware fan-out with replica failover, the
//! coalescing admission queue, and the [`QueryRouter`] front-end over both.

use super::fleet::{join_bounded, Fleet, FleetStatus, SHUTDOWN_GRACE};
use super::{Coverage, KnnResponse, MachineMsg, Query, QueryReply};
use crate::waits;
use crossbeam_channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use parking_lot::Mutex;
use parmac_hash::BinaryCodes;
use parmac_retrieval::merge_shard_topk;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// The result of one fan-out: per answering shard (ascending shard order)
/// the per-query hit lists, plus the coverage achieved.
struct FanOut {
    per_shard: Vec<Vec<Vec<(u32, usize)>>>,
    coverage: Coverage,
}

impl FanOut {
    /// The global top-`k` of each query in `rows`, consuming their per-shard
    /// lists: each is the ascending prefix of its shard's ranking, so any
    /// `k` up to the fan-out's own gives that query's exact answer.
    fn merge_rows(&mut self, rows: Range<usize>, k: usize) -> Vec<Vec<usize>> {
        rows.map(|q| {
            let lists: Vec<Vec<(u32, usize)>> = self
                .per_shard
                .iter_mut()
                .map(|hits| std::mem::take(&mut hits[q]))
                .collect();
            merge_shard_topk(&lists, k)
        })
        .collect()
    }
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
#[derive(Default)]
pub(super) struct Admission {
    handle: Mutex<Option<AdmissionHandle>>,
    pub(super) config: Mutex<AdmissionConfig>,
    counters: Arc<AdmissionCounters>,
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
        let rows = offset..offset + pending.queries.len();
        offset = rows.end;
        let answers = fan.merge_rows(rows, pending.k);
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
#[derive(Clone, Default)]
pub struct QueryRouter {
    pub(super) fleet: Arc<Fleet>,
    pub(super) admission: Arc<Admission>,
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
    /// the serving stack; see
    /// [`parmac_retrieval::PrefixIndex::topk_batched`]). Recall against the
    /// exact answer is monotone non-decreasing in `probes`; a budget of at
    /// least every machine's occupied-bucket count is exact mode.
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
        KnnResponse {
            answers: fan.merge_rows(0..queries.len(), k),
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
