//! Load generators for `QueryRouter::knn_admitted`: a closed loop (each
//! client sends its next call when the previous one returns; latency from
//! send) and an open loop (senders on a fixed schedule; latency from the due
//! time, so a stall is charged to every call it delays). Every answer is
//! checked as it arrives.

use crate::spec::{K_NEIGHBOURS, LOAD_THREADS, QUERIES_PER_CALL};
use crate::stats::percentile;
use crate::trace::Tracer;
use parmac_cluster::QueryRouter;
use parmac_hash::BinaryCodes;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the generators saw, summed over their threads.
#[derive(Debug, Default, Clone)]
pub struct CallLog {
    /// Latency of every call that came back with an answer, in µs.
    pub latency_us: Vec<f64>,
    /// How late each open-loop call was sent after its due time, in µs.
    pub late_us: Vec<f64>,
    pub submitted: u64,
    /// Calls refused by admission (`AdmissionError::Shed`).
    pub shed: u64,
    /// Calls that failed otherwise (`AdmissionError::Closed`).
    pub errored: u64,
    /// Answers with partial coverage.
    pub degraded: u64,
    /// Full-coverage answers that lost a check (shape, hit count, or the
    /// precomputed reference).
    pub wrong: u64,
    /// Correct answers that also met the latency limit.
    pub within_slo: u64,
    pub window_secs: f64,
}

impl CallLog {
    /// Adds another generator's (or another window's) calls to this log.
    pub fn absorb(&mut self, other: CallLog) {
        self.latency_us.extend(other.latency_us);
        self.late_us.extend(other.late_us);
        self.submitted += other.submitted;
        self.shed += other.shed;
        self.errored += other.errored;
        self.degraded += other.degraded;
        self.wrong += other.wrong;
        self.within_slo += other.within_slo;
        self.window_secs += other.window_secs;
    }

    pub fn failed(&self) -> u64 {
        self.shed + self.errored + self.degraded + self.wrong
    }

    pub fn correct(&self) -> u64 {
        self.submitted - self.failed()
    }

    pub fn qps(&self) -> f64 {
        (self.correct() as usize * QUERIES_PER_CALL) as f64 / self.window_secs.max(1e-9)
    }

    /// (p50, p99) of the answered calls' latency, in µs.
    pub fn p50_p99_us(&self) -> (f64, f64) {
        let mut sorted = self.latency_us.clone();
        sorted.sort_by(f64::total_cmp);
        (percentile(&sorted, 50.0), percentile(&sorted, 99.0))
    }

    pub fn share(&self, count: u64) -> f64 {
        count as f64 / self.submitted.max(1) as f64
    }
}

/// The batches to send, what each must answer, and how answers are judged.
pub struct Load<'a> {
    pub router: &'a QueryRouter,
    pub batches: &'a [Arc<BinaryCodes>],
    /// Per batch, the reference answer (`hamming_knn` over the resident
    /// corpus); `None` while training moves the corpus under the queries,
    /// when only coverage and hit count can be checked.
    pub expected: Option<&'a [Vec<Vec<usize>>]>,
    /// Hits a full answer holds: `K_NEIGHBOURS`, or the corpus size if that
    /// is smaller.
    pub hits_per_query: usize,
    pub slo_us: f64,
    /// Where to record a span per call, and under which parent.
    pub tracer: Option<(&'a Tracer, u64)>,
}

impl Load<'_> {
    /// One call: send batch `b`, judge the reply, log it. Latency runs from
    /// `clock_start` (the send time, or the due time in an open loop).
    fn call(&self, b: usize, clock_start: Instant, log: &mut CallLog) {
        log.submitted += 1;
        let sent = Instant::now();
        let reply = self
            .router
            .knn_admitted(Arc::clone(&self.batches[b]), K_NEIGHBOURS);
        let done = Instant::now();
        if let Some((tracer, parent)) = self.tracer {
            tracer.record(
                "cluster.knn_admitted",
                Some(parent),
                "server",
                None,
                sent,
                done,
            );
        }
        let response = match reply {
            Ok(response) => response,
            Err(parmac_cluster::AdmissionError::Shed { .. }) => {
                log.shed += 1;
                return;
            }
            Err(parmac_cluster::AdmissionError::Closed) => {
                log.errored += 1;
                return;
            }
        };
        let latency_us = done.duration_since(clock_start).as_secs_f64() * 1e6;
        log.latency_us.push(latency_us);
        if !response.coverage.is_full() {
            log.degraded += 1;
            return;
        }
        let shape_ok = response.answers.len() == self.batches[b].len()
            && response
                .answers
                .iter()
                .all(|hits| hits.len() == self.hits_per_query);
        let matches = self
            .expected
            .is_none_or(|expected| response.answers == expected[b]);
        if !(shape_ok && matches) {
            log.wrong += 1;
        } else if latency_us <= self.slo_us {
            log.within_slo += 1;
        }
    }
}

/// Closed loop for `window`: `LOAD_THREADS` clients, each cycling through
/// its own stride of the batches.
pub fn closed_loop(load: &Load<'_>, window: Duration) -> CallLog {
    let start = Instant::now();
    let deadline = start + window;
    let mut total = CallLog::default();
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..LOAD_THREADS)
            .map(|client| {
                scope.spawn(move || {
                    let mut log = CallLog::default();
                    let mut b = client * load.batches.len() / LOAD_THREADS;
                    while Instant::now() < deadline {
                        load.call(b, Instant::now(), &mut log);
                        b = (b + 1) % load.batches.len();
                    }
                    log
                })
            })
            .collect();
        for client in clients {
            total.absorb(client.join().expect("closed-loop client panicked"));
        }
    });
    total.window_secs = start.elapsed().as_secs_f64();
    total
}

/// Open loop at `calls_per_s` (over all senders) for as long as `work` runs
/// on the calling thread: training, or a plain sleep for a quiesced window.
pub fn open_loop_during<R>(
    load: &Load<'_>,
    calls_per_s: f64,
    work: impl FnOnce() -> R,
) -> (R, CallLog) {
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let period = Duration::from_secs_f64(LOAD_THREADS as f64 / calls_per_s);
    let mut total = CallLog::default();
    let out = std::thread::scope(|scope| {
        let stop = &stop;
        let senders: Vec<_> = (0..LOAD_THREADS)
            .map(|sender| {
                scope.spawn(move || {
                    let mut log = CallLog::default();
                    let offset = period.mul_f64(sender as f64 / LOAD_THREADS as f64);
                    let mut b = sender * load.batches.len() / LOAD_THREADS;
                    let mut j = 0u32;
                    loop {
                        let due = start + offset + period * j;
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        // Acquire pairs with the Release store below: a
                        // sender that sees the flag sends nothing further.
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let late = Instant::now().saturating_duration_since(due);
                        log.late_us.push(late.as_secs_f64() * 1e6);
                        load.call(b, due, &mut log);
                        b = (b + 1) % load.batches.len();
                        j += 1;
                    }
                    log
                })
            })
            .collect();
        let out = work();
        stop.store(true, Ordering::Release);
        for sender in senders {
            total.absorb(sender.join().expect("open-loop sender panicked"));
        }
        out
    });
    total.window_secs = start.elapsed().as_secs_f64();
    (out, total)
}
