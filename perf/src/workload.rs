//! One workload, start to finish, with tracing off: interleaved training
//! passes over the five backends, then the serving windows against the
//! `ServerBackend` fleet the last pass left resident. Produces every
//! end-to-end metric.

use crate::gen::{self, Inputs};
use crate::report::{parallel_valid, peak_rss_mb, Report};
use crate::serve::{closed_loop, CallLog, Load};
use crate::spec::{
    Corpus, LatencyLoop, Workload, BACKENDS, K_NEIGHBOURS, QUERIES_PER_CALL, QUERY_BATCHES,
};
use crate::stats::median;
use crate::train::{run_backend, Drive, RunOutcome, TrainLoad};
use parmac_cluster::{ClusterBackend, CostModel, QueryRouter, ServerBackend, SimCluster};
use parmac_data::partition_equal;
use parmac_hash::BinaryCodes;
use parmac_retrieval::hamming_knn;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Passes a full run makes at least, whatever the clock says (the issue's
/// R ≥ 5); sizes are chosen so that they fit the training share.
const MIN_PASSES: usize = 5;
/// Times the corpus is published to take `setup_s`'s serving part as a
/// median.
const PUBLISH_REPEATS: usize = 3;

/// How long a run measures and how much of it.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    pub smoke: bool,
}

impl Budget {
    fn min_passes(&self) -> usize {
        if self.smoke {
            1
        } else {
            MIN_PASSES
        }
    }
}

pub fn new_report(w: &Workload, seed: u64, budget: Budget, traced: bool) -> Report {
    Report {
        workload: w.name,
        seed,
        seconds: budget.seconds,
        traced,
        smoke: budget.smoke,
        params_json: w.params_json(),
        metrics: Vec::new(),
        derived: Vec::new(),
        ops_attempted: 0,
        ops_failed: 0,
        failures: Vec::new(),
    }
}

pub fn train_load(w: &Workload) -> Option<TrainLoad> {
    match w.latency_loop {
        LatencyLoop::OpenUnderTraining { calls_per_s } => Some(TrainLoad {
            calls_per_s,
            slo_us: w.slo_ms * 1e3,
        }),
        LatencyLoop::ClosedQuiesced { .. } => None,
    }
}

/// Runs one backend, turning a panic (a step timeout, a dead worker) into a
/// failed operation count instead of a lost run.
pub fn guarded_run(
    backend: &'static str,
    w: &Workload,
    seed: u64,
    inputs: &Inputs,
    drive: &Drive<'_>,
    load: Option<&TrainLoad>,
    report: &mut Report,
) -> Option<RunOutcome> {
    let cfg = w.config(seed);
    report.ops_attempted += w.iterations as u64;
    match catch_unwind(AssertUnwindSafe(|| {
        run_backend(backend, w, cfg, inputs, drive, load)
    })) {
        Ok(outcome) => Some(outcome),
        Err(_) => {
            report.fail(
                w.iterations as u64,
                format!("{backend}: training run panicked"),
            );
            None
        }
    }
}

/// What the fleet serves after training and what each batch must answer.
pub struct Serving {
    pub server: ServerBackend,
    pub router: QueryRouter,
    pub corpus: BinaryCodes,
    pub cluster: SimCluster,
    pub batches: Vec<Arc<BinaryCodes>>,
    pub expected: Vec<Vec<Vec<usize>>>,
}

impl Serving {
    /// Builds the corpus and the reference answers (outside every timed
    /// window) for the fleet `trained` left resident.
    pub fn prepare(w: &Workload, seed: u64, inputs: &Inputs, trained: &RunOutcome) -> Serving {
        let (server, router) = trained
            .fleet
            .clone()
            .expect("the server run keeps its fleet");
        let (corpus, query_codes) = match w.corpus {
            Corpus::Trained => (
                trained.codes.clone(),
                trained.model.encode(&inputs.query_features),
            ),
            Corpus::Uniform { n } => (
                gen::uniform_codes(n, w.bits, seed),
                gen::uniform_codes(
                    QUERY_BATCHES * QUERIES_PER_CALL,
                    w.bits,
                    seed.wrapping_add(1),
                ),
            ),
        };
        let shards = partition_equal(corpus.len(), w.machines).into_shards();
        let cluster = SimCluster::new(shards, CostModel::distributed());
        let batches = gen::query_batches(&query_codes);
        let expected = batches
            .iter()
            .map(|b| hamming_knn(&corpus, b, K_NEIGHBOURS))
            .collect();
        Serving {
            server,
            router,
            corpus,
            cluster,
            batches,
            expected,
        }
    }

    /// Points the load at the fleet a later server run left resident. Every
    /// run ends with the same codes, so the reference answers stand — and a
    /// fleet that disagrees fails the answer check.
    pub fn attach(&mut self, trained: &RunOutcome) {
        let (server, router) = trained
            .fleet
            .clone()
            .expect("the server run keeps its fleet");
        self.server = server;
        self.router = router;
    }

    pub fn load<'a>(
        &'a self,
        w: &Workload,
        tracer: Option<(&'a crate::trace::Tracer, u64)>,
    ) -> Load<'a> {
        Load {
            router: &self.router,
            batches: &self.batches,
            expected: Some(&self.expected),
            hits_per_query: K_NEIGHBOURS.min(self.corpus.len()),
            slo_us: w.slo_ms * 1e3,
            tracer,
        }
    }

    /// `publish_codes` of the corpus plus the first query against it.
    pub fn publish_and_first_query(&self) -> f64 {
        let start = Instant::now();
        self.server.publish_codes(&self.cluster, &self.corpus);
        let reply = self
            .router
            .knn_admitted(Arc::clone(&self.batches[0]), K_NEIGHBOURS);
        std::hint::black_box(reply.is_ok());
        start.elapsed().as_secs_f64()
    }

    /// At a quiesce point every submission is accounted for.
    pub fn check_accounting(&self, report: &mut Report) {
        let stats = self.router.serving_stats();
        if stats.answered + stats.shed != stats.submitted {
            report.fail(
                1,
                format!("admission accounting does not balance: {stats:?}"),
            );
        }
    }
}

/// Folds a call log into the tally.
pub fn count_calls(report: &mut Report, what: &str, log: &CallLog) {
    report.ops_attempted += log.submitted;
    if log.failed() > 0 {
        report.fail(
            log.failed(),
            format!(
                "{what}: {} shed, {} errored, {} degraded, {} wrong of {} calls",
                log.shed, log.errored, log.degraded, log.wrong, log.submitted
            ),
        );
    }
}

pub fn run_plain(w: &Workload, seed: u64, budget: Budget) -> Report {
    let mut report = new_report(w, seed, budget, false);
    let inputs = gen::inputs(w, seed);
    let load = train_load(w);

    // Small trained corpora make a call a chain of thread hand-offs, whose
    // latency on a small host drifts between modes over seconds; one
    // contiguous window samples few of them. So the quiesced closed loop is
    // cut into slices, one after every training run, spread over the whole
    // run. The uniform corpus is served in one window after training: its
    // calls are scan-bound and repeat within 1 %.
    let runs_planned = budget.min_passes() * BACKENDS.len();
    let (passes_budget, slice) = match w.corpus {
        Corpus::Trained => {
            let serving_secs = budget.seconds * (1.0 - w.train_share);
            let slice = Duration::from_secs_f64(serving_secs / runs_planned as f64);
            (budget.seconds, Some(slice))
        }
        Corpus::Uniform { .. } => (budget.seconds * w.train_share, None),
    };

    // Training passes, backend order rotated each pass so no backend always
    // runs first (cold) or last.
    let phase_start = Instant::now();
    let mut iter_secs: Vec<Vec<f64>> = vec![Vec::new(); BACKENDS.len()];
    let mut setup_secs = Vec::new();
    let mut reference: Option<RunOutcome> = None;
    let mut last_server: Option<RunOutcome> = None;
    let mut serving: Option<Serving> = None;
    let mut closed = CallLog::default();
    let mut under_training = CallLog::default();
    let mut pass = 0;
    loop {
        let pass_start = Instant::now();
        let mut setup_sum = 0.0;
        for slot in 0..BACKENDS.len() {
            let b = (slot + pass) % BACKENDS.len();
            let Some(mut outcome) = guarded_run(
                BACKENDS[b],
                w,
                seed,
                &inputs,
                &Drive::Plain,
                load.as_ref(),
                &mut report,
            ) else {
                continue;
            };
            setup_sum += outcome.setup_secs;
            iter_secs[b].push(outcome.iter_secs());
            // Pass 0 starts with sim: every later run is held to it.
            let held_to = reference.as_ref().unwrap_or(&outcome);
            if let Err(what) = outcome.check_against(held_to, w) {
                report.fail(
                    w.iterations as u64,
                    format!("{} pass {pass}: {what}", BACKENDS[b]),
                );
            }
            if let Some(log) = outcome.load.take() {
                count_calls(&mut report, "open loop under training", &log);
                under_training.absorb(log);
            }
            if outcome.fleet.is_some() {
                if slice.is_some() {
                    match &mut serving {
                        Some(serving) => serving.attach(&outcome),
                        None => serving = Some(Serving::prepare(w, seed, &inputs, &outcome)),
                    }
                }
                last_server = Some(outcome);
            } else if reference.is_none() {
                reference = Some(outcome);
            }
            if let (Some(slice), Some(serving)) = (slice, &serving) {
                closed.absorb(closed_loop(&serving.load(w, None), slice));
            }
        }
        setup_secs.push(setup_sum);
        pass += 1;
        let elapsed = phase_start.elapsed().as_secs_f64();
        let next_fits = elapsed + pass_start.elapsed().as_secs_f64() <= passes_budget;
        if pass >= budget.min_passes() && !next_fits {
            break;
        }
    }

    for (b, samples) in iter_secs.iter().enumerate() {
        report.push(
            format!("iter_wall_s.{}", BACKENDS[b]),
            median(samples),
            "s",
            samples.len(),
        );
    }
    if parallel_valid() {
        let sim = median(&iter_secs[0]);
        for (b, samples) in iter_secs.iter().enumerate().skip(1) {
            let speedup = sim / median(samples).max(1e-12);
            report.push_derived(
                format!("speedup_measured.{}", BACKENDS[b]),
                speedup,
                "x",
                samples.len(),
            );
        }
    }
    if let Some(reference) = &reference {
        report.push("ba_error_final", reference.ba_error, "E_BA", 1);
        report.push(
            "precision_final",
            inputs.eval.precision_of(&reference.model),
            "fraction",
            inputs.eval.queries.rows(),
        );
    }

    // The fleet of the last server run: publish for `setup_s`, then serve
    // whatever is left of the time in one window.
    let Some(trained) = last_server else {
        report.fail(1, "no server run survived: nothing to serve from".into());
        return report;
    };
    let serving = serving.unwrap_or_else(|| Serving::prepare(w, seed, &inputs, &trained));
    let publish: Vec<f64> = (0..PUBLISH_REPEATS)
        .map(|_| serving.publish_and_first_query())
        .collect();
    report.ops_attempted += PUBLISH_REPEATS as u64;
    report.push(
        "setup_s",
        median(&setup_secs) + median(&publish),
        "s",
        setup_secs.len(),
    );

    let remaining = budget.seconds - phase_start.elapsed().as_secs_f64();
    if remaining > 0.2 || closed.submitted == 0 {
        let window = Duration::from_secs_f64(remaining.max(0.3));
        closed.absorb(closed_loop(&serving.load(w, None), window));
    }
    count_calls(&mut report, "closed loop", &closed);
    serving.check_accounting(&mut report);

    let latency = match w.latency_loop {
        LatencyLoop::ClosedQuiesced { .. } => &closed,
        LatencyLoop::OpenUnderTraining { .. } => &under_training,
    };
    let (p50, p99) = latency.p50_p99_us();
    report.push("serve_qps", closed.qps(), "1/s", closed.submitted as usize);
    report.push("serve_p50_us", p50, "us", latency.latency_us.len());
    report.push("serve_p99_us", p99, "us", latency.latency_us.len());
    report.push(
        "serve_slo_ok_share",
        latency.share(latency.within_slo),
        "share",
        latency.submitted as usize,
    );
    report.push(
        "serve_answered_share",
        latency.share(latency.correct()),
        "share",
        latency.submitted as usize,
    );
    report.push_derived(
        "serve_slo_miss_share",
        1.0 - latency.share(latency.within_slo),
        "share",
        latency.submitted as usize,
    );
    report.push_derived(
        "serve_fail_share",
        latency.share(latency.failed()),
        "share",
        latency.submitted as usize,
    );
    report.push_derived("train_passes", pass as f64, "count", pass);
    report.push("peak_rss_mb", peak_rss_mb(), "MiB", 1);
    report
}
