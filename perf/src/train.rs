//! One training run of a workload's `ParMacConfig` on one backend — plain
//! (`ParMacTrainer::run`, for the end-to-end numbers) or traced (the public
//! `w_step`/`z_step` driven from here with spans around them) — and the
//! checks every run must pass.

use crate::gen::{query_batches, Inputs};
use crate::serve::{open_loop_during, CallLog, Load};
use crate::spec::{Workload, K_NEIGHBOURS};
use crate::trace::Tracer;
use parmac_cluster::{
    ring_hops, ClusterBackend, PoolBackend, ProcessBackend, QueryRouter, ServerBackend, SimBackend,
    ThreadedBackend, WStepStats, ZStepStats,
};
use parmac_core::{BinaryAutoencoder, ParMacConfig, ParMacTrainer};
use parmac_hash::BinaryCodes;
use std::time::{Duration, Instant};

/// What one run left behind.
pub struct RunOutcome {
    /// Backend construction plus `ParMacTrainer::new`: init, partition,
    /// initial publish, fleet launch.
    pub setup_secs: f64,
    /// Wall time of `ParMacTrainer::run` (or of the traced loop).
    pub run_secs: f64,
    pub iterations: usize,
    pub model: BinaryAutoencoder,
    pub codes: BinaryCodes,
    pub ba_error: f64,
    pub w_steps: Vec<WStepStats>,
    pub z_steps: Vec<ZStepStats>,
    /// Per iteration, the share of codes the Z step changed (traced runs).
    pub z_changed_share: Vec<f64>,
    /// The fleet behind a `ServerBackend` run, still resident.
    pub fleet: Option<(ServerBackend, QueryRouter)>,
    /// Calls the open loop made while this run trained.
    pub load: Option<CallLog>,
}

impl RunOutcome {
    pub fn iter_secs(&self) -> f64 {
        self.run_secs / self.iterations.max(1) as f64
    }

    /// The parts that must be bitwise equal across backends.
    fn end_state(&self) -> (&[f64], &[f64], &[f64], &[f64], &BinaryCodes) {
        (
            self.model.encoder().weights().as_slice(),
            self.model.encoder().biases(),
            self.model.decoder().weights().as_slice(),
            self.model.decoder().biases(),
            &self.codes,
        )
    }

    /// Checks this run against the reference run of the same config: equal
    /// weights and codes, and W-step counters equal to `ring_hops(M, P, e)`.
    /// Returns what failed, if anything.
    pub fn check_against(&self, reference: &RunOutcome, w: &Workload) -> Result<(), String> {
        if self.end_state() != reference.end_state() {
            return Err("weights or codes differ bitwise from the reference run".into());
        }
        let submodels = w.bits + w.d;
        let hops = ring_hops(submodels, w.machines, w.epochs);
        let visits = submodels * w.machines * w.epochs;
        for (i, stats) in self.w_steps.iter().enumerate() {
            if stats.messages_sent != hops || stats.update_visits != visits {
                return Err(format!(
                    "iteration {i}: {} messages / {} visits, expected {hops} / {visits}",
                    stats.messages_sent, stats.update_visits
                ));
            }
        }
        Ok(())
    }
}

/// How a run is driven.
pub enum Drive<'a> {
    /// `ParMacTrainer::run`, nothing recorded.
    Plain,
    /// `w_step`/`z_step` called from here inside spans.
    Traced(&'a Tracer),
}

/// Query load to apply while the `ServerBackend` run trains.
pub struct TrainLoad {
    pub calls_per_s: f64,
    pub slo_us: f64,
}

/// Runs the workload's config once on `backend`.
pub fn run_backend(
    backend: &'static str,
    w: &Workload,
    cfg: ParMacConfig,
    inputs: &Inputs,
    drive: &Drive<'_>,
    load: Option<&TrainLoad>,
) -> RunOutcome {
    let start = Instant::now();
    match backend {
        "sim" => run_on(
            backend,
            SimBackend::default(),
            None,
            cfg,
            inputs,
            drive,
            start,
        ),
        "threaded" => run_on(
            backend,
            ThreadedBackend::new(),
            None,
            cfg,
            inputs,
            drive,
            start,
        ),
        "pool" => {
            let pool = PoolBackend::new().with_workers(w.machines);
            run_on(backend, pool, None, cfg, inputs, drive, start)
        }
        "server" => {
            let server = ServerBackend::new();
            let router = server.query_router();
            let serving = Some((server.clone(), router, load));
            run_on(backend, server, serving, cfg, inputs, drive, start)
        }
        "process" => run_on(
            backend,
            ProcessBackend::new(),
            None,
            cfg,
            inputs,
            drive,
            start,
        ),
        other => panic!("unknown backend {other}"),
    }
}

fn run_on<B: ClusterBackend>(
    name: &'static str,
    backend: B,
    serving: Option<(ServerBackend, QueryRouter, Option<&TrainLoad>)>,
    cfg: ParMacConfig,
    inputs: &Inputs,
    drive: &Drive<'_>,
    start: Instant,
) -> RunOutcome {
    let x = &inputs.x;
    let mut trainer = match drive {
        Drive::Plain => ParMacTrainer::new(cfg, x, backend),
        Drive::Traced(tracer) => tracer.scope("core.trainer_new", None, name, None, |_| {
            ParMacTrainer::new(cfg, x, backend)
        }),
    };
    let setup_secs = start.elapsed().as_secs_f64();

    let training = |trainer: &mut ParMacTrainer<B>| match drive {
        Drive::Plain => {
            let run_start = Instant::now();
            let report = trainer.run(x);
            Steps {
                run_secs: run_start.elapsed().as_secs_f64(),
                iterations: report.mac.iterations_run,
                ba_error: report.mac.final_ba_error,
                w_steps: report.w_steps,
                z_steps: report.z_steps,
                z_changed_share: Vec::new(),
            }
        }
        Drive::Traced(tracer) => traced_iterations(name, trainer, &cfg, inputs, tracer),
    };

    let mut load_log = None;
    let steps = match &serving {
        Some((_, router, Some(plan))) => {
            // The queries are the held-out points under the initial hash;
            // training moves the corpus beneath them, so only coverage and
            // hit count can be checked until the fleet is quiesced.
            let batches = query_batches(&trainer.model().encode(&inputs.query_features));
            let mut go = |span: Option<(&Tracer, u64)>| {
                let open = Load {
                    router,
                    batches: &batches,
                    expected: None,
                    hits_per_query: K_NEIGHBOURS.min(x.rows()),
                    slo_us: plan.slo_us,
                    tracer: span,
                };
                open_loop_during(&open, plan.calls_per_s, || training(&mut trainer))
            };
            let (out, log) = match drive {
                Drive::Traced(tracer) => tracer.scope("serve.open_loop", None, name, None, |id| {
                    go(Some((tracer, id)))
                }),
                Drive::Plain => go(None),
            };
            load_log = Some(log);
            out
        }
        _ => training(&mut trainer),
    };

    RunOutcome {
        setup_secs,
        run_secs: steps.run_secs,
        iterations: steps.iterations,
        model: trainer.model().clone(),
        codes: trainer.codes().clone(),
        ba_error: steps.ba_error,
        w_steps: steps.w_steps,
        z_steps: steps.z_steps,
        z_changed_share: steps.z_changed_share,
        fleet: serving.map(|(server, router, _)| (server, router)),
        load: load_log,
    }
}

/// What driving the µ schedule once produced, either way it was driven.
struct Steps {
    run_secs: f64,
    iterations: usize,
    ba_error: f64,
    w_steps: Vec<WStepStats>,
    z_steps: Vec<ZStepStats>,
    z_changed_share: Vec<f64>,
}

/// The traced drive: the µ schedule walked from here, one span per
/// iteration and step, and the backend's own reported step wall attached as
/// a child of the step span (anchored at the step's end, where the backend
/// call sits).
fn traced_iterations<B: ClusterBackend>(
    name: &'static str,
    trainer: &mut ParMacTrainer<B>,
    cfg: &ParMacConfig,
    inputs: &Inputs,
    tracer: &Tracer,
) -> Steps {
    let x = &inputs.x;
    let run_start = Instant::now();
    let mut w_steps = Vec::new();
    let mut z_steps = Vec::new();
    let mut z_changed_share = Vec::new();
    let schedule: Vec<f64> = cfg.ba.mu_schedule.iter().collect();
    tracer.scope("train.run", None, name, None, |run| {
        for (i, &mu) in schedule.iter().enumerate() {
            tracer.scope("train.iteration", Some(run), name, Some(i), |iteration| {
                let stats = tracer.scope("core.w_step", Some(iteration), name, Some(i), |span| {
                    let stats = trainer.w_step(x, i);
                    child_ending_now(
                        tracer,
                        "cluster.w_backend",
                        span,
                        name,
                        i,
                        stats.timings.wall_clock_secs,
                    );
                    stats
                });
                w_steps.push(stats);
                let before = trainer.codes().clone();
                let stats = tracer.scope("core.z_step", Some(iteration), name, Some(i), |span| {
                    let (_, stats) = trainer.z_step(x, mu);
                    child_ending_now(
                        tracer,
                        "cluster.z_backend",
                        span,
                        name,
                        i,
                        stats.timings.wall_clock_secs,
                    );
                    stats
                });
                z_steps.push(stats);
                let changed = (0..before.len())
                    .filter(|&p| before.hamming(p, trainer.codes(), p) > 0)
                    .count();
                z_changed_share.push(changed as f64 / before.len().max(1) as f64);
            });
        }
    });
    Steps {
        run_secs: run_start.elapsed().as_secs_f64(),
        iterations: schedule.len(),
        ba_error: trainer.model().ba_error(x),
        w_steps,
        z_steps,
        z_changed_share,
    }
}

fn child_ending_now(
    tracer: &Tracer,
    name: &'static str,
    parent: u64,
    backend: &'static str,
    iteration: usize,
    secs: f64,
) {
    let end = Instant::now();
    let start = end
        .checked_sub(Duration::from_secs_f64(secs.max(0.0)))
        .unwrap_or(end);
    tracer.record(name, Some(parent), backend, Some(iteration), start, end);
}
