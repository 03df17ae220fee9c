//! One workload with tracing on: a plain pass (the untraced baseline the
//! overhead and the measured speed-ups are taken against), a traced pass
//! driven through `w_step`/`z_step`, traced serving windows, then the layer
//! probes. Produces every per-layer metric and `trace.json`; no end-to-end
//! metric is ever taken from here.

use crate::gen;
use crate::probes::{self, Constants, Ctx};
use crate::report::{parallel_valid, Report};
use crate::serve::{closed_loop, open_loop_during};
use crate::spec::{LatencyLoop, Workload, BACKENDS};
use crate::stats::{mean, median, percentile};
use crate::trace::Tracer;
use crate::train::{Drive, RunOutcome};
use crate::workload::{count_calls, guarded_run, new_report, train_load, Budget, Serving};
use parmac_cluster::ClusterBackend;
use parmac_core::SpeedupModel;
use std::path::Path;
use std::time::Duration;

/// One pass over the five backends; every run is held to the first (sim).
fn pass(
    w: &Workload,
    seed: u64,
    inputs: &gen::Inputs,
    drive: &Drive<'_>,
    report: &mut Report,
) -> Vec<Option<RunOutcome>> {
    let load = train_load(w);
    let mut outcomes: Vec<Option<RunOutcome>> = Vec::new();
    for backend in BACKENDS {
        let outcome = guarded_run(backend, w, seed, inputs, drive, load.as_ref(), report);
        if let Some(outcome) = &outcome {
            let reference = outcomes.first().and_then(Option::as_ref).unwrap_or(outcome);
            if let Err(what) = outcome.check_against(reference, w) {
                report.fail(w.iterations as u64, format!("{backend}: {what}"));
            }
        }
        outcomes.push(outcome);
    }
    outcomes
}

pub fn run_traced(w: &Workload, seed: u64, budget: Budget, trace_file: &Path) -> Report {
    let mut report = new_report(w, seed, budget, true);
    let tracer = Tracer::new(w.name);
    let inputs = tracer.scope("data.datagen", None, "perf", None, |_| gen::inputs(w, seed));
    report.push("data.datagen_s", inputs.datagen_secs, "s", 1);

    // Plain, traced, plain: the untraced baseline brackets the traced pass,
    // so drift of the host over the run does not read as tracing overhead.
    let plain = pass(w, seed, &inputs, &Drive::Plain, &mut report);
    let mut traced = pass(w, seed, &inputs, &Drive::Traced(&tracer), &mut report);
    let plain_again = pass(w, seed, &inputs, &Drive::Plain, &mut report);
    let plain_iter: Vec<f64> = plain
        .iter()
        .zip(&plain_again)
        .map(|(a, b)| mean([a, b].into_iter().flatten().map(RunOutcome::iter_secs)))
        .collect();
    let iters = w.iterations as f64;

    // What each backend's steps cost, from the traced pass.
    for (b, name) in BACKENDS.iter().enumerate() {
        let (w_backend, z_backend) = traced[b].as_ref().map_or((0.0, 0.0), |o| {
            (
                mean(o.w_steps.iter().map(|s| s.timings.wall_clock_secs)),
                mean(o.z_steps.iter().map(|s| s.timings.wall_clock_secs)),
            )
        });
        report.push(
            format!("cluster.w_backend_s_per_iter.{name}"),
            w_backend,
            "s",
            w.iterations,
        );
        report.push(
            format!("cluster.z_backend_s_per_iter.{name}"),
            z_backend,
            "s",
            w.iterations,
        );
    }
    let sim_plain_iter = plain_iter[0];
    let first_w = traced[0]
        .as_ref()
        .and_then(|o| o.w_steps.first().copied())
        .unwrap_or_default();
    report.push(
        "cluster.w_visits_per_iter",
        first_w.update_visits as f64,
        "count",
        1,
    );
    report.push(
        "cluster.w_messages_per_iter",
        first_w.messages_sent as f64,
        "count",
        1,
    );
    report.push(
        "cluster.w_bytes_per_iter",
        first_w.bytes_sent as f64,
        "bytes",
        1,
    );
    let changed = traced[0]
        .as_ref()
        .map_or(0.0, |o| median(&o.z_changed_share));
    report.push("core.z_changed_share", changed, "share", w.iterations);

    let (new_s, _, _) = tracer.totals("core.trainer_new", "sim");
    let (w_total, w_self, _) = tracer.totals("core.w_step", "sim");
    let (z_total, z_self, _) = tracer.totals("core.z_step", "sim");
    let (iteration_total, _, _) = tracer.totals("train.iteration", "sim");
    report.push("core.trainer_new_s", new_s, "s", 1);
    report.push(
        "core.w_trainer_self_s_per_iter",
        w_self / iters,
        "s",
        w.iterations,
    );
    report.push(
        "core.z_trainer_self_s_per_iter",
        z_self / iters,
        "s",
        w.iterations,
    );
    report.push(
        "core.w_step_share.sim",
        w_total / iteration_total.max(1e-12),
        "share",
        w.iterations,
    );
    // `run` minus its steps: curve evaluation, decoder refit, final publish.
    let run_residual = sim_plain_iter - (w_total + z_total) / iters;
    report.push(
        "core.run_residual_s_per_iter",
        run_residual,
        "s",
        w.iterations,
    );
    // Like for like: the backend-reported step walls of the sim run, traced
    // against untraced (`run` does more per iteration than the traced loop).
    let step_walls = |run: &Option<RunOutcome>| {
        run.as_ref().map_or(0.0, |o| {
            let w_walls = o.w_steps.iter().map(|s| s.timings.wall_clock_secs);
            let z_walls = o.z_steps.iter().map(|s| s.timings.wall_clock_secs);
            w_walls.chain(z_walls).sum::<f64>()
        })
    };
    let untraced = (step_walls(&plain[0]) + step_walls(&plain_again[0])) / 2.0;
    report.push(
        "bench.trace_overhead_share",
        (step_walls(&traced[0]) - untraced) / untraced.max(1e-12),
        "share",
        1,
    );

    // Traced serving windows on the fleet the traced server run left.
    let Some(mut server_run) = traced[3].take() else {
        report.fail(1, "no server run survived: nothing to serve from".into());
        return report;
    };
    let serving = Serving::prepare(w, seed, &inputs, &server_run);
    tracer.scope("cluster.publish", None, "server", None, |_| {
        serving
            .server
            .publish_codes(&serving.cluster, &serving.corpus)
    });
    let window = Duration::from_secs_f64(if budget.smoke { 0.3 } else { 2.0 });
    let open = match w.latency_loop {
        // Already driven while the traced server run trained.
        LatencyLoop::OpenUnderTraining { .. } => server_run.load.take().unwrap_or_default(),
        LatencyLoop::ClosedQuiesced { traced_calls_per_s } => {
            let log = tracer.scope("serve.open_loop", None, "server", None, |id| {
                let load = serving.load(w, Some((&tracer, id)));
                open_loop_during(&load, traced_calls_per_s, || std::thread::sleep(window)).1
            });
            count_calls(&mut report, "traced open loop", &log);
            log
        }
    };
    let closed = tracer.scope("serve.closed_loop", None, "server", None, |id| {
        closed_loop(&serving.load(w, Some((&tracer, id))), window / 2)
    });
    count_calls(&mut report, "traced closed loop", &closed);
    serving.check_accounting(&mut report);
    let mut late = open.late_us.clone();
    late.sort_by(f64::total_cmp);
    report.push(
        "bench.gen_late_p99_us",
        percentile(&late, 99.0),
        "us",
        late.len(),
    );

    // Layer probes on the workload's own data, then the model they feed.
    if let Some(sim) = traced[0].as_ref() {
        let ctx = Ctx {
            w,
            cfg: w.config(seed),
            x: &inputs.x,
            model: &sim.model,
            codes: &sim.codes,
            serving: &serving,
            tracer: &tracer,
        };
        let constants = probes::run_all(&ctx, &mut report);
        model_rows(
            w,
            &constants,
            first_w.messages_sent,
            &plain_iter,
            &mut report,
        );
        let steps = (w_total + z_total) / iters;
        let layers = layer_sum(w, &constants);
        report.push(
            "bench.reconstruction_residual_share",
            (steps - layers) / sim_plain_iter.max(1e-12),
            "share",
            1,
        );
    }

    if let Err(e) = tracer.write_json(trace_file) {
        report.fail(1, format!("cannot write {}: {e}", trace_file.display()));
    }
    report
}

/// What the layer rows say one sim iteration's steps cost: SGD passes and
/// the gathers before them, Z kernel and encoder, calibration, the bare
/// protocol.
fn layer_sum(w: &Workload, c: &Constants) -> f64 {
    let n = w.n as f64;
    let per_bit = c.svm_ns_per_point + c.gather_svm_ns_per_point;
    let per_row = c.ridge_ns_per_point + c.gather_ridge_ns_per_point;
    let w_compute = n * w.epochs as f64 * (w.bits as f64 * per_bit + w.d as f64 * per_row) * 1e-9;
    let z_compute = n * (c.encode_ns_per_point + c.zstep_ns_per_point) * 1e-9;
    w_compute + z_compute + c.calibrate_s_per_iter + c.w_noop_s[0] + c.z_noop_s[0]
}

/// Fig. 10 with a real top row: the §5 model fed with the measured
/// constants, beside the measured speed-up, per real backend.
fn model_rows(
    w: &Workload,
    c: &Constants,
    messages: usize,
    plain_iter: &[f64],
    report: &mut Report,
) {
    let submodels = w.bits + w.d;
    let m = submodels as f64;
    // t_r^W is what a submodel pays per point on a visit: the SGD pass and
    // the gather before it.
    let t_wr = (w.bits as f64 * (c.svm_ns_per_point + c.gather_svm_ns_per_point)
        + w.d as f64 * (c.ridge_ns_per_point + c.gather_ridge_ns_per_point))
        / m;
    let t_zr = (c.encode_ns_per_point + c.zstep_ns_per_point) / m;
    report.push("core.model_t_wr_ns", t_wr, "ns", 1);
    report.push("core.model_t_zr_ns", t_zr, "ns", 1);
    for (b, name) in BACKENDS.iter().enumerate() {
        let t_wc = c.w_noop_s[b] * 1e9 / messages.max(1) as f64;
        report.push(format!("core.model_t_wc_ns.{name}"), t_wc, "ns", 1);
        if b == 0 {
            continue;
        }
        let model = SpeedupModel::new(w.n, submodels, w.epochs, t_wr, t_wc, t_zr);
        report.push(
            format!("core.speedup_predicted.{name}"),
            model.speedup(w.machines),
            "x",
            1,
        );
        // With one core the row is still printed, but reads 0: no speed-up
        // may be claimed from it.
        let measured = if parallel_valid() && plain_iter[b] > 0.0 {
            plain_iter[0] / plain_iter[b]
        } else {
            0.0
        };
        report.push(format!("core.speedup_measured.{name}"), measured, "x", 1);
    }
}
