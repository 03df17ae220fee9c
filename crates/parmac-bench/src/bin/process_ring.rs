//! Cross-process ring benchmark and fault-injection gate (numbers are
//! printed, not recorded in a ledger file; `perf`'s `iter_wall_s.process`
//! rows are the recorded cross-process timings).
//!
//! Trains the same binary autoencoder on the [`SimBackend`] reference and on
//! the [`ProcessBackend`] — real `parmac-machined` OS processes wired into a
//! ring over Unix-domain sockets — and reports the wall-clock cost of
//! crossing a process boundary. Every window is also a correctness gate:
//!
//! * the clean process run must be **bitwise identical** to the simulator
//!   (weights, codes, final E_BA);
//! * a worker **SIGKILLed** between MAC iterations must surface as exactly
//!   one structured `MachineDown` and the finished run must be bitwise
//!   identical to a simulator whose machine was disconnected (§4.3) at the
//!   same point;
//! * a kill **racing** a W step must still complete inside the step
//!   deadline.
//!
//! Run with `cargo run --release -p parmac-bench --bin process_ring`
//! (build the worker first: `cargo build --release -p parmac-cluster
//! --bins`); pass `--smoke` for the bounded fast mode CI runs on every push
//! — 3 worker processes, one injected kill, same asserts, nonzero exit on
//! any violation.

use parmac_cluster::process::{MachineDownReason, ProcessConfig};
use parmac_cluster::{ClusterBackend, CostModel, ProcessBackend, SimBackend};
use parmac_core::{BaConfig, ParMacConfig, ParMacTrainer};
use parmac_data::synthetic::{gaussian_mixture, MixtureConfig};
use parmac_hash::BinaryCodes;
use parmac_linalg::Mat;
use std::time::{Duration, Instant};

const MACHINES: usize = 3;

fn config(bits: usize) -> ParMacConfig {
    ParMacConfig::new(
        BaConfig::new(bits)
            .with_mu_schedule(0.02, 2.0, 4)
            .with_epochs(1)
            .with_seed(11)
            .with_sgd(parmac_optim::SgdConfig::new().with_eta0(0.1)),
        MACHINES,
    )
}

/// End state of one training run: everything that must match bitwise.
type EndState = (Mat, Mat, BinaryCodes);

fn full_run<B: ClusterBackend>(cfg: ParMacConfig, x: &Mat, backend: B) -> (EndState, Duration) {
    let start = Instant::now();
    let mut t = ParMacTrainer::new(cfg, x, backend);
    t.run(x);
    let wall = start.elapsed();
    (
        (
            t.model().encoder().weights().clone(),
            t.model().decoder().weights().clone(),
            t.codes().clone(),
        ),
        wall,
    )
}

/// Two explicit MAC iterations with a hook between them (the kill window).
fn two_iterations<B: ClusterBackend>(
    cfg: ParMacConfig,
    x: &Mat,
    backend: B,
    mid: impl FnOnce(&mut ParMacTrainer<B>),
) -> (EndState, Duration) {
    let start = Instant::now();
    let mut t = ParMacTrainer::new(cfg, x, backend);
    t.w_step(x, 0);
    t.z_step(x, 0.05);
    mid(&mut t);
    t.w_step(x, 1);
    t.z_step(x, 0.1);
    let wall = start.elapsed();
    (
        (
            t.model().encoder().weights().clone(),
            t.model().decoder().weights().clone(),
            t.codes().clone(),
        ),
        wall,
    )
}

fn assert_bitwise(got: &EndState, want: &EndState, label: &str) {
    assert_eq!(got.0, want.0, "{label}: encoder weights diverged");
    assert_eq!(got.1, want.1, "{label}: decoder weights diverged");
    assert_eq!(got.2, want.2, "{label}: codes diverged");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n = if smoke { 240 } else { 3_000 };
    let bits = if smoke { 5 } else { 8 };
    let x = gaussian_mixture(&MixtureConfig::new(n, 10, 4).with_seed(77)).features;
    let cfg = config(bits);
    let process_backend = || {
        ProcessBackend::new()
            .with_cost_model(CostModel::distributed())
            .with_config(ProcessConfig {
                step_timeout: Duration::from_secs(30),
                io_timeout: Duration::from_millis(500),
                ..ProcessConfig::default()
            })
    };

    // Window 1 — clean run: the process ring must reproduce the simulator
    // bitwise; the wall-clock ratio is the cost of the process boundary.
    let (sim_state, sim_wall) = full_run(cfg, &x, SimBackend::new(CostModel::distributed()));
    let (proc_state, proc_wall) = full_run(cfg, &x, process_backend());
    assert_bitwise(&proc_state, &sim_state, "clean run");

    // Window 2 — SIGKILL between iterations: bitwise equal to a simulator
    // that lost the same machine at the same point, fault reported once.
    let victim = 1usize;
    let (sim_kill_state, _) =
        two_iterations(cfg, &x, SimBackend::new(CostModel::distributed()), |t| {
            t.remove_machine(victim)
        });
    let backend = process_backend();
    let chaos = backend.clone();
    let (proc_kill_state, kill_wall) = two_iterations(cfg, &x, backend, |_| {
        assert!(chaos.kill_process(victim), "victim worker was not live");
    });
    assert_bitwise(&proc_kill_state, &sim_kill_state, "kill run");
    let downs = chaos.down_events();
    assert_eq!(downs.len(), 1, "exactly one fault expected: {downs:?}");
    assert_eq!(downs[0].machine, victim);
    assert_eq!(downs[0].reason, MachineDownReason::Killed);

    // Window 3 — kill racing a live W step: the no-hang guarantee.
    let backend = process_backend();
    let chaos = backend.clone();
    let race_start = Instant::now();
    let mut t = ParMacTrainer::new(cfg, &x, backend);
    t.w_step(&x, 0);
    t.z_step(&x, 0.05);
    let killer = std::thread::spawn(move || chaos.kill_process(2));
    t.w_step(&x, 1);
    t.z_step(&x, 0.1);
    let killed = killer.join().expect("chaos thread panicked");
    let race_wall = race_start.elapsed();
    assert!(killed, "racing kill found machine 2 already dead");
    assert!(
        race_wall < Duration::from_secs(60),
        "racing-kill run exceeded the liveness bound ({race_wall:?})"
    );
    assert_eq!(t.backend().dead_machines(), vec![2]);

    if smoke {
        eprintln!(
            "process smoke: PASS ({MACHINES} workers, clean run bitwise == sim in \
             {proc_wall:?}, SIGKILL run bitwise == sim-minus-machine in {kill_wall:?}, \
             racing kill completed in {race_wall:?})"
        );
        return;
    }

    println!("{{");
    println!("  \"mode\": \"full\",");
    println!("  \"host\": {},", parmac_bench::host_info_json());
    println!("  \"n\": {n},");
    println!("  \"bits\": {bits},");
    println!("  \"machines\": {MACHINES},");
    println!("  \"sim_wall_s\": {:.3},", sim_wall.as_secs_f64());
    println!("  \"process_wall_s\": {:.3},", proc_wall.as_secs_f64());
    println!(
        "  \"process_overhead_x\": {:.2},",
        proc_wall.as_secs_f64() / sim_wall.as_secs_f64().max(1e-9)
    );
    println!("  \"kill_run_wall_s\": {:.3},", kill_wall.as_secs_f64());
    println!("  \"racing_kill_wall_s\": {:.3}", race_wall.as_secs_f64());
    println!("}}");
}
