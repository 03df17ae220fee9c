//! `perf` — the repo's one benchmark. See `README.md` beside `Cargo.toml`.

mod agree;
mod gen;
mod json;
mod probes;
mod report;
mod serve;
mod spec;
mod stats;
mod trace;
mod traced;
mod train;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use workload::Budget;

/// `run_seconds` of `BENCHMARK.json`: what the driver passes as `--seconds`.
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perf --workload <name|all> [--seed <u64>] [--seconds <s>] [--trace [0|1]] \
         [--smoke] [--out <dir>]\n       perf --agree <dir-a> <dir-b>\n\
         workloads: {}",
        spec::WORKLOADS.map(|w| w.name).join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // `ProcessBackend` spawns its ring machines from the binary named by
    // PARMAC_MACHINED; this bin doubles as that worker so the benchmark
    // needs no second executable.
    if argv.first().is_some_and(|a| a == "--machine") {
        return machined(&argv);
    }
    if argv.first().is_some_and(|a| a == "--agree") {
        let [_, a, b] = argv.as_slice() else {
            return usage();
        };
        return match agree::agree("BENCHMARK.json".as_ref(), a.as_ref(), b.as_ref()) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("perf: {e}");
                ExitCode::from(2)
            }
        };
    }
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: PathBuf::from("perf_out"),
    };
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => match it.next() {
                Some(v) => args.workload = v.clone(),
                None => return usage(),
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => args.seed = v,
                None => return usage(),
            },
            "--seconds" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0.0 => args.seconds = v,
                _ => return usage(),
            },
            "--trace" => {
                // Bare `--trace` turns tracing on; the driver passes 0 or 1.
                args.trace = match it.peek().map(|v| v.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => args.smoke = true,
            "--out" => match it.next() {
                Some(v) => args.out = PathBuf::from(v),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    if args.workload.is_empty() {
        return usage();
    }
    if args.workload == "all" {
        return run_all(&argv);
    }
    let Some(w) = spec::find(&args.workload) else {
        return usage();
    };
    let dir = args.out.join(w.name);
    if let Err(e) = prepare_environment(&dir) {
        eprintln!("perf: {e}");
        return ExitCode::from(2);
    }
    let w = if args.smoke { w.smoke() } else { w };
    let budget = Budget {
        seconds: if args.smoke {
            args.seconds.min(1.5)
        } else {
            args.seconds
        },
        smoke: args.smoke,
    };
    let (report, kind) = if args.trace {
        let report = traced::run_traced(&w, args.seed, budget, &dir.join("trace.json"));
        (report, "layers")
    } else {
        (workload::run_plain(&w, args.seed, budget), "result")
    };
    report.print_rows();
    let file = dir.join(format!("{kind}.s{}.json", args.seed));
    if let Err(e) = std::fs::write(&file, report.result_json()) {
        eprintln!("perf: cannot write {}: {e}", file.display());
        return ExitCode::from(2);
    }
    println!("{}", report.driver_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--workload all`: one child process per workload, so that each has its
/// own `peak_rss_mb`; the exit code is the worst child's.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perf: current_exe: {e}");
            return ExitCode::from(2);
        }
    };
    let mut all_ok = true;
    for w in spec::WORKLOADS {
        let child_args = argv
            .iter()
            .map(|a| if a == "all" { w.name } else { a.as_str() });
        match std::process::Command::new(&exe).args(child_args).status() {
            Ok(status) => all_ok &= status.success(),
            Err(e) => {
                eprintln!("perf: cannot run {}: {e}", w.name);
                all_ok = false;
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Everything the run writes stays under `out`: result files, and — through
/// TMPDIR — the `ProcessBackend` fleet's socket directory. PARMAC_MACHINED
/// points the fleet launcher back at this executable.
fn prepare_environment(out: &std::path::Path) -> Result<(), String> {
    let tmp = out.join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    // Set before any thread exists; the fleet launcher and the workers it
    // spawns read them later.
    std::env::set_var(parmac_cluster::process::MACHINED_ENV, exe);
    std::env::set_var("TMPDIR", &tmp);
    Ok(())
}

/// `perf --machine <id> --dir <fleet socket directory>`: one ring machine.
fn machined(argv: &[String]) -> ExitCode {
    let mut machine: Option<usize> = None;
    let mut dir: Option<PathBuf> = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--machine" => machine = it.next().and_then(|v| v.parse().ok()),
            "--dir" => dir = it.next().map(PathBuf::from),
            _ => {}
        }
    }
    let (Some(machine), Some(dir)) = (machine, dir) else {
        return ExitCode::from(2);
    };
    let code = parmac_cluster::process::run_machined(machine, &dir);
    ExitCode::from(u8::try_from(code).unwrap_or(1))
}
