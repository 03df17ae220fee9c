//! What a run reports: named metrics with unit and sample count, the
//! failure tally, the host block — printed as rows, written as a result
//! file, and condensed into the one JSON line the driver reads last.

use crate::json::quote;
use std::fmt::Write as _;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples stand behind the value.
    pub samples: usize,
}

impl Metric {
    fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name: name.into(),
            // A ratio over an empty window must not put NaN on the last line.
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            samples,
        }
    }
}

#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    pub params_json: String,
    /// The gated metrics of this mode: every end-to-end metric with tracing
    /// off, every per-layer metric with tracing on.
    pub metrics: Vec<Metric>,
    /// Printed, never gated: measured S(P), the complements of the two
    /// `serve_*_share` metrics, sample bookkeeping.
    pub derived: Vec<Metric>,
    /// Training: backend-iterations; serving: calls.
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub failures: Vec<String>,
}

impl Report {
    pub fn push(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.metrics.push(Metric::new(name, value, unit, samples));
    }

    pub fn push_derived(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.derived.push(Metric::new(name, value, unit, samples));
    }

    pub fn fail(&mut self, ops: u64, what: String) {
        self.ops_failed += ops;
        eprintln!("perf: FAILED {}: {what}", self.workload);
        self.failures.push(what);
    }

    pub fn correct(&self) -> bool {
        self.ops_failed == 0
    }

    /// Tab-separated rows: every metric by name with its unit and sample
    /// count, then the derived rows, then the tally.
    pub fn print_rows(&self) {
        println!(
            "# {} seed={} seconds={} trace={} smoke={}",
            self.workload, self.seed, self.seconds, self.traced as u8, self.smoke
        );
        println!("# host {}", host_json());
        println!("# params {}", self.params_json);
        for (kind, rows) in [("metric", &self.metrics), ("derived", &self.derived)] {
            for m in rows {
                println!(
                    "{kind}\t{}\t{}\t{}\tn={}",
                    m.name, m.value, m.unit, m.samples
                );
            }
        }
        println!("ops_attempted\t{}", self.ops_attempted);
        println!("ops_failed\t{}", self.ops_failed);
    }

    fn metrics_json(rows: &[Metric], with_samples: bool) -> String {
        let mut out = String::from("{");
        for (i, m) in rows.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}",
                quote(&m.name),
                m.value,
                quote(m.unit)
            );
            if with_samples {
                let _ = write!(out, ", \"samples\": {}", m.samples);
            }
            out.push('}');
        }
        out.push('}');
        out
    }

    /// The line the driver parses: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn driver_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.ops_attempted.max(1),
            self.ops_failed,
            Self::metrics_json(&self.metrics, false)
        )
    }

    /// The result file `--agree` compares: the driver line's content plus
    /// host, parameters, sample counts and the derived rows.
    pub fn result_json(&self) -> String {
        let failures: Vec<String> = self.failures.iter().map(|f| quote(f)).collect();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {},\n \
             \"host\": {},\n \"params\": {},\n \"parallel_valid\": {},\n \
             \"ops_attempted\": {}, \"ops_failed\": {}, \"failures\": [{}],\n \
             \"metrics\": {},\n \"derived\": {}}}\n",
            quote(self.workload),
            self.seed,
            self.seconds,
            self.traced,
            self.smoke,
            host_json(),
            self.params_json,
            parallel_valid(),
            self.ops_attempted,
            self.ops_failed,
            failures.join(", "),
            Self::metrics_json(&self.metrics, true),
            Self::metrics_json(&self.derived, true)
        )
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// With one core the parallel rows are still printed, but no speed-up may be
/// read off them.
pub fn parallel_valid() -> bool {
    nproc() >= 2
}

/// `nproc`, architecture, active popcount kernel and git revision.
pub fn host_json() -> String {
    format!(
        "{{\"nproc\": {}, \"arch\": {}, \"popcount\": {}, \"git_rev\": {}}}",
        nproc(),
        quote(std::env::consts::ARCH),
        quote(parmac_hash::popcount::simd_backend()),
        quote(&git_rev())
    )
}

/// The checked-out commit, read from `.git` without starting a process;
/// `unknown` in a checkout that is not a git repository.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map_or_else(|_| "unknown".into(), |rev| rev.trim().to_string()),
        None => head,
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
