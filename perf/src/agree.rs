//! `--agree <a> <b>`: two result sets held against the bounds fixed in
//! `BENCHMARK.json`. A set is a directory `perf --out` wrote; several runs
//! of a workload in one set are reduced to their median. Set `b` agrees
//! with set `a` when no (end-to-end metric, workload) pair of `b` is worse
//! than `a`'s by more than the metric's bound.

use crate::json::{self, Value};
use crate::stats::median;
use std::collections::BTreeMap;
use std::path::Path;

/// workload → metric → one value per run.
type ResultSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn read_set(dir: &Path) -> Result<ResultSet, String> {
    let mut set = ResultSet::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for workload_dir in entries.flatten().map(|e| e.path()).filter(|p| p.is_dir()) {
        for file in std::fs::read_dir(&workload_dir)
            .into_iter()
            .flatten()
            .flatten()
        {
            let path = file.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !(name.starts_with("result.") && name.ends_with(".json")) {
                continue;
            }
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let value = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            let workload = value
                .get("workload")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("{}: no workload", path.display()))?;
            let metrics = value.get("metrics").map(Value::as_obj).unwrap_or(&[]);
            let per_metric = set.entry(workload.to_string()).or_default();
            for (metric, row) in metrics {
                if let Some(v) = row.get("value").and_then(Value::as_f64) {
                    per_metric.entry(metric.clone()).or_default().push(v);
                }
            }
        }
    }
    Ok(set)
}

/// Prints one row per (metric, workload) and returns whether every pair is
/// within its bound.
pub fn agree(benchmark_json: &Path, a: &Path, b: &Path) -> Result<bool, String> {
    let text = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    let benchmark = json::parse(&text).map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    let (set_a, set_b) = (read_set(a)?, read_set(b)?);
    let mut rows = 0;
    let mut misses = 0;
    println!("metric\tworkload\ta\tb\tworse_by\tbound\tverdict");
    for spec in benchmark
        .get("end_to_end")
        .map(Value::as_arr)
        .unwrap_or(&[])
    {
        let (Some(metric), Some(bound)) = (
            spec.get("name").and_then(Value::as_str),
            spec.get("bound").and_then(Value::as_f64),
        ) else {
            return Err("BENCHMARK.json: end_to_end entry without name or bound".into());
        };
        let lower_is_better = spec.get("better").and_then(Value::as_str) != Some("higher");
        for (workload, metrics_a) in &set_a {
            let (Some(va), Some(vb)) = (
                metrics_a.get(metric),
                set_b.get(workload).and_then(|m| m.get(metric)),
            ) else {
                println!("{metric}\t{workload}\t-\t-\t-\t{bound}\tMISSING");
                misses += 1;
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            let change = (mb - ma) / ma.abs().max(1e-300);
            let worse_by = if lower_is_better { change } else { -change };
            let ok = worse_by <= bound;
            rows += 1;
            misses += usize::from(!ok);
            println!(
                "{metric}\t{workload}\t{ma}\t{mb}\t{worse_by:+.4}\t{bound}\t{}",
                if ok { "ok" } else { "MISS" }
            );
        }
    }
    if rows == 0 {
        return Err("no (metric, workload) pair found in both sets".into());
    }
    println!("# {rows} pairs, {misses} outside their bound");
    Ok(misses == 0)
}
