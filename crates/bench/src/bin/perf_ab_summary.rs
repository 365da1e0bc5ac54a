//! Summarises an alternating A/B benchmark run (`scripts/perf_ab.sh`).
//!
//! ```text
//! perf_ab_summary <BENCHMARK.json> <run-dir>
//! ```
//!
//! `<run-dir>` holds the perfbench outputs `base-<i>.txt` and
//! `change-<i>.txt` for pairs `i = 1, 2, …`.  For every end-to-end metric
//! `BENCHMARK.json` declares, the summary prints each side's median and
//! quartiles and how many pairs the change won, in the direction of the
//! metric's `better` field.  It then prints every run's `correct` and
//! `failed` fields and the `counter` lines of pair 1 that differ between
//! the two sides; counters only one side printed (served campaigns the
//! other side did not complete) are counted, not compared.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use serde::Value;

fn field<'v>(map: &'v [(String, Value)], name: &str) -> Option<&'v Value> {
    map.iter().find(|(key, _)| key == name).map(|(_, value)| value)
}

/// One end-to-end metric: its name, unit and whether higher is better.
struct Declared {
    name: String,
    unit: String,
    higher_is_better: bool,
}

fn declared_metrics(path: &Path) -> Result<Vec<Declared>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|error| format!("cannot read {}: {error}", path.display()))?;
    let parsed: Value = serde_json::from_str(&text)
        .map_err(|error| format!("{} is not valid JSON: {error:?}", path.display()))?;
    let entries = parsed
        .as_map()
        .and_then(|map| field(map, "end_to_end"))
        .and_then(Value::as_seq)
        .ok_or_else(|| format!("{} has no end_to_end list", path.display()))?;
    entries
        .iter()
        .map(|entry| {
            let map = entry.as_map().ok_or("an end_to_end entry is not an object")?;
            let text = |name: &str| field(map, name).and_then(Value::as_str).unwrap_or("");
            Ok(Declared {
                name: text("name").to_owned(),
                unit: text("unit").to_owned(),
                higher_is_better: text("better") == "higher",
            })
        })
        .collect()
}

/// One perfbench run: its result line and its `counter` lines.
struct Run {
    correct: bool,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    counters: BTreeMap<String, String>,
}

fn load_run(path: &Path) -> Result<Run, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|error| format!("cannot read {}: {error}", path.display()))?;
    let last = text.lines().rev().find(|line| line.starts_with('{')).unwrap_or("");
    let parsed: Value = serde_json::from_str(last)
        .map_err(|error| format!("{} has no JSON result line: {error:?}", path.display()))?;
    let result =
        parsed.as_map().ok_or_else(|| format!("{}: result is not an object", path.display()))?;
    let metrics = field(result, "metrics")
        .and_then(Value::as_map)
        .unwrap_or(&[])
        .iter()
        .filter_map(|(name, metric)| {
            let value = metric.as_map().and_then(|m| field(m, "value")).and_then(Value::as_f64)?;
            Some((name.clone(), value))
        })
        .collect();
    let counters = text
        .lines()
        .filter_map(|line| line.strip_prefix("counter "))
        .filter_map(|rest| {
            let mut words = rest.split_whitespace();
            Some((words.next()?.to_owned(), words.collect::<Vec<_>>().join(" ")))
        })
        .collect();
    Ok(Run {
        correct: field(result, "correct").and_then(Value::as_bool).unwrap_or(false),
        failed: field(result, "failed").and_then(Value::as_u64).unwrap_or(u64::MAX),
        metrics,
        counters,
    })
}

/// Linear-interpolated quantile (`q` in 0..=1) of sorted samples.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let position = q * (sorted.len() - 1) as f64;
    let (low, high) = (position.floor() as usize, position.ceil() as usize);
    sorted[low] + (sorted[high] - sorted[low]) * (position - low as f64)
}

/// `median [q1, q3]` of the samples.
fn spread(samples: &[f64]) -> String {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    format!(
        "{:.4} [{:.4}, {:.4}]",
        quantile(&sorted, 0.5),
        quantile(&sorted, 0.25),
        quantile(&sorted, 0.75)
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [benchmark, dir] = args.as_slice() else {
        eprintln!("usage: perf_ab_summary <BENCHMARK.json> <run-dir>");
        return ExitCode::from(2);
    };
    let dir = Path::new(dir);
    let mut pairs: Vec<(Run, Run)> = Vec::new();
    for pair in 1.. {
        let (base, change) =
            (dir.join(format!("base-{pair}.txt")), dir.join(format!("change-{pair}.txt")));
        if !(base.exists() && change.exists()) {
            break;
        }
        match (load_run(&base), load_run(&change)) {
            (Ok(base), Ok(change)) => pairs.push((base, change)),
            (Err(error), _) | (_, Err(error)) => {
                eprintln!("perf_ab_summary: {error}");
                return ExitCode::from(2);
            }
        }
    }
    let declared = match declared_metrics(Path::new(benchmark)) {
        Ok(declared) => declared,
        Err(error) => {
            eprintln!("perf_ab_summary: {error}");
            return ExitCode::from(2);
        }
    };
    if pairs.is_empty() {
        eprintln!("perf_ab_summary: no base-1.txt/change-1.txt pair in {}", dir.display());
        return ExitCode::from(2);
    }

    println!("{} pairs; median [q1, q3] per side; wins = pairs the change did better", pairs.len());
    println!(
        "{:<16} {:<7} {:<7} {:>34} {:>34} {:>6}",
        "metric", "unit", "better", "base", "change", "wins"
    );
    for metric in &declared {
        let values: Vec<(f64, f64)> = pairs
            .iter()
            .filter_map(|(base, change)| {
                Some((*base.metrics.get(&metric.name)?, *change.metrics.get(&metric.name)?))
            })
            .collect();
        if values.is_empty() {
            continue;
        }
        let better = |base: f64, change: f64| {
            if metric.higher_is_better {
                change > base
            } else {
                change < base
            }
        };
        let wins = values.iter().filter(|&&(base, change)| better(base, change)).count();
        let base: Vec<f64> = values.iter().map(|&(base, _)| base).collect();
        let change: Vec<f64> = values.iter().map(|&(_, change)| change).collect();
        println!(
            "{:<16} {:<7} {:<7} {:>34} {:>34} {:>3}/{}",
            metric.name,
            metric.unit,
            if metric.higher_is_better { "higher" } else { "lower" },
            spread(&base),
            spread(&change),
            wins,
            values.len()
        );
    }

    for (label, side) in [("base", 0), ("change", 1)] {
        let runs: Vec<&Run> =
            pairs.iter().map(|pair| if side == 0 { &pair.0 } else { &pair.1 }).collect();
        let correct = runs.iter().filter(|run| run.correct).count();
        let failed = runs.iter().fold(0_u64, |sum, run| sum.saturating_add(run.failed));
        println!("{label:<6} correct {correct}/{} runs, failed operations {failed}", runs.len());
    }

    let (base, change) = (&pairs[0].0.counters, &pairs[0].1.counters);
    let mut differing = 0;
    let mut one_sided = 0;
    for (name, base_value) in base {
        match change.get(name) {
            Some(change_value) if change_value != base_value => {
                println!("counter {name}: base {base_value}, change {change_value}");
                differing += 1;
            }
            Some(_) => {}
            None => one_sided += 1,
        }
    }
    one_sided += change.keys().filter(|name| !base.contains_key(*name)).count();
    println!(
        "pair 1 counters: {} on both sides, {differing} differ, {one_sided} on one side only",
        base.keys().filter(|name| change.contains_key(*name)).count()
    );
    ExitCode::SUCCESS
}
