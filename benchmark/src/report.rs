//! Result lines, and the modes that run more than one workload: the full
//! set (one child process per workload, end to end and then traced) and A/A.

use crate::harness::{out_dir, RunConfig, Tally};
use crate::manifest::{self, Metric};
use crate::workloads::WORKLOADS;
use serde::json::{parse, Value};
use std::process::{Command, Stdio};

/// The environment variables that reroute `Network::run` and the worker
/// pool; the benchmark measures the defaults, so they are removed.
pub const REROUTING_ENV: [&str; 3] = ["CAMPUSLAB_SHARDS", "CAMPUSLAB_JOBS", "CAMPUSLAB_OBS_JSON"];

/// The last line of a run's standard output: one JSON object with exactly
/// the keys `correct`, `attempted`, `failed` and `metrics`. Values keep all
/// their digits; an unmeasured value (after a panic) prints as `null`.
pub fn result_line(values: &[(&'static Metric, f64)], tally: &Tally) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(m, v)| {
            let value = if v.is_finite() {
                format!("{v:?}")
            } else {
                "null".into()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.correct(),
        tally.attempted.max(1),
        tally.failed,
        metrics.join(", ")
    )
}

/// Print `values` as a table: name, value, unit.
pub fn print_metrics(values: &[(&'static Metric, f64)]) {
    for (metric, value) in values {
        println!("{:<44} {value:>16.6} {}", metric.name, metric.unit);
    }
}

/// A parsed result line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static Metric, f64)>,
}

/// Parse a result line, refusing metric names and units the registry does
/// not know.
pub fn parse_result_line(line: &str) -> Result<RunResult, String> {
    let bad = |e: serde::json::Error| format!("result line is not JSON: {e:?}");
    let doc = parse(line).map_err(bad)?;
    let field = |name: &str| {
        doc.get(name)
            .ok_or_else(|| format!("result line lacks `{name}`"))
    };
    let count = |name: &str| -> Result<u64, String> {
        field(name)?
            .as_num()
            .map_err(bad)?
            .parse()
            .map_err(|_| format!("`{name}` is not a count"))
    };
    let correct = match field("correct")? {
        Value::Bool(b) => *b,
        other => return Err(format!("`correct` is {other:?}")),
    };
    let mut metrics = Vec::new();
    for (name, entry) in field("metrics")?.as_object().map_err(bad)? {
        let metric = manifest::metric(name).ok_or_else(|| format!("unknown metric `{name}`"))?;
        match entry.get("unit") {
            Some(Value::Str(unit)) if unit == metric.unit => {}
            other => {
                return Err(format!(
                    "metric `{name}` has unit {other:?}, expected {}",
                    metric.unit
                ))
            }
        }
        let value = match entry.get("value") {
            Some(Value::Null) => f64::NAN,
            Some(v) => v
                .as_num()
                .map_err(bad)?
                .parse()
                .map_err(|_| format!("`{name}` is not a number"))?,
            None => return Err(format!("metric `{name}` lacks a value")),
        };
        metrics.push((metric, value));
    }
    Ok(RunResult {
        correct,
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
    })
}

/// What one child run printed: its result line and, for an end-to-end
/// run, the workload-specific end-to-end metrics on the line before it.
struct ChildRun {
    result: RunResult,
    specific: Vec<(&'static Metric, f64)>,
}

/// Run this executable again for one workload and parse what it printed.
/// The child inherits standard error, so its progress shows as it runs.
fn child(workload: &str, cfg: RunConfig, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--repeats", &cfg.repeats.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if cfg.smoke {
        command.arg("--smoke");
    }
    for name in REROUTING_ENV {
        command.env_remove(name);
    }
    // `output` waits for the child to end before returning.
    let output = command
        .output()
        .map_err(|e| format!("spawn for {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result =
        parse_result_line(lines.next().unwrap_or("")).map_err(|e| format!("{workload}: {e}"))?;
    if !output.status.success() || !result.correct {
        return Err(format!(
            "{workload}: run failed ({}), see above",
            output.status
        ));
    }
    let specific = match lines.next().and_then(|l| l.strip_prefix(SPECIFIC_PREFIX)) {
        Some(line) if !trace => {
            parse_result_line(line)
                .map_err(|e| format!("{workload}: {e}"))?
                .metrics
        }
        _ => Vec::new(),
    };
    Ok(ChildRun { result, specific })
}

/// Marks the line of workload-specific end-to-end metrics an end-to-end
/// run prints before its result line.
pub const SPECIFIC_PREFIX: &str = "specific: ";

/// One complete untraced set: every end-to-end reading, by workload.
type Set = Vec<(&'static str, ChildRun)>;

fn end_to_end_set(cfg: RunConfig) -> Result<Set, String> {
    WORKLOADS
        .iter()
        .map(|w| Ok((w.name, child(w.name, cfg, false)?)))
        .collect()
}

impl ChildRun {
    /// Every end-to-end reading of the run, `fail_share` last.
    fn end_to_end(&self) -> impl Iterator<Item = (&'static Metric, f64)> + '_ {
        let fail_share = self.result.failed as f64 / self.result.attempted as f64;
        self.result
            .metrics
            .iter()
            .chain(&self.specific)
            .copied()
            .chain([(&manifest::FAIL_SHARE, fail_share)])
    }
}

/// The end-to-end table: a row per workload, a column per metric, `-`
/// where a workload does not have the metric.
fn print_end_to_end(set: &Set) {
    let columns: Vec<&Metric> = manifest::END_TO_END
        .iter()
        .chain(&manifest::SPECIFIC)
        .chain([&manifest::FAIL_SHARE])
        .collect();
    print!("{:<14}", "workload");
    for metric in &columns {
        print!(" {:>14}", metric.name);
    }
    println!(" {:>8}", "ops");
    for (name, run) in set {
        print!("{name:<14}");
        for column in &columns {
            match run.end_to_end().find(|(m, _)| m == column) {
                Some((_, value)) => print!(" {value:>14.4}"),
                None => print!(" {:>14}", "-"),
            }
        }
        println!(" {:>8}", run.result.attempted);
    }
}

/// The traced pass of every workload, a child process each, printed as
/// one table: a row per metric, a column per workload.
fn traced_set(cfg: RunConfig) -> Result<(), String> {
    let runs: Vec<RunResult> = WORKLOADS
        .iter()
        .map(|w| Ok(child(w.name, cfg, true)?.result))
        .collect::<Result<_, String>>()?;
    print!("\n{:<40}", "per-layer metric");
    for w in &WORKLOADS {
        print!(" {:>13}", w.name);
    }
    println!();
    for (row, (metric, _)) in runs[0].metrics.iter().enumerate() {
        print!("{:<34} {:>5}", metric.name, metric.unit);
        for run in &runs {
            print!(" {:>13.6}", run.metrics[row].1);
        }
        println!();
    }
    Ok(())
}

/// The machine the numbers are taken on, printed above them.
fn print_machine() {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("rustc unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    println!("machine: nproc {cores}, worker pool {cores}, {rustc}");
}

/// The one command: every workload end to end (skipped by `--traced`),
/// then every workload's traced pass.
pub fn run_all(cfg: RunConfig, end_to_end: bool) -> Result<(), String> {
    print_machine();
    if end_to_end {
        print_end_to_end(&end_to_end_set(cfg)?);
    }
    traced_set(cfg)
}

/// A/A: the full untraced set twice, back to back, same code. Prints each
/// pair of medians with their relative difference and whether it is inside
/// the metric's bound, and writes `out/aa.json`.
pub fn run_aa(cfg: RunConfig) -> Result<(), String> {
    print_machine();
    let first = end_to_end_set(cfg)?;
    let second = end_to_end_set(cfg)?;
    let mut rows = Vec::new();
    let mut all_inside = true;
    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>9} {:>7}  inside",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for ((name, a), (_, b)) in first.iter().zip(&second) {
        for ((metric, a), (_, b)) in a.end_to_end().zip(b.end_to_end()) {
            // Every end-to-end metric is lower-is-better; 0 against 0
            // (`fail_share`) is no difference.
            let worse = if a == b { 0.0 } else { b / a - 1.0 };
            let bound = metric.bound.expect("end-to-end metrics are bounded");
            let inside = worse.abs() <= bound;
            all_inside &= inside;
            println!(
                "{name:<14} {:<14} {a:>14.4} {b:>14.4} {:>+8.2}% {:>6.0}%  {}",
                metric.name,
                worse * 100.0,
                bound * 100.0,
                if inside { "yes" } else { "NO" }
            );
            rows.push(format!(
                "{{\"workload\": \"{name}\", \"metric\": \"{}\", \"first\": {a:?}, \"second\": {b:?}, \"relative_difference\": {worse:?}, \"bound\": {bound:?}, \"inside\": {inside}}}",
                metric.name
            ));
        }
    }
    let dir = out_dir();
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join("aa.json"), format!("[\n{}\n]\n", rows.join(",\n"))))
        .map_err(|e| format!("write aa.json: {e}"))?;
    if all_inside {
        Ok(())
    } else {
        Err("two runs of the same code disagree by more than a bound".into())
    }
}
