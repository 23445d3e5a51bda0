//! `perfbench compare BASE NEW`: medians of two sets of saved runs,
//! checked against the bounds in `BENCHMARK.json`.
//!
//! Each file holds the concatenated standard output of one or more runs.
//! Runs are grouped by workload. Runs whose host fingerprints (core count,
//! cache sizes, build mode) differ are never compared: the command
//! refuses and exits 2. A metric whose median is worse than the base by
//! more than its bound makes the command exit 1.

use std::collections::BTreeMap;
use std::process::ExitCode;

use tiling3d_obs::json::{self, Json};

use crate::report::Metric;
use crate::stats::median;

/// A parsed result line.
pub struct RunResult {
    /// `correct` field.
    pub correct: bool,
    /// `attempted` field.
    pub attempted: u64,
    /// `failed` field.
    pub failed: u64,
    /// The metrics, in file order.
    pub metrics: Vec<Metric>,
}

/// Parses a result line; `None` when it is not one.
pub fn parse_result(line: &str) -> Option<RunResult> {
    let v = json::parse(line).ok()?;
    let count = |k: &str| {
        v.get(k)
            .and_then(Json::as_f64)
            .filter(|f| *f >= 0.0)
            .map(|f| f as u64)
    };
    let Some(Json::Obj(fields)) = v.get("metrics") else {
        return None;
    };
    let metrics = fields
        .iter()
        .map(|(name, m)| {
            Some(Metric::new(
                name,
                m.get("value").and_then(Json::as_f64)?,
                m.get("unit").and_then(Json::as_str)?,
            ))
        })
        .collect::<Option<Vec<_>>>()?;
    Some(RunResult {
        correct: matches!(v.get("correct"), Some(Json::Bool(true))),
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
    })
}

/// Runs in one output file: workload -> metric -> values, every
/// fingerprint seen, and the workloads of runs that reported
/// `correct: false`.
#[derive(Default)]
struct Runs {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    fingerprints: Vec<String>,
    incorrect: Vec<String>,
}

fn parse_runs(text: &str, path: &str) -> Result<Runs, String> {
    let mut runs = Runs::default();
    let mut workload = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("perfbench workload=") {
            workload = rest.split_whitespace().next().map(str::to_string);
        } else if let Some(fp) = line.strip_prefix("fingerprint ") {
            runs.fingerprints.push(fp.to_string());
        } else if let (Some(w), Some(res)) = (&workload, parse_result(line)) {
            if !res.correct || res.failed > 0 {
                runs.incorrect.push(w.clone());
            }
            let per = runs.values.entry(w.clone()).or_default();
            for m in res.metrics {
                per.entry(m.name).or_default().push(m.value);
            }
        }
    }
    if runs.values.is_empty() {
        return Err(format!("{path}: no benchmark runs found"));
    }
    Ok(runs)
}

fn read_runs(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_runs(&text, path)
}

/// One end-to-end metric's regression rule from `BENCHMARK.json`.
struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn read_bounds(path: &str) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let Some(Json::Arr(items)) = v.get("end_to_end") else {
        return Err(format!("{path}: no end_to_end list"));
    };
    items
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name").and_then(Json::as_str)?.to_string(),
                lower_is_better: m.get("better").and_then(Json::as_str)? == "lower",
                bound: m.get("bound").and_then(Json::as_f64)?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("{path}: malformed end_to_end entry"))
}

/// Entry point of the `compare` subcommand.
pub fn main(args: &[String]) -> ExitCode {
    let [base, new] = args else {
        eprintln!("usage: perfbench compare BASE.txt NEW.txt");
        return ExitCode::from(2);
    };
    let result = (|| {
        let (a, b) = (read_runs(base)?, read_runs(new)?);
        check(&a, &b, &read_bounds("BENCHMARK.json")?)
    })();
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench compare: {e}");
            ExitCode::from(2)
        }
    }
}

/// Compares the medians of `new` against `base` under `bounds`. `Ok(false)`
/// when NEW regressed, holds an incorrect run, or lacks a workload or a
/// bounded metric that BASE has; `Err` when the fingerprints differ.
fn check(base: &Runs, new: &Runs, bounds: &[Bound]) -> Result<bool, String> {
    let mut prints = base.fingerprints.iter().chain(&new.fingerprints);
    let first = prints.next().ok_or("no fingerprint lines in the outputs")?;
    if let Some(other) = prints.find(|f| *f != first) {
        return Err(format!(
            "refusing to compare runs from different hosts or builds:\n  {first}\n  {other}"
        ));
    }
    let mut ok = true;
    println!("fingerprint {first}");
    for w in &new.incorrect {
        println!("{w:<12} NEW has a run with correct=false or failed operations: FAILED");
        ok = false;
    }
    for (workload, base_metrics) in &base.values {
        let Some(new_metrics) = new.values.get(workload) else {
            println!("{workload:<12} no result in NEW: MISSING");
            ok = false;
            continue;
        };
        for rule in bounds {
            let Some(x) = base_metrics.get(&rule.name) else {
                continue;
            };
            let Some(y) = new_metrics.get(&rule.name) else {
                println!("{workload:<12} {:<14} no value in NEW: MISSING", rule.name);
                ok = false;
                continue;
            };
            let (mx, my) = (median(x).unwrap_or(f64::NAN), median(y).unwrap_or(f64::NAN));
            let worse = if rule.lower_is_better {
                (my - mx) / mx
            } else {
                (mx - my) / mx
            };
            let verdict = if !worse.is_finite() {
                ok = false;
                "NOT COMPARABLE"
            } else if worse > rule.bound {
                ok = false;
                "REGRESSED"
            } else {
                "ok"
            };
            println!(
                "{workload:<12} {:<14} base {mx:.6e} (n={}) new {my:.6e} (n={}) worse by {:+.2}% (bound {:.0}%) {verdict}",
                rule.name,
                x.len(),
                y.len(),
                100.0 * worse,
                100.0 * rule.bound
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_round_trip() {
        let line = crate::report::result_line(true, 7, 0, &[Metric::new("setup_s", 0.25, "s")]);
        let r = parse_result(&line).unwrap();
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (7, 0));
        assert_eq!(r.metrics[0].name, "setup_s");
        assert_eq!(r.metrics[0].value, 0.25);
        assert_eq!(r.metrics[0].unit, "s");
    }

    /// Saved output of one run of `workload`.
    fn run_text(workload: &str, fp: &str, correct: bool, metrics: &[(&str, f64)]) -> String {
        let metrics: Vec<Metric> = metrics
            .iter()
            .map(|&(name, value)| Metric::new(name, value, "s"))
            .collect();
        format!(
            "perfbench workload={workload} seed=1\nfingerprint {fp}\n{}\n",
            crate::report::result_line(correct, 1, u64::from(!correct), &metrics)
        )
    }

    fn runs(text: &str) -> Runs {
        parse_runs(text, "test").unwrap()
    }

    const FP: &str = "cores=2 build=native";

    fn bounds() -> Vec<Bound> {
        vec![Bound {
            name: "setup_s".into(),
            lower_is_better: true,
            bound: 0.25,
        }]
    }

    fn base() -> Runs {
        runs(&run_text("paper-sweep", FP, true, &[("setup_s", 1.0)]))
    }

    #[test]
    fn equal_runs_pass_and_regressions_fail() {
        let same = runs(&run_text("paper-sweep", FP, true, &[("setup_s", 1.1)]));
        assert_eq!(check(&base(), &same, &bounds()), Ok(true));
        let slow = runs(&run_text("paper-sweep", FP, true, &[("setup_s", 1.5)]));
        assert_eq!(check(&base(), &slow, &bounds()), Ok(false));
    }

    #[test]
    fn differing_fingerprints_are_refused() {
        let other = runs(&run_text(
            "paper-sweep",
            "cores=4 build=native",
            true,
            &[("setup_s", 1.0)],
        ));
        let err = check(&base(), &other, &bounds()).unwrap_err();
        assert!(err.contains("refusing"), "{err}");
    }

    #[test]
    fn a_workload_missing_from_new_fails() {
        let other = runs(&run_text("solve-l3", FP, true, &[("setup_s", 1.0)]));
        assert_eq!(check(&base(), &other, &bounds()), Ok(false));
    }

    #[test]
    fn a_bounded_metric_missing_from_new_fails() {
        let other = runs(&run_text("paper-sweep", FP, true, &[("peak_rss_mb", 1.0)]));
        assert_eq!(check(&base(), &other, &bounds()), Ok(false));
    }

    #[test]
    fn an_incorrect_new_run_fails() {
        let wrong = runs(&run_text("paper-sweep", FP, false, &[("setup_s", 1.0)]));
        assert_eq!(check(&base(), &wrong, &bounds()), Ok(false));
    }

    #[test]
    fn a_zero_base_median_is_not_comparable() {
        let zero = runs(&run_text("paper-sweep", FP, true, &[("setup_s", 0.0)]));
        assert_eq!(check(&zero, &zero, &bounds()), Ok(false));
    }
}
