//! `chefbench compare A.json B.json`: applies each metric's bound to two
//! result files, one row per (workload, metric).
//!
//! - end-to-end rows: `ok`, `regression` (B's median worse than A's by
//!   more than the bound), or `unresolved` (either side's run-to-run
//!   spread — inter-quartile distance over median — is wider than the
//!   bound, so the files cannot tell a regression from noise);
//! - a workload or metric that A has and B lacks is `missing`, and counts
//!   as a regression: a truncated file never compares clean;
//! - `ops_failed_share` must not rise;
//! - per-layer rows (trace files): count-type metrics must be identical;
//!   the rest are listed with their ratio and carry no verdict.

use std::process::ExitCode;

use crate::json::Value;
use crate::layers::PER_LAYER;
use crate::report::{sig, summary_of};
use crate::run::{Better, END_TO_END};
use crate::workloads::Workload;

/// Verdict of one row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (or, for a count, identical).
    Ok,
    /// Worse than the bound allows (or a count that changed).
    Regression,
    /// Spread wider than the bound: not decidable from these files.
    Unresolved,
    /// Present in A, absent from B.
    Missing,
    /// Informational row without a bound.
    Info,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regression => "regression",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
            Verdict::Info => "-",
        }
    }
}

/// One compared (workload, metric) pair.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// A's median (the base of every ratio).
    pub a: f64,
    /// B's median.
    pub b: f64,
    /// How much worse B is, as a share of A (negative: better).
    pub worse: f64,
    /// The wider of the two files' spreads.
    pub spread: f64,
    /// The metric's bound, if it has one.
    pub bound: Option<f64>,
    /// The verdict.
    pub verdict: Verdict,
}

/// Decides one end-to-end row from the two medians, the wider spread and
/// the bound.
pub fn judge(better: Better, bound: f64, a: f64, b: f64, spread: f64) -> (f64, Verdict) {
    let worse = if a == 0.0 {
        0.0
    } else {
        match better {
            Better::Lower => (b - a) / a.abs(),
            Better::Higher => (a - b) / a.abs(),
        }
    };
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

fn missing(workload: &str, metric: &str, a: f64) -> Row {
    Row {
        workload: workload.to_string(),
        metric: metric.to_string(),
        a,
        b: f64::NAN,
        worse: f64::NAN,
        spread: 0.0,
        bound: None,
        verdict: Verdict::Missing,
    }
}

/// Compares two result files of the same kind: one row for every
/// (workload, metric) A carries.
///
/// # Errors
///
/// Returns a message if either file lacks a `workloads` object.
pub fn compare(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let wa = a
        .get("workloads")
        .and_then(Value::as_obj)
        .ok_or("A: no workloads")?;
    let wb = b.get("workloads").ok_or("B: no workloads")?;
    let mut rows = Vec::new();
    for (name, ea) in wa {
        let Some(eb) = wb.get(name) else {
            rows.push(missing(name, "(every metric)", f64::NAN));
            continue;
        };
        let workload = Workload::parse(name);
        if let Some(ma) = ea.get("end_to_end") {
            for m in END_TO_END {
                let Some(sa) = ma.get(m.name).and_then(summary_of) else {
                    continue;
                };
                let sb = eb
                    .get("end_to_end")
                    .and_then(|mb| mb.get(m.name))
                    .and_then(summary_of);
                let Some(sb) = sb else {
                    rows.push(missing(name, m.name, sa.median));
                    continue;
                };
                let bound = workload.map_or(m.bound, |w| m.bound_on(w));
                let spread = sa.spread().max(sb.spread());
                let (worse, verdict) = judge(m.better, bound, sa.median, sb.median, spread);
                rows.push(Row {
                    workload: name.clone(),
                    metric: m.name.to_string(),
                    a: sa.median,
                    b: sb.median,
                    worse,
                    spread,
                    bound: Some(bound),
                    verdict,
                });
            }
        }
        let share = |e: &Value| e.get("ops_failed_share").and_then(Value::as_f64);
        match (share(ea), share(eb)) {
            (Some(fa), Some(fb)) => rows.push(Row {
                workload: name.clone(),
                metric: "ops_failed_share".into(),
                a: fa,
                b: fb,
                worse: fb - fa,
                spread: 0.0,
                bound: Some(0.0),
                verdict: if fb > fa {
                    Verdict::Regression
                } else {
                    Verdict::Ok
                },
            }),
            (Some(fa), None) => rows.push(missing(name, "ops_failed_share", fa)),
            _ => {}
        }
        if let Some(ma) = ea.get("per_layer") {
            for m in PER_LAYER {
                let Some(sa) = ma.get(m.name).and_then(summary_of) else {
                    continue;
                };
                let sb = eb
                    .get("per_layer")
                    .and_then(|mb| mb.get(m.name))
                    .and_then(summary_of);
                let Some(sb) = sb else {
                    rows.push(missing(name, m.name, sa.median));
                    continue;
                };
                let worse = if sa.median == 0.0 {
                    0.0
                } else {
                    (sb.median - sa.median) / sa.median.abs()
                };
                let verdict = match m.exact {
                    true if sa.median == sb.median => Verdict::Ok,
                    true => Verdict::Regression,
                    false => Verdict::Info,
                };
                rows.push(Row {
                    workload: name.clone(),
                    metric: m.name.to_string(),
                    a: sa.median,
                    b: sb.median,
                    worse,
                    spread: 0.0,
                    bound: None,
                    verdict,
                });
            }
        }
    }
    Ok(rows)
}

/// Prints the rows and returns the exit code: 0 when every judged row is
/// `ok`, 1 when any is a `regression` or `missing`, 3 when none is but some
/// are `unresolved`.
pub fn print(rows: &[Row], a: &str, b: &str) -> ExitCode {
    println!("A = {a}\nB = {b}   (every ratio is B against A)");
    println!(
        "{:<16} {:<34} {:>12} {:>12} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B worse", "spread", "bound"
    );
    let (mut regressions, mut unresolved) = (0, 0);
    for r in rows {
        match r.verdict {
            Verdict::Regression | Verdict::Missing => regressions += 1,
            Verdict::Unresolved => unresolved += 1,
            _ => {}
        }
        println!(
            "{:<16} {:<34} {:>12} {:>12} {:>8.1}% {:>7.1}% {:>7}  {}",
            r.workload,
            r.metric,
            sig(r.a),
            sig(r.b),
            r.worse * 100.0,
            r.spread * 100.0,
            r.bound
                .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
            r.verdict.label()
        );
    }
    println!(
        "{} rows: {regressions} regression or missing, {unresolved} unresolved",
        rows.len()
    );
    if regressions > 0 {
        ExitCode::from(1)
    } else if unresolved > 0 {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    }
}
