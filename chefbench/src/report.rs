//! Result files: the environment block, per-metric summaries, and the
//! table `run` and `trace` print.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use crate::check::{bench_dir, SetSummary};
use crate::json::Value;
use crate::stats::Summary;

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8(out.stdout).ok()?;
    let s = s.trim();
    (!s.is_empty()).then(|| s.to_string())
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`).
fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        // <id> <parent> <maj:min> <root> <mount point> <opts> … - <fstype> …
        let Some((left, right)) = line.split_once(" - ") else {
            continue;
        };
        let Some(mount) = left.split(' ').nth(4) else {
            continue;
        };
        let Some(fstype) = right.split(' ').next() else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, t)| t)
}

/// The environment block every result file carries.
pub fn environment(seed: u64, reps: &str, smoke: bool) -> Value {
    let dir = bench_dir();
    let out_dir = dir.join("out");
    let _ = std::fs::create_dir_all(&out_dir);
    let commit =
        command_line("git", &["rev-parse", "HEAD"], &dir).unwrap_or_else(|| "unknown".into());
    let dirty = command_line("git", &["status", "--porcelain"], &dir).is_some();
    Value::obj(vec![
        ("commit", Value::str(commit)),
        ("worktree_dirty", Value::Bool(dirty)),
        (
            "nproc",
            Value::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        (
            "rustc",
            Value::str(
                command_line("rustc", &["--version"], &dir).unwrap_or_else(|| "unknown".into()),
            ),
        ),
        ("data_dir_fs", Value::str(fs_type(&out_dir))),
        ("seed", Value::Num(seed as f64)),
        ("reps", Value::str(reps)),
        ("scale", Value::str(if smoke { "smoke" } else { "full" })),
    ])
}

/// One metric's entry in a result file.
pub fn metric_value(unit: &str, samples: &[f64]) -> Value {
    let s = Summary::of(samples);
    Value::obj(vec![
        ("unit", Value::str(unit)),
        ("n", Value::Num(s.n as f64)),
        ("median", Value::Num(s.median)),
        ("min", Value::Num(s.min)),
        ("max", Value::Num(s.max)),
        ("q1", Value::Num(s.q1)),
        ("q3", Value::Num(s.q3)),
    ])
}

/// Reads a metric entry back.
pub fn summary_of(v: &Value) -> Option<Summary> {
    let num = |k: &str| v.get(k).and_then(Value::as_f64);
    Some(Summary {
        n: num("n")? as usize,
        median: num("median")?,
        min: num("min")?,
        max: num("max")?,
        q1: num("q1")?,
        q3: num("q3")?,
    })
}

/// The canonical-set entry of a result file.
pub fn set_value(set: &SetSummary) -> Value {
    Value::obj(vec![
        ("tests", Value::Num(set.tests as f64)),
        ("hl_paths", Value::Num(set.hl_paths as f64)),
        ("fnv", Value::str(format!("{:016x}", set.fingerprint))),
    ])
}

/// Prints one workload's metrics as an aligned table.
pub fn print_metrics(title: &str, metrics: &BTreeMap<String, (String, Summary)>, order: &[&str]) {
    println!("{title}");
    println!(
        "  {:<34} {:>6} {:>3} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "metric", "unit", "n", "median", "min", "max", "q1", "q3"
    );
    for name in order {
        let Some((unit, s)) = metrics.get(*name) else {
            continue;
        };
        println!(
            "  {:<34} {:>6} {:>3} {:>12} {:>12} {:>12} {:>12} {:>12}",
            name,
            unit,
            s.n,
            sig(s.median),
            sig(s.min),
            sig(s.max),
            sig(s.q1),
            sig(s.q3)
        );
    }
}

/// A number at a width a table can hold: integers whole, the rest to
/// four significant-ish decimals.
pub fn sig(v: f64) -> String {
    if v == 0.0 || (v.fract() == 0.0 && v.abs() < 1e12) {
        format!("{v:.0}")
    } else if v.abs() >= 1000.0 {
        format!("{v:.1}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.5}")
    }
}
