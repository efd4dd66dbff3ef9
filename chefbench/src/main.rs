//! `chefbench` — the repo's measuring stick.
//!
//! ```text
//! chefbench run     [--seed N] [--reps R] [--workload W]... [--smoke] [--out FILE]
//! chefbench trace   [--seed N] [--workload W]... [--smoke] [--out FILE]
//! chefbench compare A.json B.json
//! chefbench bless   [--seed N]
//! chefbench one --workload W --seed N --seconds S --trace 0|1   (benchmark-driver protocol)
//! ```
//!
//! `run` and `trace` start one fresh `chefbench one` process per workload,
//! so every workload's `peak_rss_mb` is its own and no workload inherits a
//! warm heap from another.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use chefbench::check::{self, bench_dir};
use chefbench::compare;
use chefbench::json::{self, Value};
use chefbench::layers;
use chefbench::report;
use chefbench::run::{self, Reps, END_TO_END};
use chefbench::spans;
use chefbench::stats::Summary;
use chefbench::workloads::{Params, Workload};

const DEFAULT_SEED: u64 = 0;
const DEFAULT_REPS: usize = 5;

const USAGE: &str = "usage:
  chefbench run     [--seed N] [--reps R] [--workload W]... [--smoke] [--out FILE]
  chefbench trace   [--seed N] [--workload W]... [--smoke] [--out FILE]
  chefbench compare A.json B.json
  chefbench bless   [--seed N]
  chefbench one --workload W --seed N --seconds S --trace 0|1 [--reps R] [--smoke] [--detail FILE]";

/// Parsed command-line flags (every subcommand draws from the same set).
#[derive(Default)]
struct Flags {
    seed: Option<u64>,
    reps: Option<usize>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    workloads: Vec<Workload>,
    out: Option<PathBuf>,
    detail: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        fn num<T: std::str::FromStr>(name: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{name}: bad number '{v}'"))
        }
        match arg.as_str() {
            "--seed" => f.seed = Some(num("--seed", value("--seed")?)?),
            "--reps" => f.reps = Some(num("--reps", value("--reps")?)?),
            "--seconds" => f.seconds = Some(num("--seconds", value("--seconds")?)?),
            "--trace" => f.trace = num::<u8>("--trace", value("--trace")?)? != 0,
            "--smoke" => f.smoke = true,
            "--workload" => {
                let name = value("--workload")?;
                f.workloads.push(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--out" => f.out = Some(PathBuf::from(value("--out")?)),
            "--detail" => f.detail = Some(PathBuf::from(value("--detail")?)),
            other if other.starts_with("--") => return Err(format!("unknown flag '{other}'")),
            other => f.positional.push(other.to_string()),
        }
    }
    if f.reps == Some(0) {
        return Err("--reps must be at least 1".into());
    }
    Ok(f)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let flags = match parse_flags(rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("chefbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match cmd.as_str() {
        "one" => cmd_one(&flags),
        "run" => cmd_sets(&flags, false),
        "trace" => cmd_sets(&flags, true),
        "compare" => cmd_compare(&flags),
        "bless" => cmd_bless(&flags),
        _ => Err(format!("unknown command '{cmd}'\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("chefbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// One workload in this process: the benchmark-driver protocol. The last
/// line of standard output is the result object; everything for humans
/// goes to standard error.
fn cmd_one(flags: &Flags) -> Result<ExitCode, String> {
    let [w] = flags.workloads[..] else {
        return Err("one: exactly one --workload".into());
    };
    let p = Params {
        seed: flags.seed.unwrap_or(DEFAULT_SEED),
        smoke: flags.smoke,
    };
    // What differs between the two kinds of run: the metric values, the
    // operation counts, and what else the detail file carries.
    let (values, attempted, failed, failures, extra): (Vec<_>, u64, u64, _, Vec<(&str, Value)>) =
        if flags.trace {
            let t = layers::traced_run(w, p);
            let path = bench_dir()
                .join("out")
                .join(format!("trace-{}.json", w.name()));
            write_file(
                &path,
                &spans::trace_document(w.name(), &t.spans).to_json_pretty(),
            )?;
            eprintln!("chefbench: wrote {}", path.display());
            // A metric the probes could not take (a guest without a fork
            // has no fork step to time) is left out, never printed as 0.
            let values = layers::PER_LAYER
                .iter()
                .filter_map(|m| match t.values.get(m.name) {
                    Some(v) => Some((m.name, m.unit, *v)),
                    None => {
                        eprintln!("chefbench: {}: {} not measured", w.name(), m.name);
                        None
                    }
                })
                .collect();
            let extra = vec![("measured_on", Value::str(t.measured_on))];
            (values, t.attempted, t.failed, t.failures, extra)
        } else {
            // End-to-end reps run with the benchmark's spans off and the
            // program's own trace level `Off` (its default; never touched).
            let reps = match (flags.reps, flags.seconds) {
                (Some(r), _) => Reps::Exactly(r),
                (None, Some(s)) => Reps::Seconds(s),
                (None, None) => Reps::Exactly(DEFAULT_REPS),
            };
            let r = run::run_workload(w, p, reps);
            let values = END_TO_END
                .iter()
                .map(|m| (m.name, m.unit, chefbench::stats::median(&r.samples[m.name])))
                .collect();
            let samples = END_TO_END
                .iter()
                .map(|m| {
                    let v = r.samples[m.name].iter().map(|&x| Value::Num(x)).collect();
                    (m.name, Value::Arr(v))
                })
                .collect();
            eprintln!(
                "chefbench: {}: replayed {} of the {} tests every rep delivered on the reference VM",
                w.name(),
                r.replayed,
                r.set.tests
            );
            let extra = vec![
                ("reps", Value::Num(r.reps as f64)),
                ("tests_replayed", Value::Num(r.replayed as f64)),
                ("samples", Value::obj(samples)),
                ("set", report::set_value(&r.set)),
                ("ll_instructions", Value::Num(r.ll_instructions as f64)),
            ];
            (values, r.attempted, r.failed, r.failures, extra)
        };
    for f in &failures {
        eprintln!("chefbench: {}: FAILED: {f}", w.name());
    }
    let metrics = Value::obj(
        values
            .into_iter()
            .map(|(n, u, v)| {
                (
                    n,
                    Value::obj(vec![("value", Value::Num(v)), ("unit", Value::str(u))]),
                )
            })
            .collect(),
    );
    if let Some(path) = &flags.detail {
        let mut detail = vec![
            ("workload", Value::str(w.name())),
            ("seed", Value::Num(p.seed as f64)),
            ("attempted", Value::Num(attempted as f64)),
            ("failed", Value::Num(failed as f64)),
            ("metrics", metrics.clone()),
        ];
        detail.extend(extra);
        write_file(path, &Value::obj(detail).to_json_pretty())?;
    }
    let line = Value::obj(vec![
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", line.to_json());
    Ok(ExitCode::SUCCESS)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs `chefbench one` for `w` in a fresh child process and returns its
/// detail document.
fn spawn_one(w: Workload, seed: u64, flags: &Flags, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let detail =
        bench_dir()
            .join("out")
            .join(format!("one-{}-{}.json", w.name(), std::process::id()));
    let mut cmd = Command::new(exe);
    cmd.arg("one")
        .args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--reps", &flags.reps.unwrap_or(DEFAULT_REPS).to_string()])
        .arg("--detail")
        .arg(&detail);
    if flags.smoke {
        cmd.arg("--smoke");
    }
    // The child's stdout (the driver line) is of no use here; its stderr
    // (failures, progress) passes through.
    let status = cmd
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("spawn chefbench one: {e}"))?;
    if !status.success() {
        return Err(format!("{}: child exited with {status}", w.name()));
    }
    let text =
        std::fs::read_to_string(&detail).map_err(|e| format!("{}: {e}", detail.display()))?;
    let _ = std::fs::remove_file(&detail);
    json::parse(&text).map_err(|e| format!("{}: {e}", detail.display()))
}

fn selected(flags: &Flags) -> Vec<Workload> {
    if flags.workloads.is_empty() {
        Workload::ALL.to_vec()
    } else {
        flags.workloads.clone()
    }
}

/// `run` (end-to-end) and `trace` (per-layer): one child per workload, a
/// printed table, and a result file with the environment block.
fn cmd_sets(flags: &Flags, trace: bool) -> Result<ExitCode, String> {
    let seed = flags.seed.unwrap_or(DEFAULT_SEED);
    let reps_label = if trace {
        "1 untraced + 1 traced".to_string()
    } else {
        format!("{} timed reps", flags.reps.unwrap_or(DEFAULT_REPS))
    };
    let mut doc_workloads: Vec<(String, Value)> = Vec::new();
    let mut total_failed = 0u64;
    for w in selected(flags) {
        eprintln!("chefbench: {} ...", w.name());
        let d = spawn_one(w, seed, flags, trace)?;
        let count = |key: &str| d.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64;
        let (attempted, failed) = (count("attempted"), count("failed"));
        // (name, unit, samples), in reporting order.
        let mut rows: Vec<(&str, &str, Vec<f64>)> = Vec::new();
        if trace {
            for m in layers::PER_LAYER {
                let v = d.get("metrics").and_then(|ms| ms.get(m.name));
                if let Some(v) = v.and_then(|v| v.get("value")).and_then(Value::as_f64) {
                    rows.push((m.name, m.unit, vec![v]));
                }
            }
        } else {
            for m in END_TO_END.iter().filter(|m| m.reported_for(w)) {
                let vals: Vec<f64> = d
                    .get("samples")
                    .and_then(|s| s.get(m.name))
                    .and_then(Value::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(Value::as_f64)
                    .collect();
                if vals.is_empty() {
                    return Err(format!("{}: child reported no {}", w.name(), m.name));
                }
                rows.push((m.name, m.unit, vals));
            }
        }
        total_failed += failed;
        let share = failed as f64 / attempted.max(1) as f64;
        let table: BTreeMap<String, (String, Summary)> = rows
            .iter()
            .map(|(n, u, v)| (n.to_string(), (u.to_string(), Summary::of(v))))
            .collect();
        let order: Vec<&str> = rows.iter().map(|(n, _, _)| *n).collect();
        let measured_on = d.get("measured_on").and_then(Value::as_str);
        let title = match measured_on {
            Some(on) => format!("== {} ==  ({on})", w.name()),
            None => format!("== {} ==", w.name()),
        };
        report::print_metrics(&title, &table, &order);
        let replayed = if trace {
            String::new()
        } else {
            let set_tests = d.get("set").and_then(|s| s.get("tests"));
            format!(
                "; {} of the set's {} tests replayed",
                count("tests_replayed"),
                set_tests.and_then(Value::as_f64).unwrap_or(0.0)
            )
        };
        println!(
            "  {:<34} {:>6} {:>3} {:>12}   ({failed} failed of {attempted} operations{replayed})",
            "ops_failed_share",
            "share",
            1,
            report::sig(share)
        );
        let metrics = rows
            .iter()
            .map(|(n, u, v)| (*n, report::metric_value(u, v)))
            .collect();
        let mut entry = vec![
            (
                if trace { "per_layer" } else { "end_to_end" },
                Value::obj(metrics),
            ),
            ("ops", Value::Num(attempted as f64)),
            ("ops_failed", Value::Num(failed as f64)),
            ("ops_failed_share", Value::Num(share)),
        ];
        for key in ["set", "ll_instructions", "tests_replayed", "measured_on"] {
            if let Some(v) = d.get(key) {
                entry.push((key, v.clone()));
            }
        }
        doc_workloads.push((w.name().to_string(), Value::obj(entry)));
    }
    let doc = Value::obj(vec![
        ("kind", Value::str(if trace { "trace" } else { "run" })),
        ("env", report::environment(seed, &reps_label, flags.smoke)),
        ("workloads", Value::Obj(doc_workloads)),
    ]);
    let out = flags.out.clone().unwrap_or_else(|| {
        bench_dir().join("out").join(if trace {
            "trace-latest.json"
        } else {
            "run-latest.json"
        })
    });
    write_file(&out, &doc.to_json_pretty())?;
    eprintln!("chefbench: wrote {}", out.display());
    Ok(if total_failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("chefbench: {total_failed} operations failed");
        ExitCode::FAILURE
    })
}

fn cmd_compare(flags: &Flags) -> Result<ExitCode, String> {
    let [a, b] = &flags.positional[..] else {
        return Err("compare: two result files".into());
    };
    let load = |p: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let rows = compare::compare(&load(a)?, &load(b)?)?;
    Ok(compare::print(&rows, a, b))
}

/// Regenerates the goldens (full and smoke scale) from what the engine
/// delivers now. Only a benchmark-archetype change may commit the result.
fn cmd_bless(flags: &Flags) -> Result<ExitCode, String> {
    let seed = flags.seed.unwrap_or(DEFAULT_SEED);
    for w in selected(flags) {
        for smoke in [true, false] {
            let p = Params { seed, smoke };
            let rep = chefbench::workloads::run_rep(w, p, chefbench::workloads::Drive::Run);
            // Never bless a set the reference VM disagrees with.
            for job in &rep.jobs {
                let prog = job.spec.build().map_err(|e| format!("{}: {e}", w.name()))?;
                let bad = job
                    .tests
                    .iter()
                    .filter(|t| !check::replays_as_claimed(&prog, t))
                    .count();
                if bad > 0 || !job.reached {
                    return Err(format!(
                        "{}: refusing to bless: {bad} tests do not replay as claimed (reached end state: {})",
                        w.name(),
                        job.reached
                    ));
                }
            }
            let sets: Vec<&[chef_core::TestCase]> =
                rep.jobs.iter().map(|j| j.tests.as_slice()).collect();
            let set = check::summarize(&sets);
            check::store_golden(w.name(), smoke, seed, &set).map_err(|e| format!("golden: {e}"))?;
            println!(
                "{:<16} {:<5} tests {:>6} hl_paths {:>5} fnv {:016x}",
                w.name(),
                if smoke { "smoke" } else { "full" },
                set.tests,
                set.hl_paths,
                set.fingerprint
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}
