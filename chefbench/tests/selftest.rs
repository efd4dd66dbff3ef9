//! chefbench's self-tests. Run them optimized — the smoke-scale workloads
//! are sized for it:
//!
//! ```text
//! cargo test --release --manifest-path chefbench/Cargo.toml
//! ```

use std::collections::BTreeSet;

use chefbench::check::summarize;
use chefbench::compare::{compare, judge, Verdict};
use chefbench::guests::{engine_config, fresh_jobs, simplejson};
use chefbench::json::{self, Value};
use chefbench::layers::PER_LAYER;
use chefbench::run::{run_workload, Better, Checker, Reps, END_TO_END};
use chefbench::spans::{aggregate, self_time_ns, SpanRec};
use chefbench::stats::{median, percentile, quartiles, supported_tail, Summary};
use chefbench::workloads::{run_rep, Drive, Params, Workload};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses")
}

fn names(doc: &Value, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("{key} is an array"))
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn names_are_well_formed_and_within_the_limits() {
    let ok = |n: &str| {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut seen = BTreeSet::new();
    for w in Workload::ALL {
        assert!(ok(w.name()), "{}", w.name());
        assert!(seen.insert(w.name()), "{} used twice", w.name());
    }
    for m in END_TO_END {
        assert!(ok(m.name) && unit_ok(m.unit), "{}", m.name);
        for w in Workload::ALL {
            let b = m.bound_on(w);
            assert!(b > 0.0 && b <= 0.25, "{} on {}", m.name, w.name());
        }
        assert!(seen.insert(m.name), "{} used twice", m.name);
    }
    for m in PER_LAYER {
        assert!(ok(m.name) && unit_ok(m.unit), "{}", m.name);
        assert!(seen.insert(m.name), "{} used twice", m.name);
    }
    assert!((2..=8).contains(&Workload::ALL.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
}

#[test]
fn benchmark_json_lists_exactly_what_the_benchmark_prints() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names(&doc, "workloads"), workloads);
    for w in doc
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
    {
        let why = w.get("why").and_then(Value::as_str).expect("why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }

    let listed = doc
        .get("end_to_end")
        .and_then(Value::as_arr)
        .expect("end_to_end");
    assert_eq!(listed.len(), END_TO_END.len());
    for (e, m) in listed.iter().zip(END_TO_END) {
        assert_eq!(e.get("name").and_then(Value::as_str), Some(m.name));
        assert_eq!(
            e.get("unit").and_then(Value::as_str),
            Some(m.unit),
            "{}",
            m.name
        );
        assert_eq!(
            e.get("better").and_then(Value::as_str),
            Some(m.better.as_str()),
            "{}",
            m.name
        );
        // One bound per metric in the file: the widest of its rows.
        assert_eq!(
            e.get("bound").and_then(Value::as_f64),
            Some(m.listed_bound()),
            "{}",
            m.name
        );
    }
    let setup = &END_TO_END[0];
    assert_eq!(
        (setup.name, setup.unit, setup.better),
        ("setup_s", "s", Better::Lower)
    );
    assert!(
        END_TO_END
            .iter()
            .all(|m| m.listed_bound() <= setup.listed_bound()),
        "no listed bound is larger than setup_s's"
    );
    // Rows nobody measured noisy keep the tight bound.
    let rss = END_TO_END
        .iter()
        .find(|m| m.name == "peak_rss_mb")
        .expect("peak_rss_mb");
    assert_eq!(rss.bound_on(Workload::ConcreteParse), 0.10);
    assert_eq!(setup.bound_on(Workload::ForkDense), 0.15);
    // Job latency is a serve_fresh metric.
    for m in END_TO_END
        .iter()
        .filter(|m| m.name.starts_with("job_latency"))
    {
        for w in Workload::ALL {
            assert_eq!(m.reported_for(w), w == Workload::ServeFresh);
        }
    }

    let listed = doc
        .get("per_layer")
        .and_then(Value::as_arr)
        .expect("per_layer");
    assert_eq!(listed.len(), PER_LAYER.len());
    for (e, m) in listed.iter().zip(PER_LAYER) {
        assert_eq!(e.get("name").and_then(Value::as_str), Some(m.name));
        assert_eq!(
            e.get("unit").and_then(Value::as_str),
            Some(m.unit),
            "{}",
            m.name
        );
        assert_eq!(
            e.get("better").and_then(Value::as_str),
            Some(m.better.as_str()),
            "{}",
            m.name
        );
        assert!(
            e.get("bound").is_none(),
            "{}: per-layer metrics have no bound",
            m.name
        );
    }
}

#[test]
fn generated_jobs_are_a_pure_function_of_the_seed() {
    let render = |seed| -> Vec<String> {
        fresh_jobs(seed, 200)
            .iter()
            .map(|j| j.to_value().to_json())
            .collect()
    };
    assert_eq!(render(7), render(7), "same seed, byte-identical jobs");
    assert_ne!(render(7), render(8), "another seed, other jobs");
    // Every job is its own corpus target, whatever the seed.
    for seed in [0, 7, 8] {
        let keys: BTreeSet<String> = fresh_jobs(seed, 200)
            .iter()
            .map(|j| j.target_key())
            .collect();
        assert_eq!(keys.len(), 200);
    }
    // Stratification: two seeds draw nearly the same total work.
    let tests = |seed| -> usize {
        fresh_jobs(seed, 200)
            .iter()
            .map(|j| match j.args[0] {
                chef_serve::JobArg::Str { len, .. } => 1usize << len,
                _ => unreachable!("jobs take one symbolic string"),
            })
            .sum()
    };
    let (a, b) = (tests(1) as f64, tests(2) as f64);
    assert!((a - b).abs() / a < 0.05, "path totals {a} vs {b}");
}

fn rec(id: u32, parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> SpanRec {
    SpanRec {
        id,
        parent,
        name,
        start_ns,
        end_ns,
    }
}

#[test]
fn span_self_time_is_duration_minus_the_union_of_children() {
    let parent = rec(1, None, "rep", 100, 1100);
    // Sequential children: plain subtraction.
    let (a, b) = (
        rec(2, Some(1), "a", 200, 300),
        rec(3, Some(1), "b", 500, 900),
    );
    assert_eq!(self_time_ns(&parent, &[&a, &b]), 1000 - 100 - 400);
    // Children on two client threads overlap: the overlap counts once.
    let (c, d) = (
        rec(4, Some(1), "c", 200, 700),
        rec(5, Some(1), "d", 600, 1000),
    );
    assert_eq!(self_time_ns(&parent, &[&c, &d]), 1000 - 800);
    // A child that outlives its parent is clipped to it.
    let late = rec(6, Some(1), "late", 1000, 5000);
    assert_eq!(self_time_ns(&parent, &[&late]), 900);
    // No children: all of it.
    assert_eq!(self_time_ns(&parent, &[]), 1000);

    let totals = aggregate(&[parent.clone(), a, b, rec(7, Some(2), "leaf", 210, 250)]);
    assert_eq!(totals["rep"].self_ns, 500);
    assert_eq!((totals["a"].total_ns, totals["a"].self_ns), (100, 60));
    assert_eq!((totals["leaf"].count, totals["leaf"].self_ns), (1, 40));
}

#[test]
fn latency_tail_needs_ten_samples_beyond_it() {
    assert_eq!(supported_tail(3), 50.0);
    assert_eq!(supported_tail(99), 50.0);
    assert_eq!(supported_tail(100), 90.0); // exactly 10 beyond p90
    assert_eq!(supported_tail(200), 90.0); // p99 would rest on 2 samples
    assert_eq!(supported_tail(999), 90.0);
    assert_eq!(supported_tail(1000), 99.0); // nothing above p99 is reported
    assert_eq!(supported_tail(100_000), 99.0);
    let v: Vec<f64> = (1..=200).map(f64::from).collect();
    assert_eq!(percentile(&v, 90.0), 180.0);
    assert_eq!(percentile(&v, 50.0), 100.0);
}

#[test]
fn quartiles_are_pythons_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), (2.75, 8.25));
    assert_eq!(median(&v), 5.5);
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    let s = Summary::of(&v);
    assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));
    assert_eq!(s.spread(), 1.0);
}

#[test]
fn compare_labels_rows_by_bound_and_spread() {
    // 5 % slower, 2 % spread, 10 % bound.
    assert_eq!(
        judge(Better::Lower, 0.10, 100.0, 105.0, 0.02).1,
        Verdict::Ok
    );
    assert_eq!(
        judge(Better::Lower, 0.10, 100.0, 115.0, 0.02).1,
        Verdict::Regression
    );
    // A throughput that drops is worse; one that rises is not.
    assert_eq!(
        judge(Better::Higher, 0.10, 100.0, 85.0, 0.02).1,
        Verdict::Regression
    );
    assert_eq!(
        judge(Better::Higher, 0.10, 100.0, 130.0, 0.02).1,
        Verdict::Ok
    );
    // Spread wider than the bound: the files cannot tell, either way.
    assert_eq!(
        judge(Better::Lower, 0.10, 100.0, 101.0, 0.12).1,
        Verdict::Unresolved
    );
    assert_eq!(
        judge(Better::Lower, 0.10, 100.0, 150.0, 0.12).1,
        Verdict::Unresolved
    );
}

#[test]
fn json_round_trips_every_measured_digit() {
    let doc = Value::obj(vec![
        ("t", Value::Num(4.4017219690000005)),
        ("n", Value::Num(3302.0)),
        ("s", Value::str("a \"quoted\"\n\\ string")),
        (
            "a",
            Value::Arr(vec![Value::Null, Value::Bool(true), Value::Num(-0.5e-7)]),
        ),
    ]);
    assert_eq!(json::parse(&doc.to_json()).unwrap(), doc);
    assert_eq!(json::parse(&doc.to_json_pretty()).unwrap(), doc);
    assert!(json::parse("{\"a\": 1,}").is_err());
    assert!(json::parse(&"[".repeat(10_000)).is_err(), "bounded nesting");
}

/// One workload at smoke scale: every delivered test replays on the
/// reference VM, the canonical set equals its golden, every end-to-end
/// metric comes out non-zero, and `--seed` changes what `serve_fresh` is
/// given and nothing else.
fn smoke(w: Workload) {
    let set = |seed| {
        let p = Params { seed, smoke: true };
        let r = run_workload(w, p, Reps::Exactly(1));
        assert_eq!(r.failed, 0, "{}: {:?}", w.name(), r.failures);
        assert!(r.replayed > 0 && r.replayed == r.set.tests, "{}", w.name());
        if !w.is_serve() {
            assert_eq!(r.attempted, r.replayed + 1, "{}", w.name());
        }
        for m in END_TO_END {
            let v = &r.samples[m.name];
            assert!(
                !v.is_empty() && v.iter().all(|x| *x > 0.0),
                "{} {}",
                w.name(),
                m.name
            );
        }
        r.set
    };
    assert_eq!(set(0) == set(1), !w.seed_dependent(), "{}", w.name());
}

/// The engine's RNG seed changes the exploration order and not the
/// delivered set: exhaustion makes the set a function of the guest alone,
/// which is what lets one golden serve every configuration.
#[test]
fn exhaustive_set_does_not_depend_on_the_engine_seed() {
    let prog = simplejson(3).build().expect("guest builds");
    let set = |seed| {
        let config = chef_core::ChefConfig {
            seed,
            ..engine_config()
        };
        summarize(&[&chef_core::Chef::new(&prog, config).run().tests])
    };
    assert_eq!(set(0), set(12345));
}

/// Only replayed tests count as attempted, and a set the budget cut short
/// is not taken as verified.
#[test]
fn replay_budget_is_accounted_honestly() {
    let p = Params {
        seed: 0,
        smoke: true,
    };
    let rep = run_rep(Workload::ForkDense, p, Drive::Run);
    let delivered = rep.test_count() as u64;
    let mut capped = Checker::new(Workload::ForkDense, p, 1);
    capped.check(&rep);
    assert_eq!((capped.replayed, capped.attempted), (1, 2));
    capped.check(&rep);
    assert_eq!((capped.replayed, capped.attempted), (1, 3));
    let mut full = Checker::new(Workload::ForkDense, p, u64::MAX);
    full.check(&rep);
    full.check(&rep); // an identical, verified set is not replayed again
    assert_eq!(full.replayed, delivered);
    assert_eq!((full.attempted, full.failed), (delivered + 2, 0));
}

/// A truncated B file never compares clean.
#[test]
fn compare_flags_what_b_lacks() {
    let file = |metrics: &str| {
        json::parse(&format!(
            r#"{{"workloads": {{"fork_dense": {{"end_to_end": {{{metrics}}}}}}}}}"#
        ))
        .expect("test document parses")
    };
    let m = |name: &str| {
        format!(
            r#""{name}": {{"unit": "s", "n": 1, "median": 1, "min": 1, "max": 1, "q1": 1, "q3": 1}}"#
        )
    };
    let a = file(&format!("{}, {}", m("wall_s"), m("setup_s")));
    let rows = compare(&a, &file(&m("wall_s"))).expect("both have workloads");
    let verdicts: Vec<(&str, Verdict)> = rows
        .iter()
        .map(|r| (r.metric.as_str(), r.verdict))
        .collect();
    assert_eq!(
        verdicts,
        [("setup_s", Verdict::Missing), ("wall_s", Verdict::Ok)]
    );
    let empty = json::parse(r#"{"workloads": {}}"#).expect("parses");
    let rows = compare(&a, &empty).expect("both have workloads");
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].verdict, Verdict::Missing);
}

#[test]
fn smoke_fork_dense() {
    smoke(Workload::ForkDense);
}

#[test]
fn smoke_solver_bound() {
    smoke(Workload::SolverBound);
}

#[test]
fn smoke_concrete_parse() {
    smoke(Workload::ConcreteParse);
}

#[test]
fn smoke_serve_fresh() {
    smoke(Workload::ServeFresh);
}

#[test]
fn smoke_serve_resume() {
    smoke(Workload::ServeResume);
}
