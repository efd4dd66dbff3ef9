//! The traced run: per-layer metrics, measured **from outside** by timing
//! calls into each layer's public functions on the workload's own guest,
//! tests and seeds. Nothing in the program is instrumented for this;
//! spans and counters inside the program are a later issue.
//!
//! A traced run of one workload is: one untraced rep, one rep with the
//! benchmark's spans on and the program's own `chef_trace` level at
//! `Spans` (their ratio is `trace.overhead_ratio`), then a series of
//! layer probes. The engine-level probes (`minipy`, `lir`, `solver`,
//! `symex`, `core`, the `Corpus` calls) run on the workload's own guest.
//! The two *flow* probes (`fleet.*`: one, two and sliced workers;
//! `serve.*`: a fresh and a restart-and-resume daemon session) each cost
//! several whole runs of their guest, so for the engine workloads they run
//! on the guest at 1/20 scale ([`flow_guest`]); every result names the
//! guest it was measured on.
//!
//! The trace level is process-global. It is flipped only between reps,
//! when every engine, fleet and daemon thread has been joined.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use chef_core::{Chef, ChefConfig, EngineStatus, Report, Snapshot, TestCase, Wire, WorkSeed};
use chef_fleet::{run_fleet, run_fleet_slice, FleetConfig};
use chef_lir::{run_concrete, Program};
use chef_serve::{Corpus, JobSpec};
use chef_solver::Solver;
use chef_symex::{ExecConfig, Executor, FfMode, State, StepEvent};

use crate::guests;
use crate::run::{Better, Checker, DRIVER_REPLAY_STEPS};
use crate::spans::{self, SpanRec};
use crate::stats;
use crate::workloads::{
    fresh_data_dir, run_rep, serve_fresh_with, serve_resume_with, step_rounds, Daemon, Drive,
    Params, Rep, Workload,
};

/// A per-layer metric.
#[derive(Clone, Copy, Debug)]
pub struct LayerMetric {
    /// `<crate>.<name>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Whether the value is a deterministic count that must repeat exactly
    /// from run to run (the preferred evidence; `compare` checks it).
    pub exact: bool,
}

const fn time(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn rate(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better: Better::Higher,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better: Better::Lower,
        exact: true,
    }
}

/// Every per-layer metric, in reporting order. `BENCHMARK.json` lists
/// exactly these (a self-test holds the two together).
pub const PER_LAYER: [LayerMetric; 85] = [
    // minipy (shared by minilua): front end and interpreter shape.
    time("minipy.compile_us", "us"),
    time("minipy.build_program_us", "us"),
    count("minipy.lir_insts", "count"),
    count("minipy.ll_per_hl_op", "ratio"),
    // lir: the concrete reference VM.
    rate("lir.run_concrete_mll_per_s", "MLL/s"),
    time("lir.replay_us_per_test", "us"),
    // solver: replayed query log + SolverStats of the workload's run.
    rate("solver.replay_qps", "1/s"),
    time("solver.check_p50_us", "us"),
    time("solver.check_p99_us", "us"),
    time("solver.sat_time_share", "share"),
    count("solver.queries_per_kll", "1/kLL"),
    count("solver.sat_calls_per_kq", "1/kq"),
    LayerMetric {
        name: "solver.cache_hits_per_kq",
        unit: "1/kq",
        better: Better::Higher,
        exact: true,
    },
    LayerMetric {
        name: "solver.model_reuse_per_kq",
        unit: "1/kq",
        better: Better::Higher,
        exact: true,
    },
    LayerMetric {
        name: "solver.const_hits_per_kq",
        unit: "1/kq",
        better: Better::Higher,
        exact: true,
    },
    count("solver.blast_misses_per_kq", "1/kq"),
    count("solver.components_per_query", "ratio"),
    count("solver.unknowns", "count"),
    // symex: the symbolic stepper, driven depth-first with FF off.
    time("symex.step_ns", "ns"),
    time("symex.fork_step_us", "us"),
    count("symex.interns_per_kll", "1/kLL"),
    count("symex.forks_per_kll", "1/kLL"),
    LayerMetric {
        name: "symex.concrete_fraction",
        unit: "share",
        better: Better::Higher,
        exact: true,
    },
    count("symex.ff_segments", "count"),
    count("symex.ff_aborts", "count"),
    count("symex.ff_skipped", "count"),
    time("symex.state_clone_us", "us"),
    count("symex.pages_per_state", "count"),
    time("symex.snapshot_capture_us", "us"),
    time("symex.snapshot_restore_us", "us"),
    count("symex.snapshot_bytes", "bytes"),
    // core: the engine loop and the wire codec.
    rate("core.ll_per_s", "LL/s"),
    count("core.ll_instructions", "count"),
    count("core.tests", "count"),
    count("core.hl_paths", "count"),
    count("core.ll_paths", "count"),
    time("core.step_round_us_p50", "us"),
    time("core.step_round_us_p99", "us"),
    time("core.from_seeds_us_per_seed", "us"),
    time("core.canonical_cost_ratio", "ratio"),
    time("core.wire_encode_us_per_test", "us"),
    time("core.wire_decode_us_per_test", "us"),
    count("core.wire_bytes_per_test", "bytes"),
    count("core.wire_bytes_per_seed", "bytes"),
    // fleet: parallel and sliced exploration.
    rate("fleet.speedup_2w", "ratio"),
    count("fleet.sliced_ll_amplification", "ratio"),
    time("fleet.sliced_wall_ratio", "ratio"),
    LayerMetric {
        name: "fleet.seeds_exported",
        unit: "count",
        better: Better::Lower,
        exact: false, // depends on how two threads interleave
    },
    count("fleet.frontier_seeds_at_half", "count"),
    // serve: protocol, scheduler, corpus.
    time("serve.rpc_status_p50_us", "us"),
    time("serve.rpc_status_p99_us", "us"),
    time("serve.submit_us", "us"),
    time("serve.results_us_per_test", "us"),
    time("serve.overhead_ms_per_job", "ms"),
    rate("serve.json_parse_mb_per_s", "MB/s"),
    time("serve.bind_ms", "ms"),
    time("serve.scrub_ms", "ms"),
    time("serve.corpus_append_us_per_test", "us"),
    time("serve.corpus_load_us_per_test", "us"),
    count("serve.corpus_bytes_per_test", "bytes"),
    time("serve.checkpoint_save_us", "us"),
    time("serve.checkpoint_load_us", "us"),
    count("serve.checkpoint_bytes_per_seed", "bytes"),
    time("serve.snapshot_save_us", "us"),
    time("serve.snapshot_load_us", "us"),
    time("serve.compact_us", "us"),
    LayerMetric {
        name: "serve.sched_slices",
        unit: "count",
        better: Better::Lower,
        exact: false, // a shutdown can land mid-slice
    },
    LayerMetric {
        name: "serve.preemptions",
        unit: "count",
        better: Better::Lower,
        exact: false,
    },
    time("serve.sched_wait_ms", "ms"),
    LayerMetric {
        name: "serve.resume_snapshot_seeds",
        unit: "count",
        better: Better::Higher,
        exact: false,
    },
    count("serve.resume_full_seeds", "count"),
    LayerMetric {
        name: "serve.ll_amplification",
        unit: "ratio",
        better: Better::Lower,
        exact: false,
    },
    rate("serve.session_ll_per_s", "LL/s"),
    rate("serve.resume_ll_per_s", "LL/s"),
    rate("serve.resume_fresh_ratio", "ratio"),
    // trace: the program's own phase attribution (read, not extended).
    time("trace.permille.sym_step", "permille"),
    time("trace.permille.concrete_seg", "permille"),
    time("trace.permille.solver_sat", "permille"),
    time("trace.permille.blast", "permille"),
    time("trace.permille.snapshot_cap", "permille"),
    time("trace.permille.snapshot_restore", "permille"),
    time("trace.permille.corpus_io", "permille"),
    time("trace.permille.wire_io", "permille"),
    time("trace.permille.sched_wait", "permille"),
    time("trace.overhead_ratio", "ratio"),
];

/// What a traced run produced.
pub struct Traced {
    /// Per-layer metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Every span recorded.
    pub spans: Vec<SpanRec>,
    /// Operations attempted by the two full reps.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// First failures.
    pub failures: Vec<String>,
    /// Which guest the engine-level probes, and which the flow probes,
    /// were measured on.
    pub measured_on: String,
}

struct Values(BTreeMap<&'static str, f64>);

impl Values {
    fn set(&mut self, name: &'static str, v: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} not in PER_LAYER"
        );
        // A ratio over nothing (no fork, no query) is not a measurement.
        if v.is_finite() {
            self.0.insert(name, v);
        }
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn per(total: f64, n: usize) -> f64 {
    total / n.max(1) as f64
}

/// Runs `f` `n` times under a span and returns the median duration.
fn median_of<T>(name: &'static str, n: usize, mut f: impl FnMut() -> T) -> Duration {
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let _s = spans::span(name);
        let t = Instant::now();
        std::hint::black_box(f());
        samples.push(t.elapsed().as_secs_f64());
    }
    Duration::from_secs_f64(stats::median(&samples))
}

/// The guest the flow probes (`fleet.*`, the `serve.*` daemon sessions)
/// run on where the workload's own would cost several more reps, with a
/// label for the result file: the workload's guest at 1/20 scale. xlrd keeps 6 of its 7 bytes: at 5 the
/// whole guest fits in the smallest budget the resume flow may use (see
/// `daemon_probe`) and nothing would be left to resume. `parse_doc` runs
/// with zero repeats: slicing restarts a guest's deterministic prologue
/// with every slice until the first fork is reached, so a prologue longer
/// than one 250 k-LL slice never gets anywhere (README, observations).
fn flow_guest(w: Workload) -> Option<(JobSpec, &'static str)> {
    match w {
        Workload::ForkDense => Some((guests::simplejson(3), "simplejson 3 B")),
        Workload::SolverBound => Some((guests::xlrd(6), "xlrd 6 B")),
        Workload::ConcreteParse => Some((guests::parse_doc(0), "parse_doc x0")),
        // Its own timed leg is the resume flow; the fresh one runs here.
        Workload::ServeResume => Some((
            guests::configparser(3),
            "ConfigParser 3 B (the resume flow is the workload's own rep)",
        )),
        // Its own rep is the fresh flow; the largest job runs the other.
        Workload::ServeFresh => None,
    }
}

/// A guest together with its in-process exhaustive run (budgets lifted):
/// the baseline the probes' ratios, and the daemon's latency and
/// instruction counts, are taken against.
struct Probe {
    spec: JobSpec,
    prog: Program,
    /// The run's report, its tests moved to [`Probe::tests`].
    report: Report,
    tests: Vec<TestCase>,
    wall: Duration,
}

impl Probe {
    fn run(spec: JobSpec) -> Probe {
        let prog = spec.build().expect("guest builds");
        let t = Instant::now();
        let mut report = spans::timed("core.run", || {
            Chef::new(&prog, guests::engine_config()).run()
        });
        let wall = t.elapsed();
        let tests = std::mem::take(&mut report.tests);
        Probe {
            spec,
            prog,
            report,
            tests,
            wall,
        }
    }

    /// An engine workload's own rep already is that run.
    fn of_engine_rep(rep: Rep) -> Probe {
        let job = rep.jobs.into_iter().next().expect("one job");
        Probe {
            prog: job.spec.build().expect("job built before it ran"),
            spec: job.spec,
            report: rep.report.expect("engine reps carry a report"),
            tests: job.tests,
            wall: rep.wall,
        }
    }
}

/// Runs one probe stage and tells the human how long it took.
fn stage<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    eprintln!("chefbench: probe {name}: {:.2}s", t.elapsed().as_secs_f64());
    out
}

/// The traced run of `w`.
pub fn traced_run(w: Workload, p: Params) -> Traced {
    if !p.smoke {
        std::hint::black_box(run_rep(w, Params { smoke: true, ..p }, Drive::Run));
    }
    let untraced = stage("untraced rep", || run_rep(w, p, Drive::Run));

    // No engine, fleet or daemon thread is alive between reps: the only
    // safe moment to change the process-global trace level.
    chef_trace::set_level(chef_trace::TraceLevel::Spans);
    spans::set_enabled(true);
    let mut rounds: Vec<u64> = Vec::new();
    let traced = stage("traced rep", || {
        if w.is_serve() {
            run_rep(w, p, Drive::Run)
        } else {
            run_rep(w, p, Drive::Rounds(&mut rounds))
        }
    });
    chef_trace::set_level(chef_trace::TraceLevel::Off);

    let mut checker = Checker::new(w, p, DRIVER_REPLAY_STEPS);
    let set = stage("output checks", || {
        checker.check(&untraced);
        checker.check(&traced)
    });

    let mut v = Values(BTreeMap::new());
    v.set(
        "trace.overhead_ratio",
        traced.wall.as_secs_f64() / untraced.wall.as_secs_f64(),
    );
    let busy: u64 = traced.phase_us.values().sum();
    for ph in chef_trace::Phase::ALL {
        let name = PER_LAYER
            .iter()
            .map(|m| m.name)
            .find(|n| n.strip_prefix("trace.permille.") == Some(ph.name()))
            .expect("every phase has a permille metric");
        let us = traced.phase_us.get(ph.name()).copied().unwrap_or(0);
        v.set(name, us as f64 * 1000.0 / busy.max(1) as f64);
    }
    v.set("core.ll_instructions", untraced.ll_instructions() as f64);
    v.set("core.tests", set.tests as f64);
    v.set("core.hl_paths", set.hl_paths as f64);
    v.set(
        "core.ll_per_s",
        untraced.ll_instructions() as f64 / untraced.wall.as_secs_f64(),
    );
    v.set(
        "core.ll_paths",
        untraced
            .report
            .as_ref()
            .map_or(set.tests as f64, |r| r.ll_paths as f64),
    );

    // The guest the engine-level probes run on, with its in-process
    // exhaustive run. An engine workload's untraced rep is that run. A
    // serve workload has many guests; the probes take one of its own: the
    // largest generated job (big enough that half of it is still a budget
    // the daemon can run without cutting paths off), or the first session.
    let (own, own_label) = match w {
        Workload::ServeFresh => {
            let largest = traced
                .jobs
                .iter()
                .max_by_key(|j| j.status.as_ref().map_or(0, |s| s.ll_instructions))
                .expect("serve_fresh ran jobs");
            (Probe::run(largest.spec.clone()), "its largest job")
        }
        Workload::ServeResume => {
            let mut first = traced.jobs[0].spec.clone();
            first.budget = guests::UNBOUNDED_LL;
            (Probe::run(first), "its first session's guest")
        }
        _ => (Probe::of_engine_rep(untraced), "the workload's guest"),
    };
    // The guest the fleet and daemon flows run on.
    let (scaled, flow_label) = match flow_guest(w) {
        Some((spec, label)) => (
            Some(stage("flow guest in-process", || Probe::run(spec))),
            label,
        ),
        None => (
            None,
            "its largest job (the fresh flow is the workload's own rep)",
        ),
    };
    let flows = scaled.as_ref().unwrap_or(&own);
    let measured_on =
        format!("engine-level probes on {own_label}; fleet.* and serve.* flows on {flow_label}");
    report_ratios(&mut v, &own.report);

    if w.is_serve() {
        let _s = spans::span("core.step_rounds");
        let chef = Chef::new(&own.prog, guests::engine_config());
        std::hint::black_box(step_rounds(chef, &mut rounds));
    }
    let round_us: Vec<f64> = rounds.iter().map(|&ns| ns as f64 / 1e3).collect();
    v.set("core.step_round_us_p50", stats::percentile(&round_us, 50.0));
    v.set("core.step_round_us_p99", stats::percentile(&round_us, 99.0));

    stage("canonical inputs off", || {
        let mut off = guests::engine_config();
        off.canonical_inputs = false;
        let t = Instant::now();
        std::hint::black_box(spans::timed("core.run_noncanonical", || {
            Chef::new(&own.prog, off).run()
        }));
        // Base: the same guest with `canonical_inputs` off.
        v.set(
            "core.canonical_cost_ratio",
            own.wall.as_secs_f64() / t.elapsed().as_secs_f64(),
        );
    });

    // The workload's own delivered tests feed the codec, corpus and
    // replay probes (capped so the probes stay a fraction of a rep).
    let tests: Vec<&TestCase> = traced
        .jobs
        .iter()
        .flat_map(|j| &j.tests)
        .take(1000)
        .collect();
    let first = &traced.jobs[0];
    let first_prog = first.spec.build().expect("job built before it ran");

    stage("minipy+lir", || minipy_and_lir(&mut v, first, &first_prog));
    let (log, exec) = stage("symex drive", || symex_drive(&mut v, &own.prog));
    stage("solver replay", || solver_replay(&mut v, &exec, &log));
    // The fork-point snapshot of the full drive (a half-way run of a guest
    // with a long prologue may not have reached its fork point yet).
    let snapshot: Option<Arc<Snapshot>> = exec.fork_snapshot.clone();
    drop(exec);
    let frontier = stage("half frontier", || {
        half_frontier(&mut v, &own.prog, &own.report)
    });
    stage("wire", || wire_probe(&mut v, &tests, &frontier));
    stage("corpus", || {
        corpus_probe(&mut v, &tests, &frontier, snapshot.as_deref())
    });
    stage("fleet", || fleet_probe(&mut v, flows));
    let paged = stage("daemon", || daemon_probe(&mut v, w, flows, &traced));

    spans::set_enabled(false);
    let spans = spans::drain();
    span_means(&mut v, &spans, paged);
    Traced {
        values: v.0,
        spans,
        attempted: checker.attempted,
        failed: checker.failed,
        failures: checker.failures,
        measured_on,
    }
}

/// Ratios derived from a run's `ExecStats` / `SolverStats`.
fn report_ratios(v: &mut Values, r: &Report) {
    let kll = r.ll_instructions as f64 / 1e3;
    let s = &r.solver_stats;
    let kq = s.queries as f64 / 1e3;
    v.set("solver.sat_time_share", r.sat_share());
    v.set("solver.queries_per_kll", s.queries as f64 / kll);
    v.set("solver.sat_calls_per_kq", s.sat_calls as f64 / kq);
    v.set("solver.cache_hits_per_kq", s.cache_hits as f64 / kq);
    v.set("solver.model_reuse_per_kq", s.model_reuse_hits as f64 / kq);
    v.set("solver.const_hits_per_kq", s.const_hits as f64 / kq);
    v.set(
        "solver.blast_misses_per_kq",
        s.blast_cache_misses as f64 / kq,
    );
    v.set("solver.components_per_query", s.components_per_query());
    v.set("solver.unknowns", s.unknowns as f64);
    let e = &r.exec_stats;
    v.set(
        "symex.concrete_fraction",
        e.concrete_ll_executed as f64 / r.ll_instructions.max(1) as f64,
    );
    v.set("symex.ff_segments", e.fast_forwards as f64);
    v.set("symex.ff_aborts", e.ff_aborts as f64);
    v.set("symex.ff_skipped", e.ff_skipped as f64);
    v.set("symex.forks_per_kll", e.forks as f64 / kll);
}

/// Front end, LIR size, and the concrete VM, on the rep's first job.
fn minipy_and_lir(v: &mut Values, job: &crate::workloads::JobOutcome, prog: &Program) {
    let spec = &job.spec;
    v.set(
        "minipy.compile_us",
        us(median_of("minipy.compile", 5, || spec.compile())),
    );
    let module = spec.compile().expect("guest compiles");
    v.set(
        "minipy.build_program_us",
        us(median_of("minipy.build_program", 5, || {
            chef_minipy::build_program(
                &module,
                &chef_minipy::InterpreterOptions::all(),
                &spec.symbolic_test(),
            )
        })),
    );
    let insts: usize = prog
        .funcs
        .iter()
        .flat_map(|f| &f.blocks)
        .map(|b| b.insts.len() + 1)
        .sum();
    v.set("minipy.lir_insts", insts as f64);

    // The golden input: the canonically smallest delivered test.
    let Some(golden) = job.tests.iter().min_by_key(|t| t.canonical_key()) else {
        return;
    };
    let fuel = guests::UNBOUNDED_LL;
    let out = run_concrete(prog, &golden.inputs, fuel);
    v.set(
        "minipy.ll_per_hl_op",
        out.steps as f64 / out.hl_trace.len().max(1) as f64,
    );
    // Repeat until a quarter second has been measured.
    let t = Instant::now();
    let mut steps = 0u64;
    {
        let _s = spans::span("lir.run_concrete");
        while t.elapsed() < Duration::from_millis(250) {
            steps += std::hint::black_box(run_concrete(prog, &golden.inputs, fuel)).steps;
        }
    }
    v.set(
        "lir.run_concrete_mll_per_s",
        steps as f64 / 1e6 / t.elapsed().as_secs_f64(),
    );
    // Replay delivered tests until 500 of them or 30 M steps are in.
    let t = Instant::now();
    let (mut replayed, mut replay_steps) = (0usize, 0u64);
    {
        let _s = spans::span("lir.replay");
        for test in job.tests.iter().take(500) {
            replay_steps += std::hint::black_box(chef_core::replay(prog, &test.inputs, fuel)).steps;
            replayed += 1;
            if replay_steps >= 30_000_000 {
                break;
            }
        }
    }
    v.set("lir.replay_us_per_test", per(us(t.elapsed()), replayed));
}

/// Drives `Executor::step` depth-first over the whole guest with
/// fast-forward off, timing every step with one clock read and bucketing
/// by event; captures the solver's query log on the way. Returns the log
/// and the executor (whose pool the log's expressions live in).
fn symex_drive<'p>(
    v: &mut Values,
    prog: &'p Program,
) -> (Vec<Vec<chef_solver::ExprId>>, Executor<'p>) {
    let _s = spans::span("symex.dfs_drive");
    let mut exec = Executor::new(prog, ExecConfig::default());
    exec.set_ff_mode(FfMode::Off);
    exec.solver.query_log = Some(Vec::new());
    let pool_before = exec.pool.len();
    let mut stack: Vec<State> = vec![exec.initial_state()];
    let (mut step_ns, mut steps) = (0u64, 0u64);
    let (mut fork_ns, mut forks) = (0u64, 0u64);
    let (mut pages, mut ended) = (0u64, 0u64);
    let mut clone_from: Option<State> = None;
    while let Some(mut st) = stack.pop() {
        let mut prev = Instant::now();
        loop {
            let ev = exec.step(&mut st);
            let now = Instant::now();
            let dt = (now - prev).as_nanos() as u64;
            prev = now;
            match ev {
                StepEvent::Forked { alternates } => {
                    fork_ns += dt;
                    forks += 1;
                    if forks == 64 || clone_from.is_none() {
                        clone_from = Some(st.clone());
                    }
                    stack.extend(alternates);
                    prev = Instant::now();
                }
                StepEvent::Terminated(_) => {
                    pages += st.mem.page_count() as u64;
                    ended += 1;
                    // The engine concretizes every finished path; do the
                    // same so the query log has the engine's shape.
                    let _c = spans::span("symex.concretize");
                    std::hint::black_box(
                        st.concretize_inputs_canonical(&mut exec.pool, &mut exec.solver),
                    );
                    break;
                }
                _ => {
                    step_ns += dt;
                    steps += 1;
                }
            }
        }
    }
    let kll = exec.stats.ll_instructions as f64 / 1e3;
    v.set("symex.step_ns", per(step_ns as f64, steps as usize));
    v.set(
        "symex.fork_step_us",
        per(fork_ns as f64 / 1e3, forks as usize),
    );
    v.set(
        "symex.interns_per_kll",
        (exec.pool.len() - pool_before) as f64 / kll,
    );
    v.set("symex.pages_per_state", per(pages as f64, ended as usize));

    if let Some(st) = &clone_from {
        let t = Instant::now();
        let _c = spans::span("symex.state_clone");
        for _ in 0..1000 {
            std::hint::black_box(st.clone());
        }
        v.set("symex.state_clone_us", us(t.elapsed()) / 1000.0);
    }
    if let Some(st) = &clone_from {
        let capture = median_of("symex.snapshot_capture", 9, || {
            Snapshot::capture(st, &exec.pool)
        });
        v.set("symex.snapshot_capture_us", us(capture));
    }
    if let Some(snap) = exec.fork_snapshot.clone() {
        v.set("symex.snapshot_bytes", snap.to_frame().len() as f64);
        let restore = median_of("symex.snapshot_restore", 9, || {
            let mut pool = chef_solver::ExprPool::new();
            snap.restore(&mut pool)
        });
        v.set("symex.snapshot_restore_us", us(restore));
    }
    let log = exec.solver.query_log.take().unwrap_or_default();
    (log, exec)
}

/// Replays the captured query log — its first 20,000 queries: twenty times
/// what p99 needs, a second of `fork_dense`'s 168 k — through a fresh
/// solver, timing every `Solver::check`.
fn solver_replay(v: &mut Values, exec: &Executor, log: &[Vec<chef_solver::ExprId>]) {
    let _s = spans::span("solver.replay");
    let log = &log[..log.len().min(20_000)];
    let mut solver = Solver::new();
    let mut each: Vec<f64> = Vec::with_capacity(log.len());
    let t = Instant::now();
    for q in log {
        let tq = Instant::now();
        std::hint::black_box(solver.check(&exec.pool, q));
        each.push(us(tq.elapsed()));
    }
    if each.is_empty() {
        return;
    }
    v.set(
        "solver.replay_qps",
        each.len() as f64 / t.elapsed().as_secs_f64(),
    );
    v.set("solver.check_p50_us", stats::percentile(&each, 50.0));
    // p99 only when ten samples lie beyond it; otherwise the highest
    // percentile the log supports.
    v.set(
        "solver.check_p99_us",
        stats::percentile(&each, stats::supported_tail(each.len())),
    );
}

/// Runs the guest to half its instructions, takes the frontier, and
/// times `Chef::from_seeds` on it.
fn half_frontier(v: &mut Values, prog: &Program, full: &Report) -> Vec<WorkSeed> {
    let mut half = guests::engine_config();
    half.max_ll_instructions = (full.ll_instructions / 2).max(1);
    let mut chef = Chef::new(prog, half);
    {
        let _s = spans::span("core.run_to_half");
        while chef.step_round() == EngineStatus::Running {}
    }
    let frontier = chef.frontier();
    v.set("fleet.frontier_seeds_at_half", frontier.len() as f64);
    let config: ChefConfig = guests::engine_config();
    let d = median_of("core.from_seeds", 9, || {
        Chef::from_seeds(prog, config.clone(), &frontier)
    });
    v.set("core.from_seeds_us_per_seed", per(us(d), frontier.len()));
    frontier
}

/// `Wire::to_frame` / `from_frame` over the delivered tests and the
/// half-way frontier.
fn wire_probe(v: &mut Values, tests: &[&TestCase], frontier: &[WorkSeed]) {
    let t = Instant::now();
    let frames: Vec<Vec<u8>> = {
        let _s = spans::span("core.wire_encode");
        tests.iter().map(|t| t.to_frame()).collect()
    };
    v.set(
        "core.wire_encode_us_per_test",
        per(us(t.elapsed()), tests.len()),
    );
    let t = Instant::now();
    {
        let _s = spans::span("core.wire_decode");
        for f in &frames {
            std::hint::black_box(TestCase::from_frame(f).expect("own frame decodes"));
        }
    }
    v.set(
        "core.wire_decode_us_per_test",
        per(us(t.elapsed()), tests.len()),
    );
    let bytes: usize = frames.iter().map(Vec::len).sum();
    v.set("core.wire_bytes_per_test", per(bytes as f64, tests.len()));
    let seed_bytes: usize = frontier.iter().map(|s| s.to_frame().len()).sum();
    v.set(
        "core.wire_bytes_per_seed",
        per(seed_bytes as f64, frontier.len()),
    );
}

/// `run_fleet` with two workers against one, and exhaustion through
/// `run_fleet_slice` in the daemon's 250 k-LL slices against one
/// uninterrupted run.
fn fleet_probe(v: &mut Values, probe: &Probe) {
    let prog = &probe.prog;
    let config = |jobs| FleetConfig {
        jobs,
        base: guests::engine_config(),
        ..FleetConfig::default()
    };
    let t = Instant::now();
    std::hint::black_box(spans::timed("fleet.run_1w", || run_fleet(prog, config(1))));
    let one = t.elapsed();
    let t = Instant::now();
    let two = spans::timed("fleet.run_2w", || run_fleet(prog, config(2)));
    // Base: one worker.
    v.set(
        "fleet.speedup_2w",
        one.as_secs_f64() / t.elapsed().as_secs_f64(),
    );
    v.set("fleet.seeds_exported", two.seeds_shipped as f64);

    let slice_ll = chef_serve::ServeConfig::default().checkpoint_interval_ll;
    let t = Instant::now();
    let mut seeds = vec![WorkSeed::root()];
    let mut ll = 0u64;
    {
        let _s = spans::span("fleet.run_sliced");
        // The cap only guards against a guest that slicing cannot finish.
        while !seeds.is_empty() && ll < 50 * probe.report.ll_instructions {
            let out = run_fleet_slice(prog, config(1), seeds, None, slice_ll);
            ll += out.report.exec_stats.ll_instructions;
            seeds = out.frontier;
        }
    }
    // Base of both: one uninterrupted in-process run of the same guest.
    v.set(
        "fleet.sliced_ll_amplification",
        ll as f64 / probe.report.ll_instructions.max(1) as f64,
    );
    v.set(
        "fleet.sliced_wall_ratio",
        t.elapsed().as_secs_f64() / probe.wall.as_secs_f64(),
    );
}

fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// `Corpus::*` on a scratch directory, with the workload's own tests, the
/// half-way frontier and the fork-point snapshot.
fn corpus_probe(
    v: &mut Values,
    tests: &[&TestCase],
    frontier: &[WorkSeed],
    snapshot: Option<&Snapshot>,
) {
    let dir = fresh_data_dir();
    let corpus = Corpus::open(&dir).expect("open scratch corpus");
    let owned: Vec<TestCase> = tests.iter().map(|t| (*t).clone()).collect();
    let (target, session) = ("tprobe", "s1");

    let t = Instant::now();
    spans::timed("serve.corpus_append", || {
        corpus.append_tests(target, &owned)
    })
    .expect("append");
    v.set(
        "serve.corpus_append_us_per_test",
        per(us(t.elapsed()), owned.len()),
    );
    v.set(
        "serve.corpus_bytes_per_test",
        per(dir_bytes(&dir.join("corpus")) as f64, owned.len()),
    );
    let d = median_of("serve.corpus_load", 5, || corpus.load_tests(target));
    v.set("serve.corpus_load_us_per_test", per(us(d), owned.len()));
    let d = median_of("serve.compact", 3, || corpus.compact_tests(target));
    v.set("serve.compact_us", us(d));

    let d = median_of("serve.checkpoint_save", 5, || {
        corpus.save_checkpoint(session, frontier)
    });
    v.set("serve.checkpoint_save_us", us(d));
    v.set(
        "serve.checkpoint_bytes_per_seed",
        per(dir_bytes(&dir.join("sessions")) as f64, frontier.len()),
    );
    let d = median_of("serve.checkpoint_load", 5, || {
        corpus.load_checkpoint(session)
    });
    v.set("serve.checkpoint_load_us", us(d));

    if let Some(snap) = snapshot {
        // `save_snapshot` skips the write when the stored fingerprint
        // matches, so each sample saves under a fresh target.
        let mut n = 0;
        let d = median_of("serve.snapshot_save", 3, || {
            n += 1;
            corpus.save_snapshot(&format!("tsnap{n}"), snap)
        });
        v.set("serve.snapshot_save_us", us(d));
        let d = median_of("serve.snapshot_load", 3, || corpus.load_snapshot("tsnap1"));
        v.set("serve.snapshot_load_us", us(d));
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// Status RPCs against an idle daemon, the protocol's JSON parser, and
/// the two daemon flows (fresh, restart + resume). A serve workload's own
/// traced rep stands in for the flow of its shape. Returns how many tests
/// the flows' `results` calls paged.
fn daemon_probe(v: &mut Values, w: Workload, probe: &Probe, traced: &Rep) -> usize {
    let (probe_report, probe_tests, probe_wall) = (&probe.report, &probe.tests, probe.wall);
    let probe = &probe.spec;
    // One finished session on an otherwise idle daemon, polled 1000 times.
    let daemon = Daemon::start(fresh_data_dir());
    let session = daemon
        .client
        .submit(probe)
        .expect("idle daemon admits the probe");
    while !daemon.client.status(&session).expect("status").is_settled() {
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut rtt: Vec<f64> = Vec::with_capacity(1000);
    {
        let _s = spans::span("serve.rpc_status_x1000");
        for _ in 0..1000 {
            let t = Instant::now();
            std::hint::black_box(daemon.client.status(&session).expect("status"));
            rtt.push(us(t.elapsed()));
        }
    }
    v.set("serve.rpc_status_p50_us", stats::percentile(&rtt, 50.0));
    v.set("serve.rpc_status_p99_us", stats::percentile(&rtt, 99.0));

    // A `results` reply for the probe's tests, as the client parses it.
    let reply = {
        let frames = probe_tests
            .iter()
            .map(|t| chef_serve::json::Value::Str(chef_serve::proto::to_hex(&t.to_frame())))
            .collect();
        chef_serve::json::Value::obj(vec![
            ("ok", chef_serve::json::Value::Bool(true)),
            ("tests", chef_serve::json::Value::Arr(frames)),
        ])
        .to_json()
    };
    let t = Instant::now();
    let mut parsed = 0usize;
    {
        let _s = spans::span("serve.json_parse");
        while t.elapsed() < Duration::from_millis(100) {
            std::hint::black_box(chef_serve::json::parse(&reply).expect("own reply parses"));
            parsed += reply.len();
        }
    }
    v.set(
        "serve.json_parse_mb_per_s",
        parsed as f64 / 1e6 / t.elapsed().as_secs_f64(),
    );
    let dir = daemon.stop();
    let _ = std::fs::remove_dir_all(dir);

    // The fresh flow and its in-process baselines.
    let fresh_probe;
    let fresh = if w == Workload::ServeFresh {
        traced
    } else {
        fresh_probe = serve_fresh_with(vec![probe.clone()], Instant::now());
        &fresh_probe
    };
    let mut overhead_ms: Vec<f64> = Vec::new();
    for job in fresh.jobs.iter().take(20) {
        let wall = if w == Workload::ServeFresh {
            Probe::run(job.spec.clone()).wall
        } else {
            probe_wall
        };
        overhead_ms.push((job.latency.as_secs_f64() - wall.as_secs_f64()) * 1e3);
    }
    v.set("serve.overhead_ms_per_job", stats::median(&overhead_ms));
    let fresh_ll: u64 = fresh.ll_instructions();
    let session_ll_per_s = fresh_ll as f64 / fresh.wall.as_secs_f64();

    // The resume flow: the probe with half its instructions as budget.
    let resume_probe;
    let resume = if w == Workload::ServeResume {
        traced
    } else {
        // Half the probe's instructions, but never so little that the
        // daemon's per-path fuel (budget / 8) would cut its longest path
        // off as a hang.
        let longest = probe_tests.iter().map(|t| t.ll_steps).max().unwrap_or(0);
        let mut half = probe.clone();
        half.budget = (probe_report.ll_instructions / 2).max(8 * (longest + 1_000));
        resume_probe = serve_resume_with(vec![half]);
        &resume_probe
    };
    let first_ll: u64 = resume
        .first_leg
        .iter()
        .flatten()
        .map(|s| s.ll_instructions)
        .sum();
    let final_ll = resume.ll_instructions();
    let inproc_ll: u64 = if w == Workload::ServeResume {
        resume
            .jobs
            .iter()
            .map(|j| Probe::run(j.spec.clone()).report.ll_instructions)
            .sum()
    } else {
        probe_report.ll_instructions
    };
    // Base: the same guests explored in-process, uninterrupted.
    v.set(
        "serve.ll_amplification",
        final_ll as f64 / inproc_ll.max(1) as f64,
    );
    let session_ll_per_s = if w == Workload::ServeResume {
        // Its own first leg is the fresh-session measurement.
        first_ll as f64 / resume.setup.as_secs_f64()
    } else {
        session_ll_per_s
    };
    let resume_ll_per_s = final_ll.saturating_sub(first_ll) as f64 / resume.wall.as_secs_f64();
    v.set("serve.session_ll_per_s", session_ll_per_s);
    v.set("serve.resume_ll_per_s", resume_ll_per_s);
    // Base: fresh-session LL/s through the same daemon.
    v.set(
        "serve.resume_fresh_ratio",
        resume_ll_per_s / session_ll_per_s,
    );
    v.set(
        "serve.bind_ms",
        resume.rebind.map_or(0.0, |d| d.as_secs_f64() * 1e3),
    );
    v.set("serve.scrub_ms", resume.scrub_ms.unwrap_or(0) as f64);

    // A serve workload's own rep is one of the two flows, so this visits
    // every daemon session of the traced run exactly once.
    let statuses = || {
        [fresh, resume]
            .into_iter()
            .flat_map(|r| r.jobs.iter().filter_map(|j| j.status.as_ref()))
    };
    v.set(
        "serve.sched_slices",
        statuses().map(|s| s.sched_slices).sum::<u64>() as f64,
    );
    v.set(
        "serve.preemptions",
        statuses().map(|s| s.preemptions).sum::<u64>() as f64,
    );
    v.set(
        "serve.sched_wait_ms",
        statuses().map(|s| s.wait_ms).sum::<u64>() as f64,
    );
    let resumed = || resume.jobs.iter().filter_map(|j| j.status.as_ref());
    v.set(
        "serve.resume_snapshot_seeds",
        resumed().map(|s| s.resume_snapshot_seeds).sum::<u64>() as f64,
    );
    v.set(
        "serve.resume_full_seeds",
        resumed().map(|s| s.resume_full_seeds).sum::<u64>() as f64,
    );
    fresh.test_count() + resume.test_count()
}

/// Means over the client-call spans of the two daemon flows: `submit`
/// per call, `results` per test paged (`paged` tests in all).
fn span_means(v: &mut Values, spans: &[SpanRec], paged: usize) {
    let by_name = spans::aggregate(spans);
    if let Some(t) = by_name.get("serve.submit") {
        v.set(
            "serve.submit_us",
            per(t.total_ns as f64 / 1e3, t.count as usize),
        );
    }
    if let Some(t) = by_name.get("serve.results") {
        v.set(
            "serve.results_us_per_test",
            per(t.total_ns as f64 / 1e3, paged),
        );
    }
}
