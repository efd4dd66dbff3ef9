//! The five workloads. Each is one function from parameters to a [`Rep`]:
//! an untimed set-up leg, a timed leg, and the outputs the timed leg
//! delivered. Every workload runs to exhaustion — its work is defined by
//! the guest and its symbolic-input size, never by an instruction budget —
//! under the configuration users get (`ChefConfig::default()` /
//! `ServeConfig::default()` with only the budgets lifted).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use chef_core::{Chef, EngineStatus, Report, TestCase};
use chef_serve::{Client, JobSpec, ServeConfig, Server, SessionStatus};

use crate::check::bench_dir;
use crate::guests;
use crate::spans;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// `Chef::run` on simplejson `loads`, 4 symbolic bytes.
    ForkDense,
    /// `Chef::run` on xlrd `open_workbook`, 7 symbolic bytes.
    SolverBound,
    /// `Chef::run` on simplejson + the `parse_doc` driver.
    ConcreteParse,
    /// 200 distinct generated jobs through an in-process daemon.
    ServeFresh,
    /// Daemon restart + resume of three budget-exhausted sessions.
    ServeResume,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::ForkDense,
        Workload::SolverBound,
        Workload::ConcreteParse,
        Workload::ServeFresh,
        Workload::ServeResume,
    ];

    /// The workload's name in `BENCHMARK.json` and on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ForkDense => "fork_dense",
            Workload::SolverBound => "solver_bound",
            Workload::ConcreteParse => "concrete_parse",
            Workload::ServeFresh => "serve_fresh",
            Workload::ServeResume => "serve_resume",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload's inputs are generated from `--seed`. Only
    /// `serve_fresh` generates inputs; the other four explore fixed
    /// vendored guests.
    pub fn seed_dependent(self) -> bool {
        self == Workload::ServeFresh
    }

    /// Whether one operation is a daemon job/session (else: one test).
    pub fn is_serve(self) -> bool {
        matches!(self, Workload::ServeFresh | Workload::ServeResume)
    }
}

/// Inputs of a rep.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// `--seed`: what generated inputs are made from (the `serve_fresh`
    /// job list). The program never sees it, only the inputs. The engine's
    /// own RNG seed (`ChefConfig.seed` / `JobSpec.seed`) is configuration
    /// and stays at the users' default.
    pub seed: u64,
    /// 1/20-scale variant: warm-up reps and the self-tests.
    pub smoke: bool,
}

/// How an engine rep drives the engine.
pub enum Drive<'a> {
    /// `Chef::run` — what users call.
    Run,
    /// The same loop spelled out (`Chef::step_round` until it stops),
    /// with each round timed into the vector (nanoseconds). The traced
    /// run uses this to get the round-latency distribution.
    Rounds(&'a mut Vec<u64>),
}

/// One job or session of a rep. Engine workloads have exactly one.
pub struct JobOutcome {
    /// What ran.
    pub spec: JobSpec,
    /// Call start → results in hand.
    pub latency: Duration,
    /// Tests delivered (`Report.tests`, or `Client::results` from disk).
    pub tests: Vec<TestCase>,
    /// Whether the job reached its expected end state (`done`) with no
    /// client error on the way.
    pub reached: bool,
    /// Final daemon status (serve workloads).
    pub status: Option<SessionStatus>,
}

/// What one rep did and delivered.
pub struct Rep {
    /// Untimed set-up leg.
    pub setup: Duration,
    /// Timed leg.
    pub wall: Duration,
    /// The rep's jobs, in a fixed (generation) order.
    pub jobs: Vec<JobOutcome>,
    /// The engine report (engine workloads).
    pub report: Option<Report>,
    /// `serve_resume` shape only: each session's status at the end of the
    /// set-up leg (before the restart), and how long the timed leg's
    /// `Server::bind` (scrub + recovery) took.
    pub first_leg: Vec<Option<SessionStatus>>,
    /// See [`Rep::first_leg`].
    pub rebind: Option<Duration>,
    /// Milliseconds the restarted daemon's start-up scrub reported.
    pub scrub_ms: Option<u64>,
    /// Microseconds per `chef_trace` phase, when the program's own trace
    /// level is `Spans`: from `Report.trace`, or summed over the daemon's
    /// `trace` reply. Read, not extended.
    pub phase_us: BTreeMap<String, u64>,
}

impl Rep {
    /// Tests delivered by all jobs.
    pub fn test_count(&self) -> usize {
        self.jobs.iter().map(|j| j.tests.len()).sum()
    }

    /// Low-level instructions executed to produce them.
    pub fn ll_instructions(&self) -> u64 {
        match &self.report {
            Some(r) => r.ll_instructions,
            None => self
                .jobs
                .iter()
                .filter_map(|j| j.status.as_ref())
                .map(|s| s.ll_instructions)
                .sum(),
        }
    }
}

/// Runs one rep of `w`.
pub fn run_rep(w: Workload, p: Params, drive: Drive) -> Rep {
    let _rep = spans::span("chefbench.rep");
    match w {
        Workload::ForkDense => {
            engine_rep(|| guests::simplejson(if p.smoke { 3 } else { 4 }), drive)
        }
        Workload::SolverBound => engine_rep(|| guests::xlrd(if p.smoke { 5 } else { 7 }), drive),
        Workload::ConcreteParse => {
            engine_rep(|| guests::parse_doc(if p.smoke { 5 } else { 100 }), drive)
        }
        Workload::ServeFresh => {
            let t0 = Instant::now();
            let n = if p.smoke { 10 } else { 200 };
            let jobs = spans::timed("chefbench.generate_jobs", || guests::fresh_jobs(p.seed, n));
            serve_fresh_with(jobs, t0)
        }
        Workload::ServeResume => serve_resume_with(resume_specs(p)),
    }
}

/// `Chef::run` spelled out: `step_round` until the engine stops, each
/// round's duration appended to `round_ns` (nanoseconds).
pub fn step_rounds(mut chef: Chef, round_ns: &mut Vec<u64>) -> Report {
    loop {
        let t = Instant::now();
        let status = chef.step_round();
        round_ns.push(t.elapsed().as_nanos() as u64);
        if status != EngineStatus::Running {
            return chef.into_report();
        }
    }
}

fn engine_rep(guest: impl FnOnce() -> JobSpec, drive: Drive) -> Rep {
    let t0 = Instant::now();
    let spec = guest();
    let module =
        spans::timed("minipy.compile", || spec.compile()).expect("vendored guest compiles");
    let prog = spans::timed("minipy.build_program", || {
        chef_minipy::build_program(
            &module,
            &chef_minipy::InterpreterOptions::all(),
            &spec.symbolic_test(),
        )
    })
    .expect("vendored guest builds");
    let config = guests::engine_config();
    let setup = t0.elapsed();

    let t1 = Instant::now();
    let report = match drive {
        Drive::Run => spans::timed("core.run", || Chef::new(&prog, config).run()),
        Drive::Rounds(round_ns) => {
            let _s = spans::span("core.run");
            step_rounds(Chef::new(&prog, config), round_ns)
        }
    };
    let wall = t1.elapsed();
    let mut report = report;
    let tests = std::mem::take(&mut report.tests);
    let phase_us = chef_trace::Phase::ALL
        .into_iter()
        .map(|ph| {
            (
                ph.name().to_string(),
                report.trace.phase_ns[ph as usize] / 1_000,
            )
        })
        .filter(|(_, us)| *us > 0)
        .collect();
    Rep {
        setup,
        wall,
        jobs: vec![JobOutcome {
            spec,
            latency: wall,
            tests,
            reached: true,
            status: None,
        }],
        report: Some(report),
        first_leg: Vec::new(),
        rebind: None,
        scrub_ms: None,
        phase_us,
    }
}

/// Poll interval for session state. `Client::wait_settled` polls at 20 ms,
/// which would quantize every latency; 1 ms keeps the quantum below the
/// noise of the smallest job.
const POLL: Duration = Duration::from_millis(1);

/// Upper bound on any single wait for a session: generous against the
/// slowest rep (< 30 s), small enough to fail inside the driver's 180 s.
const SESSION_DEADLINE: Duration = Duration::from_secs(90);

/// Closed-loop client threads: one per core, at most two.
pub fn client_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// An in-process daemon: `Server::bind(..).run()` on its own thread, with
/// the users' `ServeConfig::default()` apart from the loopback port and
/// the data directory.
pub struct Daemon {
    /// A client for the daemon (one connection per call, as `chef-cli`).
    pub client: Client,
    handle: JoinHandle<std::io::Result<()>>,
    dir: PathBuf,
}

static NEXT_DIR: AtomicUsize = AtomicUsize::new(0);

/// A fresh, empty data directory inside the benchmark's own `out/` (the
/// benchmark writes nowhere else).
pub fn fresh_data_dir() -> PathBuf {
    let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
    let dir = bench_dir()
        .join("out")
        .join("data")
        .join(format!("{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create data dir under chefbench/out");
    dir
}

impl Daemon {
    /// Binds on `dir` (scrub + recovery happen here) and starts serving.
    pub fn start(dir: PathBuf) -> Daemon {
        let server = spans::timed("serve.bind", || {
            Server::bind(ServeConfig {
                addr: "127.0.0.1:0".into(),
                data_dir: dir.clone(),
                ..ServeConfig::default()
            })
        })
        .expect("bind in-process daemon on loopback");
        let addr = server.local_addr().expect("bound address");
        let handle = std::thread::Builder::new()
            .name("chefbench-daemon".into())
            .spawn(move || server.run())
            .expect("spawn daemon thread");
        Daemon {
            client: Client::new(addr.to_string()),
            handle,
            dir,
        }
    }

    /// Shuts the daemon down, waits for its threads, and hands back the
    /// data directory.
    pub fn stop(self) -> PathBuf {
        spans::timed("serve.shutdown", || {
            self.client.shutdown().expect("daemon accepts shutdown");
            self.handle
                .join()
                .expect("daemon thread does not panic")
                .expect("daemon exits cleanly");
        });
        self.dir
    }
}

/// Polls `session` until it leaves `running`. `None` on a client error or
/// a blown deadline — the caller counts the job as failed.
fn wait_settled(client: &Client, session: &str, parent: Option<u32>) -> Option<SessionStatus> {
    let deadline = Instant::now() + SESSION_DEADLINE;
    loop {
        let st = {
            let _s = spans::span_under("serve.status", parent);
            client.status(session).ok()?
        };
        if st.is_settled() {
            return Some(st);
        }
        if Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(POLL);
    }
}

/// One closed-loop job: `submit` → poll to `done` → `results`.
fn run_job(client: &Client, spec: &JobSpec, parent: Option<u32>) -> JobOutcome {
    let job = spans::span_under("chefbench.job", parent);
    let t = Instant::now();
    let mut out = JobOutcome {
        spec: spec.clone(),
        latency: Duration::ZERO,
        tests: Vec::new(),
        reached: false,
        status: None,
    };
    let submitted = {
        let _s = spans::span_under("serve.submit", job.id());
        client.submit(spec)
    };
    if let Ok(session) = submitted {
        out.status = wait_settled(client, &session, job.id());
        if out.status.as_ref().is_some_and(|s| s.state == "done") {
            let _s = spans::span_under("serve.results", job.id());
            if let Ok(tests) = client.results(&session) {
                out.tests = tests;
                out.reached = true;
            }
        }
    }
    out.latency = t.elapsed();
    out
}

/// Sums the daemon's own phase attribution (`trace` reply: every session
/// plus the daemon-wide wire time) into microseconds per phase. Empty
/// unless the program's trace level is `Spans`.
fn daemon_phase_us(client: &Client) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    if chef_trace::level() != chef_trace::TraceLevel::Spans {
        return out;
    }
    let Ok(reply) = client.trace(0) else {
        return out;
    };
    let mut add = |trace: Option<&chef_serve::json::Value>| {
        let phases = trace.and_then(|t| t.get("phases")).and_then(|p| p.as_arr());
        for ph in phases.unwrap_or(&[]) {
            if let (Some(name), Some(us)) = (
                ph.get("phase").and_then(|n| n.as_str()),
                ph.get("us").and_then(|u| u.as_u64()),
            ) {
                *out.entry(name.to_string()).or_insert(0) += us;
            }
        }
    };
    for sess in reply
        .get("sessions")
        .and_then(|s| s.as_arr())
        .unwrap_or(&[])
    {
        add(sess.get("trace"));
    }
    add(reply.get("daemon"));
    out
}

/// The `serve_fresh` shape on an arbitrary job list: a fresh daemon, then
/// closed-loop clients pulling jobs off a shared cursor. `t0` is when the
/// caller started preparing the jobs, so generation counts as set-up.
pub fn serve_fresh_with(jobs: Vec<JobSpec>, t0: Instant) -> Rep {
    let rep_span = spans::span("serve_fresh.rep");
    let daemon = Daemon::start(fresh_data_dir());
    let setup = t0.elapsed();

    let t1 = Instant::now();
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, JobOutcome)>> = Mutex::new(Vec::with_capacity(jobs.len()));
    std::thread::scope(|s| {
        for _ in 0..client_threads() {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                let out = run_job(&daemon.client, &jobs[i], rep_span.id());
                done.lock()
                    .expect("no client thread panicked")
                    .push((i, out));
            });
        }
    });
    let wall = t1.elapsed();

    let phase_us = daemon_phase_us(&daemon.client);
    let dir = daemon.stop();
    let _ = std::fs::remove_dir_all(dir);
    let mut done = done.into_inner().expect("no client thread panicked");
    done.sort_by_key(|(i, _)| *i);
    Rep {
        setup,
        wall,
        jobs: done.into_iter().map(|(_, o)| o).collect(),
        report: None,
        first_leg: Vec::new(),
        rebind: None,
        scrub_ms: None,
        phase_us,
    }
}

/// The three `serve_resume` sessions: distinct targets, two languages, a
/// budget each of them outlives. A daemon session's per-path fuel is an
/// eighth of its budget, so the budget must also stay above eight times
/// the longest path (16.4 k LL at full scale, 11.6 k at smoke scale) or
/// long paths would be cut off as hangs and the set would no longer be
/// the exhaustive one.
pub fn resume_specs(p: Params) -> Vec<JobSpec> {
    let (sizes, budget) = if p.smoke {
        ([3, 4, 2], 100_000)
    } else {
        ([5, 6, 3], 600_000)
    };
    let mut specs = vec![
        guests::configparser(sizes[0]),
        guests::haml(sizes[1]),
        guests::simplejson(sizes[2]),
    ];
    for s in &mut specs {
        s.budget = budget;
    }
    specs
}

/// The `serve_resume` shape on an arbitrary session list (each spec
/// carries the budget its first leg runs out of).
pub fn serve_resume_with(specs: Vec<JobSpec>) -> Rep {
    let rep_span = spans::span("serve_resume.rep");
    // Set-up leg: fresh data dir, three sessions run until their budgets
    // are exhausted. This is ordinary long-session daemon work, so its
    // duration is the workload's `setup_s`.
    let t0 = Instant::now();
    let daemon = Daemon::start(fresh_data_dir());
    let sessions: Vec<Option<String>> = specs
        .iter()
        .map(|spec| daemon.client.submit(spec).ok())
        .collect();
    let first_leg: Vec<Option<SessionStatus>> = sessions
        .iter()
        .map(|s| wait_settled(&daemon.client, s.as_deref()?, rep_span.id()))
        .collect();
    let setup = t0.elapsed();

    // Timed leg: shutdown, bind on the same directory (scrub + recovery),
    // resume every unsettled session until all are done, fetch results.
    let t1 = Instant::now();
    let dir = daemon.stop();
    let t_bind = Instant::now();
    let daemon = Daemon::start(dir);
    let rebind = t_bind.elapsed();
    let client = &daemon.client;
    let mut jobs: Vec<JobOutcome> = specs
        .into_iter()
        .map(|spec| JobOutcome {
            spec,
            latency: Duration::ZERO,
            tests: Vec::new(),
            reached: false,
            status: None,
        })
        .collect();
    let deadline = Instant::now() + SESSION_DEADLINE;
    let mut open: Vec<usize> = (0..jobs.len()).filter(|&i| sessions[i].is_some()).collect();
    while !open.is_empty() && Instant::now() < deadline {
        open.retain(|&i| {
            let session = sessions[i].as_deref().expect("open sessions were admitted");
            let st = {
                let _s = spans::span_under("serve.status", rep_span.id());
                client.status(session)
            };
            let Ok(st) = st else {
                return false; // client error: the session stays failed
            };
            match st.state.as_str() {
                "running" => true,
                "done" => {
                    let _s = spans::span_under("serve.results", rep_span.id());
                    if let Ok(tests) = client.results(session) {
                        jobs[i].tests = tests;
                        jobs[i].reached = true;
                    }
                    jobs[i].latency = t1.elapsed();
                    jobs[i].status = Some(st);
                    false
                }
                // `exhausted` (budget spent) or `paused` (shutdown caught
                // it mid-slice): resumable rest states.
                "exhausted" | "paused" => {
                    let _s = spans::span_under("serve.resume", rep_span.id());
                    // Busy (admission) rejections are retried by the
                    // client; anything else surfaces on the next poll.
                    let _ = client.resume(session);
                    true
                }
                _ => {
                    jobs[i].status = Some(st);
                    false // `failed: …` is terminal
                }
            }
        });
        if !open.is_empty() {
            std::thread::sleep(POLL);
        }
    }
    let wall = t1.elapsed();

    // After the clock has stopped: what the restarted daemon's scrub found.
    let scrub_ms = client.stats().ok().map(|s| s.scrub_ms);
    let phase_us = daemon_phase_us(client);
    let dir = daemon.stop();
    let _ = std::fs::remove_dir_all(dir);
    Rep {
        setup,
        wall,
        jobs,
        report: None,
        first_leg,
        rebind: Some(rebind),
        scrub_ms,
        phase_us,
    }
}
