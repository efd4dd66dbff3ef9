//! One measured run of one workload: warm-up, timed reps, output checks,
//! and the end-to-end metric samples. This is what a `chefbench one`
//! process does; `run`, `trace` and the benchmark driver all start one
//! fresh process per workload, so `peak_rss_mb` is that workload's own
//! high-water mark.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::check::{self, SetSummary};
use crate::stats;
use crate::workloads::{run_rep, Drive, Params, Rep, Workload};

/// Direction in which a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system would see.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name, as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// `compare` calls it a regression, on every row [`NOISY_ROWS`] does
    /// not widen.
    pub bound: f64,
}

/// The end-to-end metrics. (The seventh, `ops_failed_share`, is a count
/// pair rather than a timing: it travels as `attempted`/`failed` and must
/// never rise above zero.)
pub const END_TO_END: [Metric; 6] = [
    Metric {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.15,
    },
    Metric {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
    },
    Metric {
        name: "tests_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
    },
    Metric {
        name: "job_latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
    },
    Metric {
        name: "job_latency_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
    },
    Metric {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
];

/// The (workload, metric) rows whose run-to-run spread on identical code
/// was measured wider than the metric's bound, with the bound they get
/// instead. Every other row keeps the tight one.
///
/// - A `serve_fresh` set-up sample is 0.4 s of thread start-up and
///   first-touch work; over ten runs it spread by 3-17 % of the median.
/// - The daemon workloads are 15-20 MB processes with hundreds of
///   short-lived connection threads; malloc arenas alone spread their peak
///   by 3-12 %. (`concrete_parse`, where memory is the story, repeats
///   within 0.1 % and keeps the 10 % bound.)
pub const NOISY_ROWS: [(Workload, &str, f64); 3] = [
    (Workload::ServeFresh, "setup_s", 0.25),
    (Workload::ServeFresh, "peak_rss_mb", 0.25),
    (Workload::ServeResume, "peak_rss_mb", 0.25),
];

impl Metric {
    /// The bound `compare` applies to this metric on workload `w`.
    pub fn bound_on(&self, w: Workload) -> f64 {
        NOISY_ROWS
            .iter()
            .find(|(nw, name, _)| *nw == w && *name == self.name)
            .map_or(self.bound, |(_, _, b)| *b)
    }

    /// The bound `BENCHMARK.json` lists: its schema has one per metric, so
    /// it is the widest of the rows.
    pub fn listed_bound(&self) -> f64 {
        Workload::ALL
            .iter()
            .map(|w| self.bound_on(*w))
            .fold(0.0, f64::max)
    }

    /// Whether `run`, result files and `compare` carry this metric for
    /// `w`. Job latency is a `serve_fresh` metric: no other workload has a
    /// latency distribution (one `Chef::run`, or three sessions), and a
    /// row that repeats `wall_s` tells nothing. The driver's result line
    /// has no such scoping — every listed metric on every workload — so
    /// `chefbench one` still prints it there: the rep's own wall time.
    pub fn reported_for(&self, w: Workload) -> bool {
        !self.name.starts_with("job_latency") || w == Workload::ServeFresh
    }
}

/// Timed reps are never fewer than this, whatever `--seconds` says.
pub const MIN_REPS: usize = 3;
/// Set-up samples (set-up + a smoke-scale rep) per run.
pub const SETUP_SAMPLES: usize = 3;
/// Reference-VM steps the replay check may spend per process under the
/// driver's `--seconds`: about four seconds. Every workload's delivered
/// set fits except `concrete_parse`'s, where each of the 104 tests re-runs
/// the 27 M-step concrete prologue (75 s in all): there the first six are
/// replayed, and `attempted` says so. `chefbench run` has no cap.
pub const DRIVER_REPLAY_STEPS: u64 = 150_000_000;

/// How many timed reps to run.
#[derive(Clone, Copy, Debug)]
pub enum Reps {
    /// Keep going until this much time has been measured (and at least
    /// [`MIN_REPS`] reps are in): the benchmark driver's `--seconds`.
    Seconds(f64),
    /// Exactly this many.
    Exactly(usize),
}

impl Reps {
    /// Reference-VM steps the replay check may spend: capped where the
    /// driver's time budget rules, unlimited otherwise.
    fn replay_budget(self) -> u64 {
        match self {
            Reps::Seconds(_) => DRIVER_REPLAY_STEPS,
            Reps::Exactly(_) => u64::MAX,
        }
    }
}

/// Everything one run measured.
pub struct RunResult {
    /// Samples per end-to-end metric, one per timed rep (`setup_s`: one
    /// per set-up; `peak_rss_mb`: one per run).
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Operations attempted: tests replayed on the reference VM (engine
    /// workloads) or jobs/sessions (serve workloads), plus one
    /// canonical-set check per rep.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// First failures, for the human.
    pub failures: Vec<String>,
    /// How many of the set's tests were replayed on the reference VM (the
    /// reps deliver the same set, and an identical set is replayed once).
    pub replayed: u64,
    /// The canonical set the timed reps delivered (of the last rep).
    pub set: SetSummary,
    /// Low-level instructions per rep (of the last rep).
    pub ll_instructions: u64,
    /// Timed reps run.
    pub reps: usize,
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Output checking across the reps of one run.
pub struct Checker {
    workload: Workload,
    golden: Option<SetSummary>,
    golden_missing: bool,
    /// Fingerprint of a set whose every test has replayed as claimed.
    /// Replay is a pure function of a test's inputs and the fingerprint
    /// pins inputs and claims, so an identical set is not replayed again.
    verified: Option<u64>,
    /// Reference-VM steps the replay check may still spend.
    budget: u64,
    /// Operations attempted so far.
    pub attempted: u64,
    /// Operations failed so far.
    pub failed: u64,
    /// First few failure descriptions.
    pub failures: Vec<String>,
    /// Tests replayed on the reference VM so far.
    pub replayed: u64,
}

impl Checker {
    /// A checker for `w` that may spend `replay_budget` reference-VM steps
    /// on replay. The golden applies when the workload's outputs do not
    /// depend on the seed, or the seed is the golden's own.
    pub fn new(w: Workload, p: Params, replay_budget: u64) -> Checker {
        let stored = check::load_golden(w.name(), p.smoke);
        let golden = stored
            .filter(|(seed, _)| !w.seed_dependent() || *seed == p.seed)
            .map(|(_, s)| s);
        Checker {
            workload: w,
            golden,
            golden_missing: stored.is_none(),
            verified: None,
            budget: replay_budget,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            replayed: 0,
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Checks one rep's outputs and returns its canonical-set summary.
    pub fn check(&mut self, rep: &Rep) -> SetSummary {
        let sets: Vec<&[chef_core::TestCase]> =
            rep.jobs.iter().map(|j| j.tests.as_slice()).collect();
        let set = check::summarize(&sets);
        let replay = self.verified != Some(set.fingerprint);
        let mut whole_set_replayed = replay;
        for (j, job) in rep.jobs.iter().enumerate() {
            let (mut tried, mut bad) = (0u64, 0u64);
            if replay {
                let prog = job.spec.build().expect("job built before it ran");
                for t in &job.tests {
                    if self.budget == 0 {
                        whole_set_replayed = false;
                        break;
                    }
                    self.budget = self.budget.saturating_sub(t.ll_steps.max(1));
                    tried += 1;
                    if !check::replays_as_claimed(&prog, t) {
                        bad += 1;
                    }
                }
            }
            self.replayed += tried;
            whole_set_replayed &= bad == 0;
            if self.workload.is_serve() {
                // One operation per job/session.
                self.attempted += 1;
                if !job.reached {
                    let state = job
                        .status
                        .as_ref()
                        .map_or("no status", |s| s.state.as_str());
                    self.fail(format!("job {j}: did not reach `done` ({state})"));
                } else if bad > 0 {
                    self.fail(format!("job {j}: {bad} tests do not replay as claimed"));
                } else if job
                    .status
                    .as_ref()
                    .is_some_and(|s| s.resume_full_seeds + s.watchdog_aborts + s.poisoned_seeds > 0)
                {
                    self.fail(format!(
                        "job {j}: full-replay seeds, watchdog aborts or poisoned seeds"
                    ));
                }
            } else {
                // One operation per test actually replayed.
                self.attempted += tried;
                self.failed += bad;
                if bad > 0 && self.failures.len() < 8 {
                    self.failures
                        .push(format!("{bad} tests do not replay as claimed"));
                }
            }
        }
        if whole_set_replayed {
            self.verified = Some(set.fingerprint);
        }
        // One more operation: the canonical-set check.
        self.attempted += 1;
        if let Some(r) = &rep.report {
            if r.dropped_states + r.solver_stats.unknowns + r.hangs as u64 > 0 {
                self.fail(format!(
                    "not exhaustive: dropped_states={} hangs={} unknowns={}",
                    r.dropped_states, r.hangs, r.solver_stats.unknowns
                ));
                return set;
            }
        }
        match self.golden {
            Some(g) if g != set => self.fail(format!(
                "canonical set differs from golden: got {} tests / {} hl paths / {:016x}, golden {} / {} / {:016x}",
                set.tests, set.hl_paths, set.fingerprint, g.tests, g.hl_paths, g.fingerprint
            )),
            None if self.golden_missing => {
                self.fail("golden file missing or malformed (run `chefbench bless`)".into())
            }
            _ => {}
        }
        set
    }
}

/// Latency percentiles of one rep, in milliseconds: the median, and the
/// highest percentile that has at least ten samples beyond it (p90 for
/// `serve_fresh`'s 200 jobs; below 100 jobs the median again). A rep
/// with fewer than ten jobs has no distribution to take percentiles of —
/// the "median" of `serve_resume`'s three sessions is whichever finishes
/// second, which flips between runs — so there the rep itself is the job.
fn latency_ms(rep: &Rep) -> (f64, f64) {
    if rep.jobs.len() < 10 {
        let ms = rep.wall.as_secs_f64() * 1e3;
        return (ms, ms);
    }
    let ms: Vec<f64> = rep
        .jobs
        .iter()
        .map(|j| j.latency.as_secs_f64() * 1e3)
        .collect();
    let tail = stats::supported_tail(ms.len());
    (stats::percentile(&ms, 50.0), stats::percentile(&ms, tail))
}

/// Runs `w`: a warm-up block, timed reps (every rep's outputs checked),
/// then the set-up samples.
pub fn run_workload(w: Workload, p: Params, reps: Reps) -> RunResult {
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut push = |name: &'static str, v: f64| samples.entry(name).or_default().push(v);

    // A set-up block is everything a rep needs before its timed leg can
    // start — guest compile, LIR build, data-dir and daemon bring-up — plus
    // one rep at 1/20 scale that faults the code paths in. The first block
    // is the warm-up. `serve_resume` needs none: each rep's first leg
    // (three fresh sessions run to budget exhaustion) is its set-up, and
    // warms the same code the timed leg runs.
    let blocks = w != Workload::ServeResume && !p.smoke;
    if blocks {
        std::hint::black_box(run_rep(w, Params { smoke: true, ..p }, Drive::Run));
    }

    let mut checker = Checker::new(w, p, reps.replay_budget());
    let mut timed = Duration::ZERO;
    let mut n = 0usize;
    let mut last: Option<(u64, SetSummary)> = None;
    loop {
        let enough = match reps {
            Reps::Seconds(s) => n >= MIN_REPS && timed.as_secs_f64() >= s,
            Reps::Exactly(k) => n >= k,
        };
        if enough {
            break;
        }
        let rep = run_rep(w, p, Drive::Run);
        if n == 0 {
            // Sampled once, after the first timed rep and before its
            // checks: what a fresh process needs for one rep. Later reps
            // only add heap fragmentation on top — identical runs of
            // `solver_bound` read 22 MB here and anything from 22 to 32 MB
            // after rep three — and the checker's memory is not the
            // program's.
            push("peak_rss_mb", peak_rss_mb());
        }
        timed += rep.wall;
        n += 1;
        let wall = rep.wall.as_secs_f64();
        push("wall_s", wall);
        push("tests_per_s", rep.test_count() as f64 / wall);
        let (p50, tail) = latency_ms(&rep);
        push("job_latency_p50_ms", p50);
        push("job_latency_p90_ms", tail);
        if w == Workload::ServeResume || p.smoke {
            push("setup_s", rep.setup.as_secs_f64());
        }
        let set = checker.check(&rep);
        last = Some((rep.ll_instructions(), set));
    }
    // Set-up is sampled after the timed reps, not before them: the first
    // second or two of a process also pay for whatever state the previous
    // one left the machine in (`serve_fresh`'s block read 0.31 s or 0.47 s
    // as the first thing in a process, 0.30-0.34 s here). A sample is the
    // block's set-up leg plus its 1/20-scale timed leg, not its teardown: a
    // daemon's shutdown joins its threads in 50 ms steps, which is nobody's
    // set-up and quantized the samples.
    if blocks {
        for _ in 0..SETUP_SAMPLES {
            let block = run_rep(w, Params { smoke: true, ..p }, Drive::Run);
            push("setup_s", (block.setup + block.wall).as_secs_f64());
        }
    }
    let (ll_instructions, set) = last.expect("at least one timed rep");
    RunResult {
        samples,
        attempted: checker.attempted,
        failed: checker.failed,
        failures: checker.failures,
        replayed: checker.replayed,
        set,
        ll_instructions,
        reps: n,
    }
}
