//! # chef-serve — the persistent exploration service
//!
//! The one-shot CLI re-explores every target from scratch and its results
//! die with the process. `chef-serve` turns the stack into a *system*: a
//! long-running daemon that accepts exploration jobs over a std-only TCP +
//! length-prefixed JSON protocol ([`proto`]), schedules them onto
//! [`chef_fleet`] workers, and persists everything to a disk-backed
//! [`corpus`]:
//!
//! - generated [`TestCase`]s, deduplicated by canonical input bytes and
//!   stored as `chef_core::wire` frames,
//! - per-target coverage maps,
//! - one fork-point [`chef_core::Snapshot`] per target (`snapshot.bin`),
//! - session checkpoints: the unexplored frontier serialized as
//!   [`WorkSeed`] frames referencing the snapshot by fingerprint, so a
//!   paused — or killed — session resumes by restoring the snapshot and
//!   replaying only each seed's post-fork-point decision suffix. Full
//!   prefix replay remains the fallback when `snapshot.bin` is missing or
//!   corrupt.
//!
//! [`TestCase`]: chef_core::TestCase
//!
//! New sessions against a previously-seen target warm-start from the
//! corpus: stored tests are replayed *concretely* to pre-populate the
//! HL-CFG (and thereby the §3.4 coverage-optimized CUPA weights) before
//! the first symbolic state is selected.
//!
//! ## Multi-tenancy
//!
//! The daemon is multi-tenant: sessions do not get a thread each. A fixed
//! pool of [`ServeConfig::workers`] workers pulls runnable sessions from
//! the fair-share scheduler in [`sched`] and runs them one checkpoint
//! slice at a time, so N tenants share the machine at slice granularity in
//! proportion to their [`JobSpec::quota`]s. Admission control caps the
//! unsettled-session count ([`ServeConfig::max_sessions`]) and rejects
//! overflow submits with a typed `retry_after_ms`; concurrent client
//! connections are bounded by [`ServeConfig::max_connections`]. Because a
//! slice always ends at a checkpoint, preemption by other tenants
//! composes with the kill/resume guarantee: an interrupted-and-resumed
//! session still produces exactly the test set of an uninterrupted one.
//!
//! # Examples
//!
//! An in-process daemon on a loopback port, driven through the client:
//!
//! ```
//! use chef_serve::{Client, JobLang, JobSpec, ServeConfig, Server};
//! use std::time::Duration;
//!
//! let dir = std::env::temp_dir().join(format!("chef-serve-doc-{}", std::process::id()));
//! let server = Server::bind(ServeConfig {
//!     addr: "127.0.0.1:0".into(),
//!     data_dir: dir.clone(),
//!     ..Default::default()
//! })?;
//! let addr = server.local_addr()?;
//! let handle = std::thread::spawn(move || server.run());
//!
//! let client = Client::new(addr.to_string());
//! let spec = JobSpec::new(JobLang::Python, "def f(s):\n    return len(s)\n", "f")
//!     .sym_str("s", 1);
//! let session = client.submit(&spec)?;
//! let status = client.wait_settled(&session, Duration::from_secs(60))?;
//! assert_eq!(status.state, "done");
//! assert!(!client.results(&session)?.is_empty());
//! client.shutdown()?;
//! handle.join().unwrap()?;
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod corpus;
pub mod job;
pub mod json;
pub mod proto;
pub mod sched;

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use chef_core::fault::{FaultPlan, NetFault};
use chef_core::wire::Wire;
use chef_core::{replay_cfg_edges, ChefConfig, SchedStats, Snapshot, WorkSeed};
use chef_fleet::{run_fleet_slice, FleetConfig, FleetControl};
use chef_lir::Program;

pub use corpus::{Corpus, ScrubReport};
pub use job::{parse_strategy, strategy_name, JobArg, JobLang, JobSpec};
pub use proto::{Client, ClientConfig, DaemonStats, ResultsPage, ServeError, SessionStatus};
pub use sched::{SchedConfig, QUOTA_UNIT};

use json::Value;
use sched::Scheduler;

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:4455` (port 0 picks one).
    pub addr: String,
    /// Data directory for the corpus and session store.
    pub data_dir: PathBuf,
    /// Low-level instructions between automatic checkpoints: sessions run
    /// as budget slices of this size, checkpointing the frontier after
    /// each, so a killed daemon loses at most one slice of work. Slices
    /// are also the scheduler's preemption granularity.
    pub checkpoint_interval_ll: u64,
    /// Pool workers executing session slices (session-level concurrency).
    pub workers: usize,
    /// Admission-control cap on admitted-and-unsettled sessions; submits
    /// and resumes beyond it get a typed `retry_after_ms` rejection.
    pub max_sessions: usize,
    /// Concurrent client connections; excess connects receive a typed
    /// one-frame `{"code":"busy"}` rejection and are closed (counted in
    /// the daemon `stats`).
    pub max_connections: usize,
    /// Per-target byte budget for archived tests (`None` = unbounded).
    pub corpus_budget_bytes: Option<u64>,
    /// Concrete fast-forward gating inside session slices (pure
    /// performance knob — the corpus is byte-identical in every mode).
    /// Default adaptive; `chef-cli serve --ff-mode off` (or the legacy
    /// `--no-fast-forward`) turns it off.
    pub ff_mode: chef_core::FfMode,
    /// Watchdog deadline for one scheduled slice, in milliseconds
    /// (`0` disables the watchdog). A slice that exceeds it — a hung
    /// solver query, a pathological seed — is aborted at its next safe
    /// point and the session continues degraded; after
    /// [`POISON_AFTER_TIMEOUTS`] consecutive timeouts the offending head
    /// seed is degraded to full replay and then quarantined to
    /// `poisoned.bin`, so one bad seed cannot wedge a pool worker.
    pub slice_timeout_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:4455".into(),
            data_dir: PathBuf::from("chef-data"),
            checkpoint_interval_ll: 250_000,
            workers: 2,
            max_sessions: 32,
            max_connections: 128,
            corpus_budget_bytes: None,
            ff_mode: chef_core::FfMode::default(),
            slice_timeout_ms: 30_000,
        }
    }
}

/// Consecutive watchdog timeouts before the head checkpoint seed is
/// poisoned (first degraded to full replay, then quarantined).
pub const POISON_AFTER_TIMEOUTS: u64 = 2;

/// Capacity of the in-daemon event ring: old events are dropped, never
/// blocked on. Sized so a stalled operator still sees minutes of
/// scheduling history at typical slice rates.
pub const EVENT_RING_CAP: usize = 1024;

/// One scheduling-plane event: what happened, to which session, at which
/// scheduler virtual time, how long after daemon start. Events are
/// reporting-only — the scheduler never reads them back.
pub(crate) struct Event {
    seq: u64,
    kind: &'static str,
    session: String,
    vtime: u64,
    wall_ms: u64,
    detail: String,
}

/// Bounded ring of recent daemon events (slice lifecycle, preemptions,
/// watchdog aborts, seed poisonings, admission rejects, scrub results),
/// drained by the `trace` wire command with an `after` cursor. Always on:
/// the cost is one mutex push per *scheduling* event, never per
/// instruction, so it does not need a trace level to be cheap.
pub(crate) struct EventRing {
    events: VecDeque<Event>,
    next_seq: u64,
    started: Instant,
}

impl EventRing {
    fn new() -> Self {
        EventRing {
            events: VecDeque::new(),
            next_seq: 1,
            started: Instant::now(),
        }
    }

    fn push(&mut self, kind: &'static str, session: &str, vtime: u64, detail: String) {
        if self.events.len() >= EVENT_RING_CAP {
            self.events.pop_front();
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push_back(Event {
            seq,
            kind,
            session: session.to_string(),
            vtime,
            wall_ms: self.started.elapsed().as_millis() as u64,
            detail,
        });
    }

    /// Events with `seq > after` as protocol JSON, plus the cursor for the
    /// next drain.
    fn since(&self, after: u64) -> (Vec<Value>, u64) {
        let events = self
            .events
            .iter()
            .filter(|e| e.seq > after)
            .map(|e| {
                Value::obj(vec![
                    ("seq", Value::Int(e.seq as i64)),
                    ("kind", Value::Str(e.kind.to_string())),
                    ("session", Value::Str(e.session.clone())),
                    ("vtime", Value::Int(e.vtime as i64)),
                    ("ms", Value::Int(e.wall_ms as i64)),
                    ("detail", Value::Str(e.detail.clone())),
                ])
            })
            .collect();
        (events, self.next_seq.saturating_sub(1))
    }
}

/// FNV-1a over a seed's decision prefix: a stable fingerprint operators
/// can grep across `trace` output, `poisoned.bin`, and logs. Not the wire
/// snapshot fingerprint — this one identifies the *seed*, not a snapshot.
pub(crate) fn seed_fingerprint(seed: &WorkSeed) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &choice in &seed.choices {
        for b in choice.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Everything a session needs between slices, computed once per admission
/// (and once per resume): the built program, the corpus warm start, and
/// the live frontier. Holding it across slices is what makes a slice cost
/// one fleet run instead of one full session setup.
struct Prepared {
    prog: Program,
    base: ChefConfig,
    seed_cfg_edges: Vec<(u64, u64, u64)>,
    /// Adaptive fast-forward warm start: the session's persisted learned
    /// site table, updated in place as slices complete.
    seed_ff_sites: chef_core::FfSiteTable,
    seeds: Vec<WorkSeed>,
    stored_snapshot: Option<Arc<Snapshot>>,
    /// Low-level instructions spent against this *run's* budget (resets on
    /// resume, like the one-shot engine's budget does).
    spent: u64,
}

/// What one scheduled slice concluded about its session.
pub(crate) enum SliceVerdict {
    /// Work remains; the scheduler requeues the session.
    Continue,
    /// A pause request landed during the slice.
    Paused,
    /// The frontier is exhausted: exploration ran to completion.
    Done,
    /// The session's own instruction budget ran out with work remaining.
    Exhausted,
}

/// How a slice failed. The distinction drives the worker's disposition:
/// transient I/O trouble *pauses* the session (its on-disk checkpoint is
/// still consistent, so it can resume once the disk recovers), while a
/// fatal error marks it failed.
pub(crate) enum SliceError {
    /// A corpus read/write failed (disk full, torn write, unreadable
    /// file). Resumable.
    Io(String),
    /// The session can never make progress (e.g. its stored source no
    /// longer builds). Terminal.
    Fatal(String),
}

impl std::fmt::Display for SliceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SliceError::Io(e) => write!(f, "io: {e}"),
            SliceError::Fatal(e) => write!(f, "{e}"),
        }
    }
}

/// In-memory state of one session (mirrored to disk by the [`Corpus`]).
pub(crate) struct SessionState {
    pub(crate) id: String,
    spec: JobSpec,
    pub(crate) target: String,
    pub(crate) ctl: FleetControl,
    /// `running` / `paused` / `exhausted` / `done` / `failed: …`.
    state: Mutex<String>,
    /// Fair-share weight (from the spec; [`QUOTA_UNIT`] is the default).
    pub(crate) quota: u64,
    new_tests: AtomicU64,
    seeded_tests: AtomicU64,
    spent_ll: AtomicU64,
    /// Checkpoint seeds this run restored through the fork-point snapshot.
    resume_snapshot_seeds: AtomicU64,
    /// Checkpoint seeds that had to fall back to full prefix replay.
    resume_full_seeds: AtomicU64,
    /// Milli-tests/sec over the last checkpoint slice, derived from the
    /// [`FleetControl`] gauges sampled when the slice completes.
    tests_per_sec_milli: AtomicU64,
    /// Whether a pool worker is executing a slice of this session now.
    pub(crate) executing: AtomicBool,
    /// Slices the pool has dispatched for this session.
    pub(crate) sched_slices: AtomicU64,
    /// Slices that ended with work remaining (preempted, not finished).
    pub(crate) preemptions: AtomicU64,
    /// Cumulative milliseconds spent runnable in the queue.
    pub(crate) wait_ms: AtomicU64,
    /// Watchdog deadline of the slice currently executing (set by the
    /// dispatching worker, cleared when the slice returns).
    pub(crate) slice_deadline: Mutex<Option<Instant>>,
    /// Set by the watchdog when it pause-aborts an overrunning slice;
    /// consumed by the worker to tell a watchdog abort from a real pause.
    pub(crate) watchdog_fired: AtomicBool,
    /// Watchdog aborts on this session (lifetime).
    pub(crate) watchdog_aborts: AtomicU64,
    /// Consecutive watchdog timeouts; reset by any clean slice. At
    /// [`POISON_AFTER_TIMEOUTS`] the head checkpoint seed is poisoned.
    pub(crate) consecutive_timeouts: AtomicU64,
    /// Seeds quarantined to `poisoned.bin` after repeated timeouts.
    pub(crate) poisoned_seeds: AtomicU64,
    /// Cumulative phase time attribution (merged from every slice's fleet
    /// report plus the pool worker's own corpus I/O spans); persisted to
    /// `trace.bin` beside the scheduling counters and rehydrated on
    /// restart, so `status`/`trace` phase percentages span daemon
    /// lifetimes. Empty unless a `chef_trace` level is enabled.
    pub(crate) trace: Mutex<chef_trace::TraceStats>,
    /// Between-slice carry state; `None` until the first slice (or after a
    /// rest state, so resume re-prepares from the checkpoint).
    prep: Mutex<Option<Prepared>>,
}

impl SessionState {
    fn new(id: String, spec: JobSpec, target: String, state: String) -> Self {
        let quota = spec.quota.max(1);
        SessionState {
            id,
            spec,
            target,
            ctl: FleetControl::new(),
            state: Mutex::new(state),
            quota,
            new_tests: AtomicU64::new(0),
            seeded_tests: AtomicU64::new(0),
            spent_ll: AtomicU64::new(0),
            resume_snapshot_seeds: AtomicU64::new(0),
            resume_full_seeds: AtomicU64::new(0),
            tests_per_sec_milli: AtomicU64::new(0),
            executing: AtomicBool::new(false),
            sched_slices: AtomicU64::new(0),
            preemptions: AtomicU64::new(0),
            wait_ms: AtomicU64::new(0),
            slice_deadline: Mutex::new(None),
            watchdog_fired: AtomicBool::new(false),
            watchdog_aborts: AtomicU64::new(0),
            consecutive_timeouts: AtomicU64::new(0),
            poisoned_seeds: AtomicU64::new(0),
            trace: Mutex::new(chef_trace::TraceStats::default()),
            prep: Mutex::new(None),
        }
    }

    pub(crate) fn set_state(&self, corpus: &Corpus, state: &str) {
        *self.state.lock().unwrap() = state.to_string();
        // Disk write is best-effort: an unwritable data dir should not
        // take the daemon down mid-session.
        let _ = corpus.save_state(&self.id, state);
    }

    fn sched_stats(&self) -> SchedStats {
        SchedStats {
            quota: self.quota,
            slices: self.sched_slices.load(Ordering::Relaxed),
            preemptions: self.preemptions.load(Ordering::Relaxed),
            wait_ms: self.wait_ms.load(Ordering::Relaxed),
            cpu_ll: self.spent_ll.load(Ordering::Relaxed),
        }
    }

    fn status_value(&self, inner: &Inner) -> Value {
        let corpus = &inner.corpus;
        let corpus_tests = corpus
            .load_tests(&self.target)
            .map(|t| t.len())
            .unwrap_or(0);
        let covered = corpus
            .load_coverage(&self.target)
            .map(|c| c.len())
            .unwrap_or(0);
        // The fleet gauges advance within the current slice; the `spent`
        // counters advance as slices complete. Their sum is live session
        // progress, mid-slice included.
        let live_ll = self.ctl.ll_instructions.load(Ordering::Relaxed);
        let live_tests = self.ctl.tests_generated.load(Ordering::Relaxed);
        let mine = self.spent_ll.load(Ordering::Relaxed) + live_ll;
        // cpu-share: this session's lifetime instructions over every known
        // session's — the quantity the scheduler's quotas apportion.
        let pool: u64 = inner
            .sessions
            .lock()
            .unwrap()
            .values()
            .map(|s| s.spent_ll.load(Ordering::Relaxed))
            .sum::<u64>()
            .max(mine);
        let share = if pool == 0 {
            0.0
        } else {
            mine as f64 / pool as f64
        };
        // Phase attribution survives restarts with trace.bin, so these
        // percentages describe the session's lifetime, not just this run.
        let (phase_summary, trace_busy_us) = {
            let t = self.trace.lock().unwrap();
            (t.summary(), t.busy_ns() / 1_000)
        };
        Value::obj(vec![
            ("session", Value::Str(self.id.clone())),
            ("target", Value::Str(self.target.clone())),
            ("state", Value::Str(self.state.lock().unwrap().clone())),
            ("corpus_tests", Value::Int(corpus_tests as i64)),
            (
                "new_tests",
                Value::Int(self.new_tests.load(Ordering::Relaxed) as i64),
            ),
            (
                "seeded_tests",
                Value::Int(self.seeded_tests.load(Ordering::Relaxed) as i64),
            ),
            ("ll_instructions", Value::Int(mine as i64)),
            ("live_tests", Value::Int(live_tests as i64)),
            ("covered_hlpcs", Value::Int(covered as i64)),
            (
                "tests_per_sec",
                Value::Str(format!(
                    "{:.2}",
                    self.tests_per_sec_milli.load(Ordering::Relaxed) as f64 / 1000.0
                )),
            ),
            (
                "resume_snapshot_seeds",
                Value::Int(self.resume_snapshot_seeds.load(Ordering::Relaxed) as i64),
            ),
            (
                "resume_full_seeds",
                Value::Int(self.resume_full_seeds.load(Ordering::Relaxed) as i64),
            ),
            ("quota", Value::Int(self.quota as i64)),
            (
                "queue_position",
                Value::Int(inner.sched.queue_position(self)),
            ),
            ("cpu_share", Value::Str(format!("{share:.3}"))),
            (
                "sched_slices",
                Value::Int(self.sched_slices.load(Ordering::Relaxed) as i64),
            ),
            (
                "preemptions",
                Value::Int(self.preemptions.load(Ordering::Relaxed) as i64),
            ),
            (
                "wait_ms",
                Value::Int(self.wait_ms.load(Ordering::Relaxed) as i64),
            ),
            (
                "watchdog_aborts",
                Value::Int(self.watchdog_aborts.load(Ordering::Relaxed) as i64),
            ),
            (
                "poisoned_seeds",
                Value::Int(self.poisoned_seeds.load(Ordering::Relaxed) as i64),
            ),
            ("trace_busy_us", Value::Int(trace_busy_us as i64)),
            ("phase_summary", Value::Str(phase_summary)),
        ])
    }
}

pub(crate) struct Inner {
    config: ServeConfig,
    pub(crate) corpus: Corpus,
    sessions: Mutex<HashMap<String, Arc<SessionState>>>,
    pub(crate) sched: Scheduler,
    conns: AtomicUsize,
    stop: AtomicBool,
    /// What the startup scrub pass found and fixed (served by `stats`).
    scrub: ScrubReport,
    /// Client idempotency tokens → session ids, so a retried submit maps
    /// to the session it already admitted. Rebuilt from disk at startup.
    tokens: Mutex<HashMap<String, String>>,
    /// Connections rejected at the accept-loop cap.
    pub(crate) conns_dropped: AtomicU64,
    /// Sessions paused (not failed) by a slice-level I/O error.
    pub(crate) io_pauses: AtomicU64,
    /// Watchdog slice aborts, daemon-wide.
    pub(crate) watchdog_aborts: AtomicU64,
    /// Seeds quarantined after repeated timeouts, daemon-wide.
    pub(crate) poisoned_seeds: AtomicU64,
    /// Recent scheduling-plane events, drained by the `trace` command.
    pub(crate) ring: Mutex<EventRing>,
    /// Daemon-side wire time (response serialization + send), merged from
    /// every connection thread's local accumulator after each request.
    pub(crate) wire_trace: Mutex<chef_trace::TraceStats>,
}

impl Inner {
    /// Appends one event to the bounded ring, stamping it with the
    /// scheduler's current virtual time and the daemon's wall clock.
    pub(crate) fn trace_event(&self, kind: &'static str, session: &str, detail: String) {
        let vtime = self.sched.vtime();
        self.ring.lock().unwrap().push(kind, session, vtime, detail);
    }
}

/// The daemon: a bound listener plus the session registry and worker pool.
pub struct Server {
    listener: TcpListener,
    inner: Arc<Inner>,
}

impl Server {
    /// Binds the listen socket and opens the data directory. Startup runs
    /// the crash-consistency [`Corpus::scrub`] pass first — truncating torn
    /// frame tails, dropping bit-rotted frames and snapshots, quarantining
    /// sessions whose specs no longer parse — so everything the daemon
    /// loads afterwards is known-good. Sessions that were `running` when a
    /// previous daemon died are then re-marked `paused`, so their last
    /// checkpoint is resumable; snapshots no checkpoint references anymore
    /// are garbage-collected.
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        let mut corpus = Corpus::open(&config.data_dir)?;
        corpus.set_target_budget(config.corpus_budget_bytes);
        // Scrub before anything reads corpus files: recovery and warm
        // starts below must only ever see CRC-clean frames.
        let scrub = corpus.scrub()?;
        // Orphan recovery: a state file saying "running" with no daemon
        // behind it means we were killed; the checkpoint stands.
        for id in corpus.session_ids()? {
            if corpus.load_state(&id)?.as_deref() == Some("running") {
                corpus.save_state(&id, "paused")?;
            }
        }
        // Corpus lifecycle: after recovery, every live snapshot is
        // referenced by some checkpoint; drop the rest.
        corpus.gc_snapshots()?;
        // Idempotency tokens survive restarts with the sessions they name.
        let tokens = corpus.load_tokens()?.into_iter().collect();
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let sched = Scheduler::new(SchedConfig {
            workers: config.workers.max(1),
            max_sessions: config.max_sessions.max(1),
            default_quota: QUOTA_UNIT,
        });
        let inner = Arc::new(Inner {
            config,
            corpus,
            sessions: Mutex::new(HashMap::new()),
            sched,
            conns: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            scrub,
            tokens: Mutex::new(tokens),
            conns_dropped: AtomicU64::new(0),
            io_pauses: AtomicU64::new(0),
            watchdog_aborts: AtomicU64::new(0),
            poisoned_seeds: AtomicU64::new(0),
            ring: Mutex::new(EventRing::new()),
            wire_trace: Mutex::new(chef_trace::TraceStats::default()),
        });
        // The scrub verdict is the daemon's first event, so an operator
        // reading `trace` after a crash recovery sees what startup fixed.
        inner.trace_event(
            "scrub",
            "-",
            format!(
                "repaired={} truncated_bytes={} snapshots_dropped={} quarantined={}",
                inner.scrub.frames_repaired,
                inner.scrub.bytes_truncated,
                inner.scrub.snapshots_dropped,
                inner.scrub.quarantined
            ),
        );
        Ok(Server { listener, inner })
    }

    /// The actually bound address (useful with port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Arms (`Some`) or disarms (`None`) fault injection on this daemon's
    /// corpus writes and connections only. The startup scrub has already
    /// run clean; arming also works while [`Server::run`] runs elsewhere.
    pub fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        self.inner.corpus.set_fault_plan(plan);
    }

    /// Runs the worker pool and the accept loop until a `shutdown` request
    /// arrives. On shutdown, every session is asked to pause and the pool
    /// is drained, so every session ends checkpointed.
    pub fn run(&self) -> io::Result<()> {
        self.inner.sched.start(&self.inner);
        while !self.inner.stop.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    // Connection cap: beyond it, send a typed one-frame
                    // `busy` rejection and close, instead of spawning an
                    // unbounded handler thread (or silently slamming the
                    // socket, which clients could not tell from a crash).
                    if self.inner.conns.load(Ordering::SeqCst) >= self.inner.config.max_connections
                    {
                        self.inner.conns_dropped.fetch_add(1, Ordering::Relaxed);
                        reject_busy(stream);
                        continue;
                    }
                    self.inner.conns.fetch_add(1, Ordering::SeqCst);
                    let inner = Arc::clone(&self.inner);
                    let spawned = std::thread::Builder::new()
                        .name("chef-conn".into())
                        .spawn(move || handle_connection(inner, stream));
                    if let Err(e) = spawned {
                        // Thread exhaustion is capacity pressure, not a
                        // daemon-fatal error: count it and keep accepting.
                        self.inner.conns.fetch_sub(1, Ordering::SeqCst);
                        self.inner.conns_dropped.fetch_add(1, Ordering::Relaxed);
                        eprintln!("chef-serve: connection thread spawn failed: {e}");
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(e),
            }
        }
        // Graceful drain. Ordering matters: pause-request everything we
        // know, close admissions, then re-sweep — a submit racing the
        // first sweep has inserted its session into the map before
        // enqueueing it, so the second sweep (after admissions closed)
        // necessarily sees it. Workers park pause-requested queue entries
        // as `paused` without burning a slice, so the queue drains and
        // every in-flight slice ends at its next preemption point with
        // its checkpoint on disk.
        for sess in self.inner.sessions.lock().unwrap().values() {
            sess.ctl.request_pause();
        }
        self.inner.sched.begin_drain();
        for sess in self.inner.sessions.lock().unwrap().values() {
            sess.ctl.request_pause();
        }
        self.inner.sched.join_workers();
        Ok(())
    }
}

/// Tells an over-cap client *why* it is being disconnected: one typed
/// `{"code":"busy"}` frame, written under a short deadline so a stalled
/// peer cannot pin the accept loop, then the socket closes.
fn reject_busy(mut stream: TcpStream) {
    stream.set_nodelay(true).ok();
    stream
        .set_write_timeout(Some(Duration::from_millis(250)))
        .ok();
    let frame = Value::obj(vec![
        ("ok", Value::Bool(false)),
        ("error", Value::Str("connection limit reached".into())),
        ("code", Value::Str("busy".into())),
        ("retry_after_ms", Value::Int(250)),
    ]);
    let _ = proto::write_message(&mut stream, &frame);
}

/// Decrements the connection count when a handler thread exits, however it
/// exits.
struct ConnGuard(Arc<Inner>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.conns.fetch_sub(1, Ordering::SeqCst);
    }
}

fn handle_connection(inner: Arc<Inner>, mut stream: TcpStream) {
    let _guard = ConnGuard(Arc::clone(&inner));
    stream.set_nodelay(true).ok();
    loop {
        // Deterministic connection-fault injection (inert unless this
        // daemon's corpus has a fault plan armed): each request rolls at
        // most one fault, exercising the client's retry/idempotency path.
        let fault = inner.corpus.faults.plan().and_then(|p| p.net_fault());
        if let Some(NetFault::StallRead { ms }) = fault {
            // The daemon goes quiet mid-exchange; the client's read
            // deadline turns the stall into a retryable timeout.
            std::thread::sleep(Duration::from_millis(ms));
        }
        if matches!(fault, Some(NetFault::HalfClose)) {
            // Accept the request but never answer: the client sees a
            // clean EOF where its reply should be.
            let _ = proto::read_message(&mut stream);
            let _ = stream.shutdown(std::net::Shutdown::Write);
            return;
        }
        let req = match proto::read_message(&mut stream) {
            Ok(Some(v)) => v,
            Ok(None) => return, // clean close
            Err(_) => return,   // protocol garbage: drop the connection
        };
        let resp = dispatch(&inner, &req);
        if let Some(NetFault::DropMidFrame { keep_permille }) = fault {
            // The reply dies partway through its length-prefixed frame.
            let text = resp.to_json();
            let mut frame = (text.len() as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(text.as_bytes());
            let keep = (frame.len() * keep_permille as usize / 1000).min(frame.len() - 1);
            use std::io::Write as _;
            let _ = stream.write_all(&frame[..keep]);
            let _ = stream.flush();
            return;
        }
        let wrote = {
            // Only the response (serialize + send) is charged to WireIo:
            // a blocked *read* is the client thinking, not daemon work,
            // so timing it would drown the phase in connection idle time.
            let _io = chef_trace::span(chef_trace::Phase::WireIo);
            proto::write_message(&mut stream, &resp)
        };
        // Connection threads never run slices, so their thread-local trace
        // holds exactly the wire spans above; fold it into the daemon-wide
        // accumulator served by `stats` and `trace`.
        let wire = chef_trace::take_local();
        if !wire.is_empty() {
            inner.wire_trace.lock().unwrap().merge(&wire);
        }
        if wrote.is_err() {
            return;
        }
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
    }
}

fn ok(mut fields: Vec<(&str, Value)>) -> Value {
    fields.insert(0, ("ok", Value::Bool(true)));
    Value::obj(fields)
}

fn err(msg: impl Into<String>) -> Value {
    Value::obj(vec![
        ("ok", Value::Bool(false)),
        ("error", Value::Str(msg.into())),
    ])
}

/// The typed admission rejection: `code` lets clients distinguish "try
/// again later" from real errors, `retry_after_ms` tells them when.
fn busy(retry_after_ms: u64) -> Value {
    Value::obj(vec![
        ("ok", Value::Bool(false)),
        (
            "error",
            Value::Str(format!("at capacity; retry in {retry_after_ms}ms")),
        ),
        ("code", Value::Str("capacity".into())),
        ("retry_after_ms", Value::Int(retry_after_ms as i64)),
    ])
}

fn dispatch(inner: &Arc<Inner>, req: &Value) -> Value {
    match req.get("cmd").and_then(Value::as_str) {
        Some("submit") => cmd_submit(inner, req),
        Some("status") => cmd_status(inner, req),
        Some("list") => cmd_list(inner),
        Some("results") => cmd_results(inner, req),
        Some("pause") => cmd_pause(inner, req),
        Some("resume") => cmd_resume(inner, req),
        Some("stats") => cmd_stats(inner),
        Some("trace") => cmd_trace(inner, req),
        Some("shutdown") => {
            inner.stop.store(true, Ordering::SeqCst);
            ok(vec![])
        }
        Some(other) => err(format!("unknown command '{other}'")),
        None => err("request missing 'cmd'"),
    }
}

/// Daemon-wide health and robustness counters: session census, capacity
/// drops, fault-recovery activity, and what the startup scrub found.
fn cmd_stats(inner: &Arc<Inner>) -> Value {
    let (session_count, states) = {
        let sessions = inner.sessions.lock().unwrap();
        let mut running = 0i64;
        for s in sessions.values() {
            if s.state.lock().unwrap().as_str() == "running" {
                running += 1;
            }
        }
        (sessions.len() as i64, running)
    };
    let scrub = &inner.scrub;
    let mut fields = vec![
        ("sessions", Value::Int(session_count)),
        ("running", Value::Int(states)),
        (
            "conns_dropped",
            Value::Int(inner.conns_dropped.load(Ordering::Relaxed) as i64),
        ),
        (
            "io_pauses",
            Value::Int(inner.io_pauses.load(Ordering::Relaxed) as i64),
        ),
        (
            "watchdog_aborts",
            Value::Int(inner.watchdog_aborts.load(Ordering::Relaxed) as i64),
        ),
        (
            "poisoned_seeds",
            Value::Int(inner.poisoned_seeds.load(Ordering::Relaxed) as i64),
        ),
        ("scrub_ms", Value::Int(scrub.scrub_ms as i64)),
        ("frames_repaired", Value::Int(scrub.frames_repaired as i64)),
        ("bytes_truncated", Value::Int(scrub.bytes_truncated as i64)),
        (
            "snapshots_dropped",
            Value::Int(scrub.snapshots_dropped as i64),
        ),
        ("quarantined", Value::Int(scrub.quarantined as i64)),
        ("tmp_cleaned", Value::Int(scrub.tmp_cleaned as i64)),
        ("trace_level", Value::Str(level_name().to_string())),
        (
            "trace_events",
            Value::Int(inner.ring.lock().unwrap().next_seq.saturating_sub(1) as i64),
        ),
        (
            "wire_io_us",
            Value::Int(
                (inner.wire_trace.lock().unwrap().phase_ns[chef_trace::Phase::WireIo as usize]
                    / 1_000) as i64,
            ),
        ),
    ];
    if let Some(plan) = inner.corpus.faults.plan() {
        fields.push(("fault_seed", Value::Int(plan.seed() as i64)));
        fields.push(("faults_injected", Value::Int(plan.stats().total() as i64)));
    }
    ok(fields)
}

/// The current global trace level as its CLI spelling.
fn level_name() -> &'static str {
    match chef_trace::level() {
        chef_trace::TraceLevel::Off => "off",
        chef_trace::TraceLevel::Counters => "counters",
        chef_trace::TraceLevel::Spans => "spans",
    }
}

/// Renders a [`chef_trace::TraceStats`] as protocol JSON. Integer
/// microseconds and counts only — the protocol's JSON carries no floats —
/// plus the human one-line summary so thin clients need no math.
fn trace_value(t: &chef_trace::TraceStats) -> Value {
    let mut phases = Vec::new();
    for phase in chef_trace::Phase::ALL {
        let i = phase as usize;
        if t.phase_count[i] == 0 && t.phase_ns[i] == 0 {
            continue;
        }
        phases.push(Value::obj(vec![
            ("phase", Value::Str(phase.name().to_string())),
            ("count", Value::Int(t.phase_count[i] as i64)),
            ("us", Value::Int((t.phase_ns[i] / 1_000) as i64)),
            ("permille", Value::Int(t.phase_permille(phase) as i64)),
        ]));
    }
    let (ff_attempts, ff_retired) = t.ff_sites.values().fold((0u64, 0u64), |(a, s), site| {
        (a + site.attempts, s + site.steps)
    });
    Value::obj(vec![
        ("busy_us", Value::Int((t.busy_ns() / 1_000) as i64)),
        ("phases", Value::Arr(phases)),
        ("ff_attempts", Value::Int(ff_attempts as i64)),
        ("ff_retired", Value::Int(ff_retired as i64)),
        ("summary", Value::Str(t.summary())),
    ])
}

/// The `trace` command: recent daemon events after a client cursor, plus
/// per-session and daemon-wide phase breakdowns. This is the wire surface
/// `chef-cli top` and `chef-cli trace` render.
fn cmd_trace(inner: &Arc<Inner>, req: &Value) -> Value {
    let after = req.get("after").and_then(Value::as_u64).unwrap_or(0);
    let (events, next) = inner.ring.lock().unwrap().since(after);
    let mut sessions = Vec::new();
    {
        let map = inner.sessions.lock().unwrap();
        let mut ids: Vec<&String> = map.keys().collect();
        ids.sort();
        for id in ids {
            let sess = &map[id];
            let trace = sess.trace.lock().unwrap();
            sessions.push(Value::obj(vec![
                ("session", Value::Str(sess.id.clone())),
                ("target", Value::Str(sess.target.clone())),
                ("state", Value::Str(sess.state.lock().unwrap().clone())),
                (
                    "sched_slices",
                    Value::Int(sess.sched_slices.load(Ordering::Relaxed) as i64),
                ),
                (
                    "wait_ms",
                    Value::Int(sess.wait_ms.load(Ordering::Relaxed) as i64),
                ),
                ("trace", trace_value(&trace)),
            ]));
        }
    }
    let daemon = trace_value(&inner.wire_trace.lock().unwrap());
    ok(vec![
        ("level", Value::Str(level_name().to_string())),
        ("events", Value::Arr(events)),
        ("next", Value::Int(next as i64)),
        ("sessions", Value::Arr(sessions)),
        ("daemon", daemon),
    ])
}

fn cmd_submit(inner: &Arc<Inner>, req: &Value) -> Value {
    // Idempotent submit: a client-supplied token maps a retried request
    // (e.g. after a connection fault ate the first reply) back onto the
    // session the first attempt already admitted.
    let token = req.get("token").and_then(Value::as_str).map(str::to_owned);
    if let Some(tok) = &token {
        if let Some(id) = inner.tokens.lock().unwrap().get(tok).cloned() {
            let req = Value::obj(vec![("session", Value::Str(id.clone()))]);
            let target = session_of(inner, &req)
                .map(|s| s.target.clone())
                .unwrap_or_default();
            return ok(vec![
                ("session", Value::Str(id)),
                ("target", Value::Str(target)),
                ("resubmit", Value::Bool(true)),
            ]);
        }
    }
    let spec = match JobSpec::from_value(req) {
        Ok(s) => s,
        Err(e) => return err(e),
    };
    // Reject uncompilable sources up front, so the client hears about it
    // synchronously instead of polling a failed session.
    if let Err(e) = spec.build() {
        return err(e);
    }
    // Admission control: reserve a scheduler slot before any disk state
    // exists, so a rejected submit leaves no session behind.
    if let Err(retry_after_ms) = inner.sched.reserve() {
        inner.trace_event(
            "admission_reject",
            "-",
            format!("submit retry_after_ms={retry_after_ms}"),
        );
        return busy(retry_after_ms);
    }
    let id = match inner.corpus.next_session_id() {
        Ok(id) => id,
        Err(e) => {
            inner.sched.release();
            return err(format!("session allocation: {e}"));
        }
    };
    if let Err(e) = inner.corpus.save_spec(&id, &spec.to_value().to_json()) {
        inner.sched.release();
        return err(format!("spec persistence: {e}"));
    }
    let target = spec.target_key();
    let sess = Arc::new(SessionState::new(
        id.clone(),
        spec,
        target.clone(),
        "running".to_string(),
    ));
    let _ = inner.corpus.save_state(&id, "running");
    if let Some(tok) = &token {
        // Persist before acknowledging: if the reply is lost and the
        // daemon restarts, the retried submit must still find the token.
        let _ = inner.corpus.save_token(&id, tok);
        inner.tokens.lock().unwrap().insert(tok.clone(), id.clone());
    }
    inner
        .sessions
        .lock()
        .unwrap()
        .insert(id.clone(), Arc::clone(&sess));
    inner.sched.enqueue(sess);
    ok(vec![
        ("session", Value::Str(id)),
        ("target", Value::Str(target)),
    ])
}

fn session_of(inner: &Arc<Inner>, req: &Value) -> Result<Arc<SessionState>, Value> {
    let id = req
        .get("session")
        .and_then(Value::as_str)
        .ok_or_else(|| err("request missing 'session'"))?;
    if let Some(sess) = inner.sessions.lock().unwrap().get(id) {
        return Ok(Arc::clone(sess));
    }
    // Unknown in memory: maybe a session from before a daemon restart.
    let spec_json = match inner.corpus.load_spec(id) {
        Ok(Some(s)) => s,
        Ok(None) => return Err(err(format!("unknown session '{id}'"))),
        Err(e) => return Err(err(format!("session load: {e}"))),
    };
    let spec = json::parse(&spec_json)
        .map_err(|e| err(format!("stored spec corrupt: {e}")))
        .and_then(|v| JobSpec::from_value(&v).map_err(err))?;
    let state = inner
        .corpus
        .load_state(id)
        .ok()
        .flatten()
        .unwrap_or_else(|| "paused".to_string());
    let target = spec.target_key();
    let sess = Arc::new(SessionState::new(id.to_string(), spec, target, state));
    // Fair-share accounting survives restarts: rehydrate the scheduling
    // counters persisted alongside the checkpoint.
    if let Ok(Some(stats)) = inner.corpus.load_sched(id) {
        sess.sched_slices.store(stats.slices, Ordering::Relaxed);
        sess.preemptions.store(stats.preemptions, Ordering::Relaxed);
        sess.wait_ms.store(stats.wait_ms, Ordering::Relaxed);
        sess.spent_ll.store(stats.cpu_ll, Ordering::Relaxed);
    }
    // Phase attribution likewise: a rehydrated session reports lifetime
    // percentages, not since-restart ones.
    if let Ok(Some(trace)) = inner.corpus.load_trace(id) {
        *sess.trace.lock().unwrap() = trace;
    }
    inner
        .sessions
        .lock()
        .unwrap()
        .insert(id.to_string(), Arc::clone(&sess));
    Ok(sess)
}

fn cmd_status(inner: &Arc<Inner>, req: &Value) -> Value {
    match session_of(inner, req) {
        Ok(sess) => match sess.status_value(inner) {
            Value::Obj(fields) => ok(fields
                .iter()
                .map(|(k, v)| (k.as_str(), v.clone()))
                .collect()),
            _ => err("internal status shape"),
        },
        Err(e) => e,
    }
}

fn cmd_list(inner: &Arc<Inner>) -> Value {
    let ids = match inner.corpus.session_ids() {
        Ok(ids) => ids,
        Err(e) => return err(format!("session scan: {e}")),
    };
    let mut sessions = Vec::new();
    for id in ids {
        let req = Value::obj(vec![("session", Value::Str(id))]);
        if let Ok(sess) = session_of(inner, &req) {
            sessions.push(sess.status_value(inner));
        }
    }
    ok(vec![("sessions", Value::Arr(sessions))])
}

/// Default (and maximum) tests per `results` response. Clients page with
/// `{"after": <cursor>}`; the full-corpus-per-request behavior is gone so
/// large corpora are streamed in bounded batches.
pub const RESULTS_PAGE: usize = 512;

fn cmd_results(inner: &Arc<Inner>, req: &Value) -> Value {
    let sess = match session_of(inner, req) {
        Ok(s) => s,
        Err(e) => return e,
    };
    let after = req.get("after").and_then(Value::as_u64).unwrap_or(0) as usize;
    let limit = req
        .get("limit")
        .and_then(Value::as_u64)
        .map(|v| (v as usize).clamp(1, RESULTS_PAGE))
        .unwrap_or(RESULTS_PAGE);
    let (tests, total) = match inner.corpus.load_tests_page(&sess.target, after, limit) {
        Ok(page) => page,
        Err(e) => return err(format!("corpus read: {e}")),
    };
    let frames: Vec<Value> = tests
        .iter()
        .map(|t| Value::Str(proto::to_hex(&t.to_frame())))
        .collect();
    let next = after.saturating_add(frames.len()).min(total);
    ok(vec![
        ("target", Value::Str(sess.target.clone())),
        ("total", Value::Int(total as i64)),
        ("count", Value::Int(frames.len() as i64)),
        ("tests", Value::Arr(frames)),
        ("next", Value::Int(next as i64)),
        ("done", Value::Bool(next >= total)),
    ])
}

fn cmd_pause(inner: &Arc<Inner>, req: &Value) -> Value {
    match session_of(inner, req) {
        Ok(sess) => {
            sess.ctl.request_pause();
            ok(vec![(
                "state",
                Value::Str(sess.state.lock().unwrap().clone()),
            )])
        }
        Err(e) => e,
    }
}

fn cmd_resume(inner: &Arc<Inner>, req: &Value) -> Value {
    let sess = match session_of(inner, req) {
        Ok(s) => s,
        Err(e) => return e,
    };
    {
        let state = sess.state.lock().unwrap();
        match state.as_str() {
            "running" => return err(format!("session {} is already running", sess.id)),
            "done" => return err(format!("session {} already completed", sess.id)),
            _ => {}
        }
    }
    // Resume competes for admission like a fresh submit: a paused session
    // re-enters the pool only when there is room for it.
    if let Err(retry_after_ms) = inner.sched.reserve() {
        inner.trace_event(
            "admission_reject",
            &sess.id,
            format!("resume retry_after_ms={retry_after_ms}"),
        );
        return busy(retry_after_ms);
    }
    {
        let mut state = sess.state.lock().unwrap();
        // Re-check under the lock: a concurrent resume may have won.
        if state.as_str() == "running" {
            inner.sched.release();
            return err(format!("session {} is already running", sess.id));
        }
        *state = "running".to_string();
    }
    let _ = inner.corpus.save_state(&sess.id, "running");
    sess.ctl.clear_pause();
    // Drop any stale carry state so the first slice re-prepares from the
    // checkpoint (recomputing the snapshot-vs-full-replay resume split).
    *sess.prep.lock().unwrap() = None;
    inner.sched.enqueue(sess);
    ok(vec![])
}

/// Computes a session's between-slice carry state from its spec, corpus,
/// and checkpoint. `Ok(None)` means the checkpointed frontier is already
/// empty — the session is done without running a slice.
fn prepare_session(inner: &Inner, sess: &SessionState) -> Result<Option<Prepared>, SliceError> {
    let spec = &sess.spec;
    // A spec that no longer builds can never make progress: terminal.
    let prog = spec.build().map_err(SliceError::Fatal)?;
    let mut base = spec.chef_config();
    base.ff_mode = inner.config.ff_mode;

    // Corpus warm start: replay stored tests concretely; their HL-CFG
    // edges pre-populate every worker's coverage weights.
    let stored = inner
        .corpus
        .load_tests(&sess.target)
        .map_err(|e| SliceError::Io(format!("corpus read: {e}")))?;
    let seed_cfg_edges = replay_cfg_edges(&prog, &stored, base.per_path_fuel);
    sess.seeded_tests
        .store(stored.len() as u64, Ordering::Relaxed);

    // Adaptive fast-forward warm start: what earlier slices of this
    // session learned about profitable segment-start sites. Best-effort —
    // a missing or corrupt table just means a cold gate.
    let seed_ff_sites = inner
        .corpus
        .load_ffsites(&sess.id)
        .ok()
        .flatten()
        .unwrap_or_default();

    // Fresh session starts at the root; a resumed one at its checkpoint.
    let mut seeds = match inner
        .corpus
        .load_checkpoint(&sess.id)
        .map_err(|e| SliceError::Io(format!("checkpoint read: {e}")))?
    {
        None => vec![WorkSeed::root()],
        Some(frontier) if frontier.is_empty() => return Ok(None),
        Some(frontier) => frontier,
    };

    // Checkpointed seeds carry snapshot fingerprints; resolve them against
    // the target's stored fork-point snapshot so resume restores from
    // instruction ~N instead of replaying the prologue per seed. A
    // missing/corrupt snapshot.bin (or a fingerprint mismatch) leaves the
    // seed on the full-prefix-replay fallback — slower, never wrong.
    let stored_snapshot = inner
        .corpus
        .load_snapshot(&sess.target)
        .map_err(|e| SliceError::Io(format!("snapshot read: {e}")))?;
    let mut via_snapshot = 0u64;
    let mut via_full = 0u64;
    for seed in &mut seeds {
        let attached = stored_snapshot
            .as_ref()
            .is_some_and(|sn| seed.attach_snapshot(sn));
        if attached {
            via_snapshot += 1;
        } else if seed.depth() > 0 {
            via_full += 1;
        }
    }
    sess.resume_snapshot_seeds
        .store(via_snapshot, Ordering::Relaxed);
    sess.resume_full_seeds.store(via_full, Ordering::Relaxed);

    Ok(Some(Prepared {
        prog,
        base,
        seed_cfg_edges,
        seed_ff_sites,
        seeds,
        stored_snapshot,
        spent: 0,
    }))
}

/// Runs one checkpoint slice of a session on the calling pool worker:
/// (re)prepare if needed, run the fleet for one slice, persist tests,
/// coverage, checkpoint, and scheduling counters, and report the verdict
/// plus the low-level instructions to charge against the session's quota.
pub(crate) fn session_slice(
    inner: &Arc<Inner>,
    sess: &Arc<SessionState>,
) -> Result<(SliceVerdict, u64), SliceError> {
    // The carry-state lock is held for the whole slice; that is fine —
    // a session is out of the run queue while a worker executes it, so
    // the only contention would be a bug.
    let mut prep_guard = sess.prep.lock().unwrap();
    if prep_guard.is_none() {
        match prepare_session(inner, sess)? {
            Some(p) => *prep_guard = Some(p),
            None => return Ok((SliceVerdict::Done, 0)),
        }
    }
    let prep = prep_guard.as_mut().expect("prepared above");

    let budget = prep.base.max_ll_instructions;
    let slice = inner
        .config
        .checkpoint_interval_ll
        .min(budget.saturating_sub(prep.spent))
        .max(1);
    let fleet_cfg = FleetConfig {
        jobs: sess.spec.jobs,
        base: prep.base.clone(),
        seed_cfg_edges: prep.seed_cfg_edges.clone(),
        seed_ff_sites: prep.seed_ff_sites.clone(),
        ..FleetConfig::default()
    };
    sess.sched_slices.fetch_add(1, Ordering::Relaxed);
    let slice_started = std::time::Instant::now();
    let seeds = std::mem::take(&mut prep.seeds);
    let outcome = run_fleet_slice(&prep.prog, fleet_cfg, seeds, Some(&sess.ctl), slice);
    // Sample the slice's generation rate from the fleet gauges before
    // zeroing them: this is the live tests/sec figure `status` serves.
    let slice_tests = sess.ctl.tests_generated.load(Ordering::Relaxed) as f64;
    let slice_secs = slice_started.elapsed().as_secs_f64().max(1e-9);
    sess.tests_per_sec_milli.store(
        (slice_tests / slice_secs * 1000.0) as u64,
        Ordering::Relaxed,
    );
    // Zero the live gauges before folding the slice into the
    // completed counters, so a concurrent status read never
    // over-counts (it can momentarily under-count, which is harmless).
    sess.ctl.ll_instructions.store(0, Ordering::Relaxed);
    sess.ctl.tests_generated.store(0, Ordering::Relaxed);
    let ll = outcome.report.exec_stats.ll_instructions;
    prep.spent += ll;
    sess.spent_ll.fetch_add(ll, Ordering::Relaxed);

    {
        // Everything from here to the checkpoint write is corpus I/O; the
        // span covers the whole persistence region so `trace` shows how
        // much of a slice the disk costs. RAII keeps the attribution
        // correct across the early `?` returns.
        let _io = chef_trace::span(chef_trace::Phase::CorpusIo);

        // First slice to capture the fork-point snapshot persists it for
        // the whole target (sessions and restarts alike).
        if prep.stored_snapshot.is_none() {
            if let Some(sn) = &outcome.snapshot {
                inner
                    .corpus
                    .save_snapshot(&sess.target, sn)
                    .map_err(|e| SliceError::Io(format!("snapshot write: {e}")))?;
                prep.stored_snapshot = Some(Arc::clone(sn));
            }
        }

        let added = inner
            .corpus
            .append_tests(&sess.target, &outcome.report.tests)
            .map_err(|e| SliceError::Io(format!("corpus append: {e}")))?;
        sess.new_tests.fetch_add(added as u64, Ordering::Relaxed);
        inner
            .corpus
            .merge_coverage(&sess.target, &outcome.report.covered_hlpcs)
            .map_err(|e| SliceError::Io(format!("coverage write: {e}")))?;
        inner
            .corpus
            .save_checkpoint(&sess.id, &outcome.frontier)
            .map_err(|e| SliceError::Io(format!("checkpoint write: {e}")))?;

        // The fleet's merged site table already absorbed this slice's
        // seed table, so it replaces (not merges with) the carry state.
        // Best-effort persistence: losing it only costs re-learning.
        if !outcome.report.ff_sites.is_empty() {
            prep.seed_ff_sites = outcome.report.ff_sites.clone();
            let _ = inner.corpus.save_ffsites(&sess.id, &prep.seed_ff_sites);
        }
    }

    let verdict = if outcome.paused {
        SliceVerdict::Paused
    } else if outcome.frontier.is_empty() {
        SliceVerdict::Done
    } else if prep.spent >= budget {
        // Budget exhausted with work remaining: resumable.
        SliceVerdict::Exhausted
    } else {
        prep.seeds = outcome.frontier;
        SliceVerdict::Continue
    };
    if matches!(verdict, SliceVerdict::Continue) {
        sess.preemptions.fetch_add(1, Ordering::Relaxed);
    } else {
        // Rest state: drop the carry state so a later resume re-prepares
        // from the checkpoint just written.
        *prep_guard = None;
    }
    // Fold this slice's phase attribution into the session total: the
    // fleet workers' spans arrive already merged in the report, and this
    // pool worker's own spans (corpus I/O above, queue wait recorded at
    // dispatch) are drained from its thread-local accumulator.
    let mut slice_trace = chef_trace::take_local();
    slice_trace.merge(&outcome.report.trace);
    let trace_snapshot = {
        let mut total = sess.trace.lock().unwrap();
        total.merge(&slice_trace);
        total.clone()
    };
    // Scheduling counters and phase attribution ride along with the
    // checkpoint (best-effort, like state writes).
    let _ = inner.corpus.save_sched(&sess.id, &sess.sched_stats());
    if !trace_snapshot.is_empty() {
        let _ = inner.corpus.save_trace(&sess.id, &trace_snapshot);
    }
    Ok((verdict, ll))
}

/// Degrades, then quarantines, the checkpoint seed that keeps blowing the
/// slice watchdog. Stage 1 strips the seed's snapshot fingerprint so the
/// next attempt runs the *full* prefix replay (a corrupt or pathological
/// snapshot restore is the most common wedge). Stage 2 — the seed timed
/// out even under full replay — removes it from the frontier entirely and
/// archives it to the session's `poisoned.bin`, so exploration continues
/// without it. Best-effort: any I/O trouble here just leaves the
/// checkpoint as-is (the watchdog will fire again and we retry).
pub(crate) fn poison_head_seed(inner: &Inner, sess: &SessionState) {
    let Ok(Some(mut frontier)) = inner.corpus.load_checkpoint(&sess.id) else {
        return;
    };
    if frontier.is_empty() {
        return;
    }
    if frontier[0].snapshot_fp.take().is_some() {
        // Stage 1: force the fallback path. The seed keeps its decision
        // prefix, so nothing is lost — only the fast restore.
        inner.trace_event(
            "poison",
            &sess.id,
            format!(
                "stage=strip_snapshot seed={:#018x}",
                seed_fingerprint(&frontier[0])
            ),
        );
        let _ = inner.corpus.save_checkpoint(&sess.id, &frontier);
        return;
    }
    // Stage 2: quarantine. The seed is archived, never silently deleted,
    // so an operator (or a fixed engine) can re-adopt it later.
    let seed = frontier.remove(0);
    if inner.corpus.quarantine_seed(&sess.id, &seed).is_ok() {
        sess.poisoned_seeds.fetch_add(1, Ordering::Relaxed);
        inner.poisoned_seeds.fetch_add(1, Ordering::Relaxed);
        inner.trace_event(
            "poison",
            &sess.id,
            format!("stage=quarantine seed={:#018x}", seed_fingerprint(&seed)),
        );
        let _ = inner.corpus.save_checkpoint(&sess.id, &frontier);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = ServeConfig::default();
        assert!(c.checkpoint_interval_ll > 0);
        assert!(!c.addr.is_empty());
        assert!(c.workers >= 1);
        assert!(c.max_sessions >= c.workers);
        assert!(c.max_connections >= 1);
        assert_eq!(c.corpus_budget_bytes, None);
    }
}
