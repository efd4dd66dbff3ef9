//! chef-chaos: the fault-injection acceptance suite.
//!
//! Every test here drives the stack under a *deterministic* fault plan
//! (`chef_core::fault`): the same seed replays the same schedule of torn
//! writes, ENOSPC, lost syncs, bit flips, and connection faults, so a
//! failure reproduces with its seed alone.
//!
//! The core property, checked seed by seed: **crash + scrub + resume
//! converges to exactly the canonical test set of an uninterrupted run**
//! for every fault the durability model calls recoverable (torn/short
//! writes, ENOSPC, lost fsync, dropped connections). Bit flips are
//! *detected* (wire v3 CRCs) rather than rolled back, so their guarantee
//! is weaker — a subset, never an invention — and asserted separately.
//!
//! Each test arms only its own corpus or daemon, so the tests run in
//! parallel with each other and with everything else in the process.

use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use chef_core::fault::{FaultPlan, FaultSpec};
use chef_core::{Chef, TestCase, WorkSeed};
use chef_fleet::{run_fleet_with, FleetConfig};
use chef_serve::proto::{read_message, write_message};
use chef_serve::{
    json::Value, Client, ClientConfig, Corpus, JobLang, JobSpec, ServeConfig, Server,
};

type InputSet = BTreeSet<Vec<(String, Vec<u8>)>>;

/// Chaos seeds the property tests sweep. Eight seeds is the CI floor; the
/// schedule each one induces is fixed forever by the splitmix64 plan.
const CHAOS_SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 0xC0FFEE];

const TARGET_SRC: &str = r#"
def parse(msg):
    n = 0
    i = 0
    while i < 4:
        if msg[i] == "@":
            n = n + 1
        i = i + 1
    kind = msg[0]
    if kind == "A":
        if msg[1] == "1":
            return 7
        return 3
    if kind == "B":
        return 5
    raise UnknownKindError
"#;

fn spec() -> JobSpec {
    let mut s = JobSpec::new(JobLang::Python, TARGET_SRC, "parse").sym_str("msg", 4);
    s.budget = 50_000_000;
    s
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chef-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

type Daemon = (Arc<Server>, String, JoinHandle<std::io::Result<()>>);

/// Binds an in-process daemon on a loopback port over `dir` and runs it on
/// its own thread; the returned server arms and disarms its fault plan.
fn start_daemon(dir: &Path, config: ServeConfig) -> Daemon {
    let server = Arc::new(
        Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            data_dir: dir.to_path_buf(),
            ..config
        })
        .unwrap(),
    );
    let addr = server.local_addr().unwrap().to_string();
    let run = Arc::clone(&server);
    (server, addr, std::thread::spawn(move || run.run()))
}

fn uninterrupted_set(spec: &JobSpec) -> InputSet {
    let prog = spec.build().unwrap();
    let report = Chef::new(&prog, spec.chef_config()).run();
    report.tests.iter().map(|t| t.canonical_key()).collect()
}

/// The library-level chaos driver: explore in small slices where *every*
/// slice boundary is a kill point — the in-memory engine is dropped, the
/// next "process" scrubs the disk (faults cleared, like a clean restart of
/// a crashed daemon) and resumes from whatever the checkpoint says. All
/// persistence runs under the fault plan; a failed write counts as a crash
/// before the checkpoint advanced, so the restart re-executes the slice
/// and the corpus's dedup/idempotence absorbs the replay.
///
/// Returns the converged test set, the crash count, and the faults the
/// plan actually injected.
fn chaos_run(seed: u64, spec: &JobSpec, faults: FaultSpec, dir: &Path) -> (InputSet, u64, u64) {
    let plan = Arc::new(FaultPlan::new(seed, faults));
    let corpus = Corpus::open(dir).unwrap();
    // Persist the spec like a real submit would: scrub quarantines any
    // session directory whose spec.json is missing or unparseable, so a
    // spec-less session would be swept away on the first restart.
    corpus.save_spec("s1", &spec.to_value().to_json()).unwrap();
    let target = spec.target_key();
    let prog = spec.build().unwrap();
    let mut crashes = 0u64;
    let mut lives = 0u64;
    loop {
        // Restart: the faulty "process" is dead; scrub runs clean.
        corpus.scrub().unwrap();
        let mut seeds = match corpus.load_checkpoint("s1").unwrap() {
            None => vec![WorkSeed::root()],
            Some(f) if f.is_empty() => break,
            Some(f) => f,
        };
        let stored = corpus.load_snapshot(&target).unwrap();
        for s in &mut seeds {
            if let Some(sn) = &stored {
                s.attach_snapshot(sn);
            }
        }
        let mut cfg = spec.chef_config();
        cfg.max_ll_instructions = 12_000;
        let outcome = run_fleet_with(
            &prog,
            FleetConfig {
                jobs: 1,
                base: cfg,
                ..FleetConfig::default()
            },
            seeds,
            None,
        );
        // Persist under injected faults. Order matters like the daemon's:
        // tests append before the checkpoint advances, so a crash between
        // the two re-executes work instead of losing it.
        corpus.set_fault_plan(Some(Arc::clone(&plan)));
        let persisted = (|| -> std::io::Result<()> {
            if stored.is_none() {
                if let Some(sn) = &outcome.snapshot {
                    corpus.save_snapshot(&target, sn)?;
                }
            }
            corpus.append_tests(&target, &outcome.report.tests)?;
            corpus.save_checkpoint("s1", &outcome.frontier)?;
            Ok(())
        })();
        corpus.set_fault_plan(None);
        if persisted.is_err() {
            crashes += 1;
        }
        lives += 1;
        assert!(
            lives < 2_000,
            "chaos run must converge (seed {seed}, {crashes} crashes)"
        );
    }
    let got = corpus
        .load_tests(&target)
        .unwrap()
        .iter()
        .map(|t| t.canonical_key())
        .collect();
    (got, crashes, plan.stats().total())
}

/// The headline recovery property, for every chaos seed: under torn
/// writes, ENOSPC, and lost fsyncs, crash/scrub/resume reaches a corpus
/// *byte-identical in canonical content* to the uninterrupted run.
#[test]
fn torn_and_enospc_chaos_recovers_byte_identical_for_every_seed() {
    let spec = spec();
    let want = uninterrupted_set(&spec);
    assert!(want.len() >= 4, "target has real breadth");

    let mut total_crashes = 0u64;
    let mut total_faults = 0u64;
    for seed in CHAOS_SEEDS {
        let dir = tmpdir(&format!("mixed-{seed}"));
        let faults = FaultSpec {
            torn_write: 140,
            enospc: 80,
            lost_sync: 60,
            ..FaultSpec::default()
        };
        let (got, crashes, injected) = chaos_run(seed, &spec, faults, &dir);
        assert_eq!(
            got, want,
            "seed {seed}: recovery must reach the uninterrupted test set"
        );
        total_crashes += crashes;
        total_faults += injected;
        let _ = std::fs::remove_dir_all(&dir);
    }
    // The property is vacuous if the plan never actually fired.
    assert!(
        total_faults > 0 && total_crashes > 0,
        "the schedule injected real faults ({total_faults}) and crashes ({total_crashes})"
    );
}

/// Bit flips are silent media corruption: the write *reports success* and
/// only the wire v3 CRCs catch it at scrub time. The guarantee is
/// therefore detection, not rollback — the converged corpus is a subset
/// of the uninterrupted set, and never contains an invented test.
#[test]
fn bit_flip_corruption_is_detected_never_invented() {
    let spec = spec();
    let want = uninterrupted_set(&spec);

    let mut total_faults = 0u64;
    for seed in CHAOS_SEEDS {
        let dir = tmpdir(&format!("flip-{seed}"));
        let faults = FaultSpec {
            bit_flip: 250,
            ..FaultSpec::default()
        };
        let (got, _, injected) = chaos_run(seed, &spec, faults, &dir);
        assert!(
            got.is_subset(&want),
            "seed {seed}: CRC-detected corruption may lose tests but never invents them"
        );
        total_faults += injected;
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(total_faults > 0, "flips were actually injected");
}

/// Connection chaos against a live daemon: replies die mid-frame, the
/// daemon goes quiet, sockets half-close — and the retrying client still
/// completes a full submit → settle → results exchange. The idempotency
/// token keeps retried submits from double-admitting.
#[test]
fn daemon_survives_connection_faults_with_retrying_client() {
    let spec = spec();
    let want = uninterrupted_set(&spec);
    let dir = tmpdir("conn");

    let config = ServeConfig {
        checkpoint_interval_ll: 15_000,
        ..Default::default()
    };
    let (server, addr, handle) = start_daemon(&dir, config);

    // Faults go in only after a clean bind (a real deployment restarts the
    // daemon without its fault flags; scrub must not race injection).
    let plan = Arc::new(FaultPlan::new(7, FaultSpec::conn()));
    server.set_fault_plan(Some(Arc::clone(&plan)));

    let client = Client::with_config(
        addr.as_str(),
        ClientConfig {
            io_timeout: Duration::from_secs(2),
            retries: 10,
            backoff_ms: 10,
            ..ClientConfig::default()
        },
    );
    let session = client.submit(&spec).unwrap();
    let settled = client
        .wait_settled(&session, Duration::from_secs(120))
        .unwrap();
    assert_eq!(settled.state, "done");
    let got: InputSet = client
        .results(&session)
        .unwrap()
        .iter()
        .map(|t| t.canonical_key())
        .collect();
    assert_eq!(got, want, "connection faults never corrupt results");
    assert_eq!(
        client.list().unwrap().len(),
        1,
        "retried submits stayed idempotent: exactly one session admitted"
    );
    assert!(
        plan.stats().total() > 0,
        "the connection fault plan actually fired"
    );

    server.set_fault_plan(None);
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// End-to-end ENOSPC: the disk "fills" mid-session, the session pauses
/// (not fails) with its last checkpoint intact, the daemon's stats count
/// the I/O pause — and once space returns, resume completes to the exact
/// uninterrupted test set.
#[test]
fn enospc_pauses_session_then_resume_completes() {
    let spec = spec();
    let want = uninterrupted_set(&spec);
    let dir = tmpdir("enospc");

    let config = ServeConfig {
        checkpoint_interval_ll: 8_000,
        ..Default::default()
    };
    let (server, addr, handle) = start_daemon(&dir, config);
    let client = Client::new(addr.as_str());

    let session = client.submit(&spec).unwrap();
    // Now the disk fills: every write fails until the fault clears.
    let full = FaultSpec {
        enospc: 1000,
        ..FaultSpec::default()
    };
    server.set_fault_plan(Some(Arc::new(FaultPlan::new(11, full))));
    let settled = client
        .wait_settled(&session, Duration::from_secs(120))
        .unwrap();
    server.set_fault_plan(None);

    if settled.state == "paused" {
        // The expected path: the slice's write failed and the worker
        // paused (not killed) the session.
        let stats = client.stats().unwrap();
        assert!(
            stats.io_pauses >= 1,
            "the pause was counted as an I/O pause"
        );
        client.resume(&session).unwrap();
        let finished = client
            .wait_settled(&session, Duration::from_secs(120))
            .unwrap();
        assert_eq!(
            finished.state, "done",
            "session completes once space returns"
        );
    } else {
        // Scheduling race: the session finished before the fault landed.
        assert_eq!(settled.state, "done");
    }
    let got: InputSet = client
        .results(&session)
        .unwrap()
        .iter()
        .map(|t| t.canonical_key())
        .collect();
    assert_eq!(got, want, "ENOSPC recovery loses nothing");

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The slice watchdog: a deadline far below the slice's real runtime gets
/// the slice pause-aborted at its next safe point, the abort is counted,
/// and the session keeps making progress instead of wedging its worker.
#[test]
fn watchdog_aborts_overrunning_slices_and_session_survives() {
    let spec = spec();
    let dir = tmpdir("watchdog");

    let config = ServeConfig {
        // One enormous slice whose wall-clock dwarfs the 10ms deadline:
        // without the watchdog this runs to completion uninterrupted.
        checkpoint_interval_ll: u64::MAX / 2,
        slice_timeout_ms: 10,
        workers: 1,
        ..Default::default()
    };
    let (_, addr, handle) = start_daemon(&dir, config);
    let client = Client::new(addr.as_str());

    let session = client.submit(&spec).unwrap();
    // Wait until the watchdog has demonstrably fired (or the tiny target
    // settles first — it keeps being re-queued, so aborts accumulate).
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut aborts = 0u64;
    while Instant::now() < deadline {
        let st = client.status(&session).unwrap();
        aborts = st.watchdog_aborts;
        if aborts >= 1 || st.state == "done" {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let st = client.status(&session).unwrap();
    assert!(
        aborts >= 1 || st.state == "done",
        "watchdog fired or the session outran it (state {})",
        st.state
    );
    // The watchdog may fire again between the two reads; the daemon-wide
    // counter only ever runs ahead of the snapshot we took.
    let stats = client.stats().unwrap();
    assert!(
        stats.watchdog_aborts >= aborts,
        "daemon-wide counter agrees"
    );

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The submit idempotency token, exercised at the raw protocol level and
/// across a daemon restart: the same token maps to the same session, with
/// the retry flagged, even after the daemon reloads its token map from
/// disk.
#[test]
fn submit_token_is_idempotent_across_daemon_restarts() {
    let spec = spec();
    let dir = tmpdir("token");

    let submit_raw = |addr: &str, token: &str| -> (String, bool) {
        let mut req = match spec.to_value() {
            Value::Obj(pairs) => pairs,
            _ => unreachable!(),
        };
        req.insert(0, ("cmd".into(), Value::Str("submit".into())));
        req.push(("token".into(), Value::Str(token.into())));
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        write_message(&mut stream, &Value::Obj(req)).unwrap();
        let resp = read_message(&mut stream).unwrap().unwrap();
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
        (
            resp.get("session").and_then(Value::as_str).unwrap().into(),
            resp.get("resubmit").and_then(Value::as_bool) == Some(true),
        )
    };

    let (_, addr, handle) = start_daemon(&dir, ServeConfig::default());

    let (first, re1) = submit_raw(&addr, "tok-chaos-1");
    assert!(!re1, "first submit admits fresh");
    let (second, re2) = submit_raw(&addr, "tok-chaos-1");
    assert!(re2, "duplicate token is flagged as a resubmit");
    assert_eq!(first, second, "duplicate token maps to the same session");
    let client = Client::new(addr.as_str());
    client
        .wait_settled(&first, Duration::from_secs(120))
        .unwrap();
    assert_eq!(client.list().unwrap().len(), 1, "one admission total");
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();

    // Restart on the same data dir: the token map reloads from disk.
    let (_, addr, handle) = start_daemon(&dir, ServeConfig::default());
    let (third, re3) = submit_raw(&addr, "tok-chaos-1");
    assert!(re3, "token survives the restart");
    assert_eq!(third, first, "and still names the original session");
    Client::new(addr.as_str()).shutdown().unwrap();
    handle.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fault plans belong to the corpus or daemon they are armed on: an armed
/// neighbour in the same process injects nothing into an unarmed one.
#[test]
fn fault_plans_stay_with_the_corpus_and_daemon_that_arm_them() {
    let prog = spec().build().unwrap();
    let base = Chef::new(&prog, spec().chef_config()).run().tests.remove(0);
    let test = |i: u16| TestCase {
        inputs: HashMap::from([("msg".into(), i.to_le_bytes().to_vec())]),
        ..base.clone()
    };
    let dirs = ["own-a", "own-b", "own-plain", "own-armed"].map(tmpdir);
    let torn = FaultSpec {
        torn_write: 1000,
        ..FaultSpec::default()
    };
    let plan = Arc::new(FaultPlan::new(1, torn));
    let armed = Corpus::open(&dirs[0]).unwrap();
    let clean = Corpus::open(&dirs[1]).unwrap();
    armed.set_fault_plan(Some(Arc::clone(&plan)));
    let done = AtomicBool::new(false);
    let errors = std::thread::scope(|s| {
        s.spawn(|| loop {
            assert!(armed.append_tests("k", &[test(0)]).is_err());
            if done.load(Ordering::Relaxed) {
                break;
            }
        });
        let errors = (0..500)
            .filter(|&i| clean.append_tests("k", &[test(i)]).is_err())
            .count();
        done.store(true, Ordering::Relaxed);
        errors
    });
    assert_eq!(errors, 0, "the unarmed corpus saw injected faults");
    assert_eq!(clean.load_tests("k").unwrap().len(), 500);
    assert!(plan.stats().torn_writes > 0, "the armed corpus was torn");

    let (_, plain_addr, plain_handle) = start_daemon(&dirs[2], ServeConfig::default());
    let (server, armed_addr, armed_handle) = start_daemon(&dirs[3], ServeConfig::default());
    server.set_fault_plan(Some(Arc::new(FaultPlan::new(7, FaultSpec::conn()))));
    let retrying = ClientConfig {
        io_timeout: Duration::from_secs(2),
        retries: 10,
        backoff_ms: 10,
        ..ClientConfig::default()
    };
    let stats = |addr: &str| Client::with_config(addr, retrying.clone()).stats().unwrap();
    // Each daemon's `stats` reports its own plan, and only its own.
    assert_eq!(stats(&plain_addr).fault_seed, None);
    assert_eq!(stats(&armed_addr).fault_seed, Some(7));
    server.set_fault_plan(None);
    for (addr, handle) in [(plain_addr, plain_handle), (armed_addr, armed_handle)] {
        Client::new(addr.as_str()).shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }
    let _ = dirs.map(std::fs::remove_dir_all);
}
