//! Chaos-engineering numbers for chef-serve (not a paper figure — this
//! measures the fault-injection and recovery plane added around the
//! daemon; the paper's analogue is Chef's long-running service posture,
//! which assumes the corpus survives crashes).
//!
//! Two claims are measured and asserted:
//!
//! 1. **Scrub** — a deliberately mangled data directory (bit-flipped
//!    test frames, torn checkpoint tails, stray `.tmp` files, a
//!    spec-less zombie session) is repaired by the startup scrub without
//!    inventing data: the surviving test set is a subset of the clean
//!    run's, and the pass stays in the low milliseconds.
//! 2. **Client resilience** — with the deterministic `conn` fault
//!    profile active (dropped mid-frame replies, stalled reads, half
//!    closes), a retrying client still drives a submit to `done` with a
//!    byte-identical result set.
//!
//! Merges a `chaos` section into `BENCH_serve.json` at the workspace
//! root (throughput and multitenant benches own the other sections).

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use chef_bench::{banner, rule, upsert_json_section};
use chef_core::fault::{splitmix64, FaultPlan, FaultSpec};
use chef_serve::{Client, ClientConfig, Corpus, JobLang, JobSpec, ServeConfig, Server};

type InputSet = BTreeSet<Vec<(String, Vec<u8>)>>;

/// A forking target with enough breadth that the corpus holds a healthy
/// frame stream worth corrupting.
fn spec() -> JobSpec {
    let src = r#"
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
    return n
"#;
    let mut s = JobSpec::new(JobLang::Python, src, "parse").sym_str("msg", 4);
    s.budget = 50_000_000;
    s
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chef-chaos-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_daemon(dir: &Path) -> (Arc<Server>, String, JoinHandle<std::io::Result<()>>) {
    let server = Arc::new(
        Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            data_dir: dir.to_path_buf(),
            checkpoint_interval_ll: 20_000,
            workers: 1,
            ..Default::default()
        })
        .expect("bind daemon"),
    );
    let addr = server.local_addr().expect("addr").to_string();
    let run = Arc::clone(&server);
    let handle = std::thread::spawn(move || run.run());
    (server, addr, handle)
}

fn run_to_done(addr: &str, client: &Client) -> (String, InputSet) {
    let _ = addr;
    let id = client.submit(&spec()).expect("submit");
    let st = client
        .wait_settled(&id, Duration::from_secs(600))
        .expect("settle");
    assert_eq!(st.state, "done");
    let set = client
        .results(&id)
        .expect("results")
        .iter()
        .map(|t| t.canonical_key())
        .collect();
    (id, set)
}

/// Deterministically mangles a populated data directory: one flipped bit
/// per binary stream, a torn tail on every checkpoint, stray `.tmp`
/// files, and a session directory with no parseable spec.
fn corrupt(dir: &Path, seed: u64) -> u64 {
    let mut sites = 0u64;
    let mut stack = vec![dir.to_path_buf()];
    let mut files: Vec<PathBuf> = Vec::new();
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).expect("read_dir") {
            let p = entry.expect("entry").path();
            if p.is_dir() {
                stack.push(p);
            } else {
                files.push(p);
            }
        }
    }
    files.sort();
    for (i, p) in files.iter().enumerate() {
        let name = p.file_name().unwrap().to_string_lossy().into_owned();
        let mut bytes = std::fs::read(p).expect("read");
        if name == "tests.bin" && bytes.len() > 16 {
            // Flip one bit somewhere past the first frame header.
            let roll = splitmix64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let pos = 12 + (roll as usize % (bytes.len() - 12));
            bytes[pos] ^= 1 << (roll % 8) as u8;
            std::fs::write(p, &bytes).expect("write");
            sites += 1;
        } else if name == "checkpoint.bin" && bytes.len() > 8 {
            // Tear the tail mid-frame, as a crashed append would.
            bytes.truncate(bytes.len() - 3);
            std::fs::write(p, &bytes).expect("write");
            sites += 1;
        }
    }
    // Stray temp files from interrupted atomic replaces, planted where
    // the corpus actually writes them: inside target and session dirs.
    for base in ["corpus", "sessions"] {
        for entry in std::fs::read_dir(dir.join(base)).expect("read_dir") {
            let d = entry.expect("entry").path();
            if d.is_dir() {
                for i in 0..2 {
                    std::fs::write(d.join(format!("junk-{i}.tmp")), b"half-written").expect("tmp");
                    sites += 1;
                }
            }
        }
    }
    // A zombie session directory with no spec: scrub must quarantine it.
    let zombie = dir.join("sessions").join("zombie");
    std::fs::create_dir_all(&zombie).expect("zombie dir");
    std::fs::write(zombie.join("checkpoint.bin"), b"garbage").expect("zombie file");
    sites += 1;
    sites
}

fn main() {
    banner(
        "serve_chaos — scrub repair and client resilience under faults",
        "the chef-serve fault-injection plane (chef_core::fault)",
    );

    // ---- Claim 1: scrub repairs a mangled data dir without inventing data.
    let dir = tmpdir("scrub");
    let (_, addr, handle) = start_daemon(&dir);
    let client = Client::new(addr.clone());
    let (id, clean) = run_to_done(&addr, &client);
    client.shutdown().expect("shutdown");
    handle.join().unwrap().expect("daemon exit");

    let sites = corrupt(&dir, 0xC0FFEE);
    let corpus = Corpus::open(&dir).expect("open");
    let report = corpus.scrub().expect("scrub");
    let target = spec().target_key();
    let survivors: InputSet = corpus
        .load_tests(&target)
        .expect("load tests after scrub")
        .iter()
        .map(|t| t.canonical_key())
        .collect();
    assert!(
        survivors.is_subset(&clean),
        "scrub never invents test cases"
    );
    assert!(!survivors.is_empty(), "scrub keeps the intact frames");
    assert!(report.frames_repaired >= 1, "the flipped bit was caught");
    assert!(report.tmp_cleaned >= 4, "stray tmp files were swept");
    assert!(
        report.quarantined >= 1,
        "the zombie session was quarantined"
    );
    // A scrubbed directory restarts: the daemon binds and serves results.
    let (_, addr2, handle2) = start_daemon(&dir);
    let client2 = Client::new(addr2);
    let after_restart = client2.results(&id).expect("results after restart").len();
    client2.shutdown().expect("shutdown");
    handle2.join().unwrap().expect("daemon exit");
    let _ = std::fs::remove_dir_all(&dir);

    // ---- Claim 2: a retrying client completes against a faulty daemon.
    let dir = tmpdir("conn");
    let (server, addr, handle) = start_daemon(&dir);
    let plan = Arc::new(FaultPlan::new(7, FaultSpec::conn()));
    server.set_fault_plan(Some(Arc::clone(&plan)));
    let client = Client::with_config(
        addr.as_str(),
        ClientConfig {
            io_timeout: Duration::from_secs(2),
            retries: 12,
            backoff_ms: 10,
            ..ClientConfig::default()
        },
    );
    let faulty_start = Instant::now();
    let (_, faulty) = run_to_done(&addr, &client);
    let faulty_sec = faulty_start.elapsed().as_secs_f64();
    let stats = plan.stats();
    server.set_fault_plan(None);
    client.shutdown().expect("shutdown");
    handle.join().unwrap().expect("daemon exit");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(faulty, clean, "faulty-connection run is byte-identical");
    let injected = stats.total();
    assert!(injected >= 1, "the conn profile actually fired");

    println!("{:<34} {:>12} {:>14}", "measurement", "value", "detail");
    rule();
    println!("{:<34} {:>12} {:>14}", "corruption sites", sites, "");
    println!(
        "{:<34} {:>12} {:>14}",
        "scrub pass (ms)", report.scrub_ms, ""
    );
    println!(
        "{:<34} {:>12} {:>14}",
        "frames repaired", report.frames_repaired, report.bytes_truncated
    );
    println!(
        "{:<34} {:>12} {:>14}",
        "quarantined / tmp cleaned", report.quarantined, report.tmp_cleaned
    );
    println!(
        "{:<34} {:>12} {:>14}",
        "tests surviving scrub",
        survivors.len(),
        clean.len()
    );
    println!(
        "{:<34} {:>12} {:>14}",
        "results served after restart", after_restart, ""
    );
    println!(
        "{:<34} {:>12.2} {:>14}",
        "faulty-conn submit-to-done (s)", faulty_sec, injected
    );
    rule();

    let section = format!(
        "{{\n    \"corruption_sites\": {},\n    \"scrub_ms\": {},\n    \
         \"frames_repaired\": {},\n    \"bytes_truncated\": {},\n    \
         \"quarantined\": {},\n    \"tmp_cleaned\": {},\n    \
         \"tests_surviving\": {},\n    \"tests_clean\": {},\n    \
         \"conn_faults_injected\": {},\n    \
         \"faulty_conn_done_sec\": {:.2},\n    \
         \"faulty_matches_clean\": true\n  }}",
        sites,
        report.scrub_ms,
        report.frames_repaired,
        report.bytes_truncated,
        report.quarantined,
        report.tmp_cleaned,
        survivors.len(),
        clean.len(),
        injected,
        faulty_sec,
    );
    let json_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    let existing = std::fs::read_to_string(json_path).unwrap_or_default();
    match std::fs::write(json_path, upsert_json_section(&existing, "chaos", &section)) {
        Ok(()) => println!("\nwrote {json_path}"),
        Err(e) => println!("\ncould not write {json_path}: {e}"),
    }
}
