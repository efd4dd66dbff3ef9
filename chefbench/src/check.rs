//! Output checking: every delivered test is replayed on the concrete
//! reference VM, and every workload's canonical test set is compared with
//! a golden fingerprint.
//!
//! Workloads run to exhaustion, so the canonical set is a pure function of
//! the guest — independent of seed, scheduling and engine internals — and
//! the goldens survive any change that keeps the engine correct.

use std::collections::BTreeSet;
use std::path::PathBuf;

use chef_core::{hl_path_signature, replay, TestCase, TestStatus};
use chef_lir::{ConcreteStatus, GuestEvent, Program};

/// Fuel for one concrete replay: far above any exhaustive path of the
/// vendored guests, so `OutOfFuel` means a genuinely diverging replay.
const REPLAY_FUEL: u64 = 50_000_000;

/// Whether `test` replays on the concrete reference VM to the outcome it
/// claims: same termination status, same exception, same high-level path
/// (by [`hl_path_signature`] of the replay's `log_pc` sequence), and no
/// violated `assume`.
pub fn replays_as_claimed(prog: &Program, test: &TestCase) -> bool {
    let out = replay(prog, &test.inputs, REPLAY_FUEL);
    let status_ok = match (&test.status, &out.status) {
        (TestStatus::Ok(c), ConcreteStatus::Halted(rc))
        | (TestStatus::Ok(c), ConcreteStatus::EndedSymbolic(rc)) => c == rc,
        (TestStatus::Ok(0), ConcreteStatus::Returned) => true,
        (TestStatus::Crash(c), ConcreteStatus::Aborted(rc)) => c == rc,
        (TestStatus::Hang, ConcreteStatus::OutOfFuel) => true,
        _ => false,
    };
    let exception = out.events.iter().rev().find_map(|e| match e {
        GuestEvent::Exception(name) => Some(name.as_str()),
        _ => None,
    });
    let pcs: Vec<u64> = out.hl_trace.iter().map(|&(pc, _)| pc).collect();
    status_ok
        && !out.assume_violated
        && exception == test.exception.as_deref()
        && hl_path_signature(&pcs) == test.hl_sig
}

/// What a golden file records about a workload's canonical test set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SetSummary {
    /// Tests delivered.
    pub tests: u64,
    /// Distinct high-level paths among them (per job).
    pub hl_paths: u64,
    /// FNV-1a over the sorted `(job, canonical_key, status, exception,
    /// hl_sig)` tuples.
    pub fingerprint: u64,
}

struct Fnv(u64);

impl Fnv {
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Field separator, so ("ab","c") and ("a","bc") differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn status_code(status: &TestStatus) -> (u8, u64) {
    match status {
        TestStatus::Ok(c) => (0, *c),
        TestStatus::Crash(c) => (1, *c),
        TestStatus::Hang => (2, 0),
    }
}

/// Summarizes the tests delivered by a rep: `jobs[i]` holds job (or
/// session) `i`'s tests in any order. Order-independent by construction.
pub fn summarize(jobs: &[&[TestCase]]) -> SetSummary {
    type Row = (u64, Vec<(String, Vec<u8>)>, (u8, u64), Option<String>, u64);
    let mut rows: Vec<Row> = Vec::new();
    let mut paths: BTreeSet<(u64, u64)> = BTreeSet::new();
    for (j, tests) in jobs.iter().enumerate() {
        for t in *tests {
            paths.insert((j as u64, t.hl_sig));
            rows.push((
                j as u64,
                t.canonical_key(),
                status_code(&t.status),
                t.exception.clone(),
                t.hl_sig,
            ));
        }
    }
    rows.sort();
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for (job, key, (kind, code), exception, sig) in &rows {
        h.eat(&job.to_le_bytes());
        for (name, bytes) in key {
            h.eat(name.as_bytes());
            h.eat(bytes);
        }
        h.eat(&[*kind]);
        h.eat(&code.to_le_bytes());
        h.eat(exception.as_deref().unwrap_or("").as_bytes());
        h.eat(&sig.to_le_bytes());
    }
    SetSummary {
        tests: rows.len() as u64,
        hl_paths: paths.len() as u64,
        fingerprint: h.0,
    }
}

/// The benchmark's own directory (`chefbench/`), where guests, goldens and
/// the `out/` scratch directory live. Resolved at build time: the binary
/// is always built inside the checkout it measures.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn golden_path(workload: &str, smoke: bool) -> PathBuf {
    let file = if smoke {
        format!("{workload}.smoke.txt")
    } else {
        format!("{workload}.txt")
    };
    bench_dir().join("golden").join(file)
}

/// Renders a golden file.
pub fn golden_text(seed: u64, s: &SetSummary) -> String {
    format!(
        "seed {seed}\ntests {}\nhl_paths {}\nfnv {:016x}\n",
        s.tests, s.hl_paths, s.fingerprint
    )
}

/// Parses a golden file into its seed and summary.
pub fn parse_golden(text: &str) -> Option<(u64, SetSummary)> {
    let mut seed = None;
    let mut tests = None;
    let mut hl_paths = None;
    let mut fnv = None;
    for line in text.lines() {
        let (key, value) = line.split_once(' ')?;
        match key {
            "seed" => seed = value.parse().ok(),
            "tests" => tests = value.parse().ok(),
            "hl_paths" => hl_paths = value.parse().ok(),
            "fnv" => fnv = u64::from_str_radix(value, 16).ok(),
            _ => return None,
        }
    }
    Some((
        seed?,
        SetSummary {
            tests: tests?,
            hl_paths: hl_paths?,
            fingerprint: fnv?,
        },
    ))
}

/// Reads the golden for `workload`; `None` if it is missing or malformed
/// (both count as a failed check — only `bless` may create goldens).
pub fn load_golden(workload: &str, smoke: bool) -> Option<(u64, SetSummary)> {
    parse_golden(&std::fs::read_to_string(golden_path(workload, smoke)).ok()?)
}

/// Writes the golden for `workload` (the `bless` subcommand).
pub fn store_golden(workload: &str, smoke: bool, seed: u64, s: &SetSummary) -> std::io::Result<()> {
    let path = golden_path(workload, smoke);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, golden_text(seed, s))
}
