//! The disk-backed corpus: durable artifacts of every exploration the
//! daemon has ever run.
//!
//! Layout under the daemon's data directory:
//!
//! ```text
//! data_dir/
//!   next_session            — persistent session-id counter
//!   corpus/<target_key>/
//!     tests.bin             — append-only TestCase frames, deduplicated
//!                             by canonical input bytes
//!     coverage.bin          — union of covered HLPCs (little-endian u64s)
//!     snapshot.bin          — the target's fork-point Snapshot frame
//!                             (written once; checkpointed seeds reference
//!                             it by fingerprint, so resume restores from
//!                             instruction ~N instead of replaying the
//!                             interpreter prologue per seed)
//!   sessions/<session_id>/
//!     spec.json             — the JobSpec, so the daemon can rebuild the
//!                             program after a restart
//!     checkpoint.bin        — the unexplored frontier as WorkSeed frames
//!     sched.bin             — the session's SchedStats frame, so
//!                             fair-share accounting survives restarts
//!     trace.bin             — the session's cumulative TraceStats frame
//!                             (phase time attribution; reporting-only)
//!     state                 — "running" | "paused" | "exhausted" |
//!                             "done" | "failed: <msg>"
//! ```
//!
//! All binary files use the versioned `chef_core::wire` framing; reads
//! tolerate a truncated final frame (the signature of a crash mid-append)
//! by keeping every complete frame before it. Checkpoint and state writes
//! go through a temp-file rename so a kill can't leave a half-written
//! checkpoint behind.
//!
//! Besides durability, the corpus owns its own *lifecycle*: per-target
//! byte budgets enforced at append time ([`Corpus::set_target_budget`]),
//! `tests.bin` compaction that rewrites a target's store dropping
//! crash-truncated tails and over-budget overflow
//! ([`Corpus::compact_tests`]), and snapshot garbage collection that
//! deletes `snapshot.bin` files no live checkpoint references by
//! fingerprint ([`Corpus::gc_snapshots`]).
//!
//! ## Crash consistency and the scrub pass
//!
//! Every file write funnels through two primitives — `append_with_faults`
//! (append-only streams) and `write_atomic` (whole-file replaces) — and
//! both consult this corpus's own fault plan ([`Corpus::set_fault_plan`]),
//! so torn writes, `ENOSPC`, lost fsyncs, and bit flips can be injected
//! deterministically into one daemon's files.
//! [`Corpus::scrub`] is the matching recovery pass, run at daemon startup
//! before any session resumes: it removes stray `.tmp` files, re-walks
//! every frame stream (CRC-validating since wire v3) and *resyncs* past
//! corrupt spans to the next frame magic instead of discarding everything
//! after the first bad byte, truncates `coverage.bin` to whole records,
//! drops undecodable snapshots (resume falls back to replay), and moves
//! sessions whose spec can no longer be parsed into `quarantine/` for
//! post-mortem rather than wedging startup.

use std::collections::HashSet;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use chef_core::fault::{DiskFault, FaultHook, FaultPlan};
use chef_core::wire::{Wire, MAGIC};
use chef_core::{SchedStats, Snapshot, TestCase, WorkSeed};

use crate::job::JobSpec;

/// Handle on a daemon data directory.
///
/// One `Corpus` instance (the daemon's) must own a data directory at a
/// time; *within* the process it is safe to share across threads — the
/// read-modify-write operations (id allocation, test dedup, coverage
/// union) serialize on an internal lock.
#[derive(Debug)]
pub struct Corpus {
    root: PathBuf,
    /// Serializes read-modify-write file operations: concurrent sessions
    /// can target the same corpus entry, and dedup/union semantics only
    /// hold if load→write is atomic with respect to other writers.
    write_lock: std::sync::Mutex<()>,
    /// Per-target `tests.bin` byte budget; `None` = unbounded.
    max_target_bytes: Option<u64>,
    /// Tests refused at append time because their target was at budget.
    budget_rejected: AtomicU64,
    /// The fault plan this corpus's writes and its daemon's connections read.
    pub(crate) faults: FaultHook,
}

impl Corpus {
    /// Opens (creating if needed) a corpus rooted at `data_dir`.
    pub fn open(data_dir: impl Into<PathBuf>) -> io::Result<Self> {
        let root = data_dir.into();
        fs::create_dir_all(root.join("corpus"))?;
        fs::create_dir_all(root.join("sessions"))?;
        Ok(Corpus {
            root,
            write_lock: std::sync::Mutex::new(()),
            max_target_bytes: None,
            budget_rejected: AtomicU64::new(0),
            faults: FaultHook::default(),
        })
    }

    /// Arms (`Some`) or disarms (`None`) deterministic fault injection on
    /// this corpus's writes. Other corpora in the process are unaffected.
    pub fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        self.faults.set(plan);
    }

    /// Caps each target's `tests.bin` at `budget` bytes: appends that
    /// would grow a store past it are refused (frame-granular, counted by
    /// [`Corpus::budget_rejections`]), and [`Corpus::compact_tests`] trims
    /// stores that were already over. Must be set before the corpus is
    /// shared across threads.
    pub fn set_target_budget(&mut self, budget: Option<u64>) {
        self.max_target_bytes = budget;
    }

    /// How many tests append-time budget enforcement has refused since the
    /// corpus was opened.
    pub fn budget_rejections(&self) -> u64 {
        self.budget_rejected.load(Ordering::Relaxed)
    }

    /// The data directory this corpus lives in.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn target_dir(&self, target: &str) -> PathBuf {
        self.root.join("corpus").join(safe_component(target))
    }

    fn session_dir(&self, session: &str) -> PathBuf {
        self.root.join("sessions").join(safe_component(session))
    }

    /// Allocates the next session id (`s1`, `s2`, …), persisting the
    /// counter so ids stay unique across daemon restarts. Concurrent
    /// submits serialize on the corpus write lock.
    pub fn next_session_id(&self) -> io::Result<String> {
        let _guard = self.write_lock.lock().unwrap();
        let path = self.root.join("next_session");
        let n: u64 = fs::read_to_string(&path)
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(1);
        self.write_atomic(&path, (n + 1).to_string().as_bytes())?;
        Ok(format!("s{n}"))
    }

    /// All session ids present on disk, in numeric order.
    pub fn session_ids(&self) -> io::Result<Vec<String>> {
        let mut ids: Vec<String> = Vec::new();
        for entry in fs::read_dir(self.root.join("sessions"))? {
            let entry = entry?;
            if entry.file_type()?.is_dir() {
                ids.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        ids.sort_by_key(|id| id[1..].parse::<u64>().unwrap_or(u64::MAX));
        Ok(ids)
    }

    /// Loads the deduplicated test cases stored for a target (empty if the
    /// target was never explored). A truncated trailing frame — a crash
    /// mid-append — is dropped silently; everything before it survives.
    pub fn load_tests(&self, target: &str) -> io::Result<Vec<TestCase>> {
        let path = self.target_dir(target).join("tests.bin");
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        Ok(decode_prefix::<TestCase>(&bytes))
    }

    /// Appends tests to a target's corpus, deduplicating against what is
    /// already stored (and within the batch) by canonical input bytes.
    /// Returns how many were actually new. Two sessions on the same
    /// target can append concurrently; the write lock keeps the dedup
    /// invariant.
    pub fn append_tests(&self, target: &str, tests: &[TestCase]) -> io::Result<usize> {
        if tests.is_empty() {
            return Ok(0);
        }
        let _guard = self.write_lock.lock().unwrap();
        let dir = self.target_dir(target);
        fs::create_dir_all(&dir)?;
        let path = dir.join("tests.bin");
        let stored = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let (existing, valid_len) = decode_prefix_with_len::<TestCase>(&stored);
        // A crash (or injected torn write) can leave a partial frame at the
        // file's end; appending after it would orphan every later frame, so
        // trim the tail to the last complete frame before appending.
        if valid_len < stored.len() {
            let f = fs::OpenOptions::new().write(true).open(&path)?;
            f.set_len(valid_len as u64)?;
            f.sync_all()?;
        }
        let mut seen: HashSet<Vec<(String, Vec<u8>)>> =
            existing.iter().map(|t| t.canonical_key()).collect();
        // Budget enforcement is frame-granular: each new frame must fit in
        // the target's remaining byte budget or it is refused (the session
        // keeps exploring; only the archived copy is capped).
        let mut stored_bytes = valid_len as u64;
        let mut buf = Vec::new();
        let mut added = 0usize;
        for t in tests {
            if !seen.insert(t.canonical_key()) {
                continue;
            }
            let frame = t.to_frame();
            if let Some(budget) = self.max_target_bytes {
                if stored_bytes + frame.len() as u64 > budget {
                    self.budget_rejected.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            }
            stored_bytes += frame.len() as u64;
            buf.extend_from_slice(&frame);
            added += 1;
        }
        if added > 0 {
            self.append_with_faults(&path, &buf)?;
        }
        Ok(added)
    }

    /// One page of a target's stored tests plus the total count. Frames
    /// before the window are *skipped by their headers*, not decoded, so
    /// serving page k of a large corpus costs one header scan plus one
    /// page of decoding — not a full-corpus decode per request. The
    /// truncated-tail tolerance of [`Corpus::load_tests`] applies.
    pub fn load_tests_page(
        &self,
        target: &str,
        after: usize,
        limit: usize,
    ) -> io::Result<(Vec<TestCase>, usize)> {
        let path = self.target_dir(target).join("tests.bin");
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
            Err(e) => return Err(e),
        };
        let mut out = Vec::new();
        let mut total = 0usize;
        let mut rest = bytes.as_slice();
        while !rest.is_empty() {
            let Ok(span) = TestCase::frame_span(rest) else {
                break; // truncated/corrupt tail: keep what precedes it
            };
            if total >= after && out.len() < limit {
                match TestCase::from_frame_prefix(rest) {
                    Ok((t, _)) => out.push(t),
                    Err(_) => break,
                }
            }
            total += 1;
            rest = &rest[span..];
        }
        Ok((out, total))
    }

    /// Loads a target's covered-HLPC set.
    pub fn load_coverage(&self, target: &str) -> io::Result<HashSet<u64>> {
        let path = self.target_dir(target).join("coverage.bin");
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(HashSet::new()),
            Err(e) => return Err(e),
        };
        Ok(bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Merges `covered` into a target's coverage map; returns the union's
    /// size. Serialized on the write lock so concurrent sessions' unions
    /// compose instead of last-writer-wins.
    pub fn merge_coverage(&self, target: &str, covered: &HashSet<u64>) -> io::Result<usize> {
        let _guard = self.write_lock.lock().unwrap();
        let mut all = self.load_coverage(target)?;
        all.extend(covered.iter().copied());
        let dir = self.target_dir(target);
        fs::create_dir_all(&dir)?;
        let mut sorted: Vec<u64> = all.iter().copied().collect();
        sorted.sort_unstable();
        let mut bytes = Vec::with_capacity(sorted.len() * 8);
        for pc in sorted {
            bytes.extend_from_slice(&pc.to_le_bytes());
        }
        self.write_atomic(&dir.join("coverage.bin"), &bytes)?;
        Ok(all.len())
    }

    /// Persists a target's fork-point snapshot, if none is stored yet.
    /// The snapshot is a pure function of the target program, so the first
    /// session to capture one writes it for every later session; a stored
    /// snapshot with a different fingerprint (e.g. from an older engine
    /// build) is replaced.
    pub fn save_snapshot(&self, target: &str, snapshot: &Snapshot) -> io::Result<()> {
        let _guard = self.write_lock.lock().unwrap();
        let dir = self.target_dir(target);
        fs::create_dir_all(&dir)?;
        let path = dir.join("snapshot.bin");
        if let Ok(bytes) = fs::read(&path) {
            if let Ok(existing) = Snapshot::from_frame(&bytes) {
                if existing.fingerprint == snapshot.fingerprint {
                    return Ok(());
                }
            }
        }
        self.write_atomic(&path, &snapshot.to_frame())
    }

    /// Loads a target's fork-point snapshot. A missing, truncated, or
    /// corrupt `snapshot.bin` yields `Ok(None)` — resume then falls back
    /// to full prefix replay, it never fails.
    pub fn load_snapshot(&self, target: &str) -> io::Result<Option<Arc<Snapshot>>> {
        let path = self.target_dir(target).join("snapshot.bin");
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        Ok(Snapshot::from_frame(&bytes).ok().map(Arc::new))
    }

    /// Persists a session's job spec.
    pub fn save_spec(&self, session: &str, spec_json: &str) -> io::Result<()> {
        let dir = self.session_dir(session);
        fs::create_dir_all(&dir)?;
        self.write_atomic(&dir.join("spec.json"), spec_json.as_bytes())
    }

    /// Loads a session's job spec JSON, if the session exists.
    pub fn load_spec(&self, session: &str) -> io::Result<Option<String>> {
        match fs::read_to_string(self.session_dir(session).join("spec.json")) {
            Ok(s) => Ok(Some(s)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Atomically replaces a session's checkpoint with `frontier`.
    pub fn save_checkpoint(&self, session: &str, frontier: &[WorkSeed]) -> io::Result<()> {
        let dir = self.session_dir(session);
        fs::create_dir_all(&dir)?;
        let mut bytes = Vec::new();
        for seed in frontier {
            bytes.extend_from_slice(&seed.to_frame());
        }
        self.write_atomic(&dir.join("checkpoint.bin"), &bytes)
    }

    /// Loads a session's checkpointed frontier. `None` means the session
    /// never checkpointed (fresh start from the root); `Some(vec![])`
    /// means it checkpointed an exhausted frontier (exploration finished).
    pub fn load_checkpoint(&self, session: &str) -> io::Result<Option<Vec<WorkSeed>>> {
        let path = self.session_dir(session).join("checkpoint.bin");
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        Ok(Some(decode_prefix::<WorkSeed>(&bytes)))
    }

    /// Records a session's lifecycle state.
    pub fn save_state(&self, session: &str, state: &str) -> io::Result<()> {
        let dir = self.session_dir(session);
        fs::create_dir_all(&dir)?;
        self.write_atomic(&dir.join("state"), state.as_bytes())
    }

    /// Reads a session's recorded lifecycle state.
    pub fn load_state(&self, session: &str) -> io::Result<Option<String>> {
        match fs::read_to_string(self.session_dir(session).join("state")) {
            Ok(s) => Ok(Some(s.trim().to_string())),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Persists a session's scheduling counters (atomically; called once
    /// per completed slice).
    pub fn save_sched(&self, session: &str, stats: &SchedStats) -> io::Result<()> {
        let dir = self.session_dir(session);
        fs::create_dir_all(&dir)?;
        self.write_atomic(&dir.join("sched.bin"), &stats.to_frame())
    }

    /// Loads a session's persisted scheduling counters. Missing or corrupt
    /// `sched.bin` yields `Ok(None)` — the session just restarts its
    /// accounting from zero.
    pub fn load_sched(&self, session: &str) -> io::Result<Option<SchedStats>> {
        let path = self.session_dir(session).join("sched.bin");
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        Ok(SchedStats::from_frame(&bytes).ok())
    }

    /// Persists a session's cumulative trace-phase stats (atomically;
    /// called once per completed slice, like [`Corpus::save_sched`]).
    pub fn save_trace(&self, session: &str, stats: &chef_trace::TraceStats) -> io::Result<()> {
        let dir = self.session_dir(session);
        fs::create_dir_all(&dir)?;
        self.write_atomic(&dir.join("trace.bin"), &stats.to_frame())
    }

    /// Loads a session's persisted trace stats. Missing or corrupt
    /// `trace.bin` yields `Ok(None)` — phase attribution just restarts
    /// from zero (it is reporting-only state).
    pub fn load_trace(&self, session: &str) -> io::Result<Option<chef_trace::TraceStats>> {
        let path = self.session_dir(session).join("trace.bin");
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        Ok(chef_trace::TraceStats::from_frame(&bytes).ok())
    }

    /// Persists a session's learned fast-forward site table (atomically;
    /// called once per completed slice, like [`Corpus::save_trace`]).
    pub fn save_ffsites(&self, session: &str, sites: &chef_core::FfSiteTable) -> io::Result<()> {
        let dir = self.session_dir(session);
        fs::create_dir_all(&dir)?;
        self.write_atomic(
            &dir.join("ffsites.bin"),
            &chef_core::FfTable(sites.clone()).to_frame(),
        )
    }

    /// Loads a session's persisted fast-forward site table. Missing or
    /// corrupt `ffsites.bin` yields `Ok(None)` — the adaptive gate just
    /// starts cold (it is performance-only state).
    pub fn load_ffsites(&self, session: &str) -> io::Result<Option<chef_core::FfSiteTable>> {
        let path = self.session_dir(session).join("ffsites.bin");
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        Ok(chef_core::FfTable::from_frame(&bytes).ok().map(|t| t.0))
    }

    /// Rewrites a target's `tests.bin` from its decodable frames: drops a
    /// crash-truncated tail for good, re-deduplicates by canonical input
    /// bytes, and trims overflow past the per-target budget (oldest tests
    /// are kept — they seeded the most coverage). Returns `(bytes_before,
    /// bytes_after)`; a missing store is a no-op `(0, 0)`.
    pub fn compact_tests(&self, target: &str) -> io::Result<(u64, u64)> {
        let _guard = self.write_lock.lock().unwrap();
        let path = self.target_dir(target).join("tests.bin");
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((0, 0)),
            Err(e) => return Err(e),
        };
        let before = bytes.len() as u64;
        let mut seen: HashSet<Vec<(String, Vec<u8>)>> = HashSet::new();
        let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
        for t in decode_prefix::<TestCase>(&bytes) {
            if !seen.insert(t.canonical_key()) {
                continue;
            }
            let frame = t.to_frame();
            if let Some(budget) = self.max_target_bytes {
                if out.len() as u64 + frame.len() as u64 > budget {
                    self.budget_rejected.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            }
            out.extend_from_slice(&frame);
        }
        let after = out.len() as u64;
        if after != before {
            self.write_atomic(&path, &out)?;
        }
        Ok((before, after))
    }

    /// Deletes `snapshot.bin` files whose fingerprint no session checkpoint
    /// references (plus undecodable ones), returning how many were
    /// removed. Run at daemon startup, after orphan recovery: settled
    /// sessions have empty checkpoints, so a target whose sessions all
    /// finished sheds its snapshot — the next session to explore that
    /// target captures a fresh one on its first slice.
    pub fn gc_snapshots(&self) -> io::Result<usize> {
        let _guard = self.write_lock.lock().unwrap();
        let mut referenced: HashSet<u64> = HashSet::new();
        for id in self.session_ids()? {
            for seed in self.load_checkpoint(&id)?.unwrap_or_default() {
                if let Some(fp) = seed.snapshot_fp {
                    referenced.insert(fp);
                }
            }
        }
        let mut removed = 0usize;
        for entry in fs::read_dir(self.root.join("corpus"))? {
            let path = entry?.path().join("snapshot.bin");
            let bytes = match fs::read(&path) {
                Ok(b) => b,
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e),
            };
            let live =
                Snapshot::from_frame(&bytes).is_ok_and(|sn| referenced.contains(&sn.fingerprint));
            if !live {
                fs::remove_file(&path)?;
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Records the client-supplied idempotency token that admitted a
    /// session, so a retried submit after a daemon restart still maps to
    /// the same session instead of double-admitting.
    pub fn save_token(&self, session: &str, token: &str) -> io::Result<()> {
        let dir = self.session_dir(session);
        fs::create_dir_all(&dir)?;
        self.write_atomic(&dir.join("token"), token.as_bytes())
    }

    /// All `(token, session_id)` pairs on disk, for rebuilding the
    /// submit-idempotency map at daemon startup.
    pub fn load_tokens(&self) -> io::Result<Vec<(String, String)>> {
        let mut out = Vec::new();
        for id in self.session_ids()? {
            if let Ok(tok) = fs::read_to_string(self.session_dir(&id).join("token")) {
                let tok = tok.trim().to_string();
                if !tok.is_empty() {
                    out.push((tok, id));
                }
            }
        }
        Ok(out)
    }

    /// Archives a watchdog-poisoned checkpoint seed to the session's
    /// `poisoned.bin`. Poisoned seeds leave the frontier but are never
    /// deleted — an operator (or a fixed engine) can re-adopt them.
    pub fn quarantine_seed(&self, session: &str, seed: &WorkSeed) -> io::Result<()> {
        let _guard = self.write_lock.lock().unwrap();
        let dir = self.session_dir(session);
        fs::create_dir_all(&dir)?;
        self.append_with_faults(&dir.join("poisoned.bin"), &seed.to_frame())
    }

    /// Crash-recovery scrub, run at daemon startup before any session
    /// resumes. Repairs what it can and quarantines what it cannot:
    ///
    /// - stray `.tmp` files from interrupted atomic replaces are deleted;
    /// - `tests.bin` and `checkpoint.bin` are re-walked frame by frame
    ///   (CRC-validated since wire v3); a corrupt span is dropped and the
    ///   walk *resyncs* at the next frame magic, so one flipped bit costs
    ///   one frame, not the rest of the file;
    /// - `coverage.bin` is truncated to whole 8-byte records;
    /// - an undecodable `snapshot.bin` is deleted (resume falls back to
    ///   full prefix replay) and an undecodable `sched.bin` is deleted
    ///   (fair-share accounting restarts from zero);
    /// - a session whose `spec.json` no longer parses can never be
    ///   re-prepared: the whole session directory moves to `quarantine/`
    ///   for post-mortem instead of wedging startup.
    pub fn scrub(&self) -> io::Result<ScrubReport> {
        let _guard = self.write_lock.lock().unwrap();
        let start = Instant::now();
        let mut rep = ScrubReport::default();
        for base in ["corpus", "sessions"] {
            for entry in fs::read_dir(self.root.join(base))? {
                let dir = entry?.path();
                if !dir.is_dir() {
                    continue;
                }
                for file in fs::read_dir(&dir)? {
                    let p = file?.path();
                    if p.extension().is_some_and(|e| e == "tmp") {
                        fs::remove_file(&p)?;
                        rep.tmp_cleaned += 1;
                    }
                }
            }
        }
        for entry in fs::read_dir(self.root.join("corpus"))? {
            let dir = entry?.path();
            if !dir.is_dir() {
                continue;
            }
            rep.targets += 1;
            self.scrub_frames::<TestCase>(&dir.join("tests.bin"), &mut rep)?;
            let cov = dir.join("coverage.bin");
            if let Ok(bytes) = fs::read(&cov) {
                let keep = bytes.len() - bytes.len() % 8;
                if keep != bytes.len() {
                    self.write_atomic(&cov, &bytes[..keep])?;
                    rep.bytes_truncated += (bytes.len() - keep) as u64;
                    rep.frames_repaired += 1;
                }
            }
            let snp = dir.join("snapshot.bin");
            if let Ok(bytes) = fs::read(&snp) {
                if Snapshot::from_frame(&bytes).is_err() {
                    fs::remove_file(&snp)?;
                    rep.snapshots_dropped += 1;
                }
            }
        }
        for entry in fs::read_dir(self.root.join("sessions"))? {
            let dir = entry?.path();
            if !dir.is_dir() {
                continue;
            }
            rep.sessions += 1;
            let spec_ok = fs::read_to_string(dir.join("spec.json"))
                .ok()
                .and_then(|s| crate::json::parse(&s).ok())
                .map(|v| JobSpec::from_value(&v).is_ok())
                .unwrap_or(false);
            if !spec_ok {
                self.quarantine(&dir)?;
                rep.quarantined += 1;
                continue;
            }
            self.scrub_frames::<WorkSeed>(&dir.join("checkpoint.bin"), &mut rep)?;
            if let Ok(bytes) = fs::read(dir.join("sched.bin")) {
                if SchedStats::from_frame(&bytes).is_err() {
                    fs::remove_file(dir.join("sched.bin"))?;
                    rep.frames_repaired += 1;
                }
            }
        }
        rep.scrub_ms = start.elapsed().as_millis() as u64;
        Ok(rep)
    }

    /// Moves a session directory into `quarantine/`, keeping its contents
    /// for post-mortem. Name collisions get a numeric suffix.
    fn quarantine(&self, dir: &Path) -> io::Result<()> {
        let qroot = self.root.join("quarantine");
        fs::create_dir_all(&qroot)?;
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "unknown".to_string());
        let mut dest = qroot.join(&name);
        let mut n = 1u32;
        while dest.exists() {
            dest = qroot.join(format!("{name}.{n}"));
            n += 1;
        }
        fs::rename(dir, &dest)
    }

    /// Re-walks the frame stream at `path`, dropping corrupt spans and
    /// resyncing at the next frame magic. Rewrites the file only when
    /// something was dropped; surviving frames keep their original bytes
    /// (old-version frames are preserved, not re-encoded).
    fn scrub_frames<T: Wire>(&self, path: &Path, rep: &mut ScrubReport) -> io::Result<()> {
        let bytes = match fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e),
        };
        let (kept, repairs, dropped) = repair_stream::<T>(&bytes);
        if repairs > 0 {
            self.write_atomic(path, &kept)?;
            rep.frames_repaired += repairs;
            rep.bytes_truncated += dropped;
        }
        Ok(())
    }

    /// Appends `bytes` to the stream at `path`, honoring any fault this
    /// corpus's plan injects:
    ///
    /// - `Enospc` fails up front, leaving the file untouched;
    /// - `Torn` lands only a prefix and then errors — the torn tail stays on
    ///   disk exactly as a real crash would leave it (readers drop it; the
    ///   next append trims it);
    /// - `LostSync` lands the bytes but skips the fsync;
    /// - `BitFlip` lands and syncs the bytes, then flips one bit of the file
    ///   in place and *reports success* — silent media corruption, detectable
    ///   only by the wire CRCs.
    fn append_with_faults(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let fault = self.faults.plan().and_then(|p| p.disk_fault());
        if fault == Some(DiskFault::Enospc) {
            return Err(enospc());
        }
        let keep = match fault {
            Some(DiskFault::Torn { keep_permille }) => {
                (bytes.len() * keep_permille as usize / 1000).min(bytes.len().saturating_sub(1))
            }
            _ => bytes.len(),
        };
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        f.write_all(&bytes[..keep])?;
        match fault {
            Some(DiskFault::Torn { .. }) => {
                let _ = f.sync_all();
                Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "injected fault: torn write",
                ))
            }
            Some(DiskFault::LostSync) => Ok(()),
            Some(DiskFault::BitFlip { bit_seed }) => {
                f.sync_all()?;
                drop(f);
                flip_bit(path, bit_seed)
            }
            _ => f.sync_all(),
        }
    }

    /// Writes via a temp file + rename, so readers never observe a partial
    /// write even if the daemon dies mid-flight. Under this corpus's plan:
    /// `Enospc` and `Torn` fail before the rename (the destination keeps its
    /// previous contents — atomicity is exactly what the temp file buys), a
    /// `BitFlip` corrupts the renamed file in place, and `LostSync` skips the
    /// pre-rename fsync.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let fault = self.faults.plan().and_then(|p| p.disk_fault());
        if fault == Some(DiskFault::Enospc) {
            return Err(enospc());
        }
        let tmp = path.with_extension("tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            if let Some(DiskFault::Torn { keep_permille }) = fault {
                let keep = (bytes.len() * keep_permille as usize / 1000)
                    .min(bytes.len().saturating_sub(1));
                f.write_all(&bytes[..keep])?;
                let _ = f.sync_all();
                // The torn temp file stays behind (scrub sweeps it up); the
                // destination was never touched.
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "injected fault: torn write",
                ));
            }
            f.write_all(bytes)?;
            if fault != Some(DiskFault::LostSync) {
                f.sync_all()?;
            }
        }
        fs::rename(&tmp, path)?;
        if let Some(DiskFault::BitFlip { bit_seed }) = fault {
            flip_bit(path, bit_seed)?;
        }
        Ok(())
    }
}

/// What [`Corpus::scrub`] found and fixed. Zero everywhere on a clean
/// startup; surfaced through the daemon's `stats` command and the
/// `serve_chaos` bench.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Corpus target directories examined.
    pub targets: u64,
    /// Session directories examined (pre-quarantine).
    pub sessions: u64,
    /// Corrupt spans dropped-and-resynced across all frame streams (plus
    /// undecodable `sched.bin`/ragged `coverage.bin` fixes).
    pub frames_repaired: u64,
    /// Bytes discarded while repairing streams.
    pub bytes_truncated: u64,
    /// Undecodable `snapshot.bin` files deleted.
    pub snapshots_dropped: u64,
    /// Sessions moved to `quarantine/` (unparseable spec).
    pub quarantined: u64,
    /// Stray `.tmp` files removed.
    pub tmp_cleaned: u64,
    /// Wall-clock duration of the pass, in milliseconds.
    pub scrub_ms: u64,
}

/// Splits a frame stream into the bytes of its decodable frames plus
/// `(corrupt spans, bytes dropped)`. After a bad frame the scan resyncs
/// at the next [`MAGIC`] occurrence instead of giving up.
fn repair_stream<T: Wire>(bytes: &[u8]) -> (Vec<u8>, u64, u64) {
    let mut kept = Vec::with_capacity(bytes.len());
    let mut repairs = 0u64;
    let mut dropped = 0u64;
    let mut pos = 0usize;
    while pos < bytes.len() {
        match T::from_frame_prefix(&bytes[pos..]) {
            Ok((_, used)) => {
                kept.extend_from_slice(&bytes[pos..pos + used]);
                pos += used;
            }
            Err(_) => {
                repairs += 1;
                let next = find_magic(bytes, pos + 1);
                dropped += (next - pos) as u64;
                pos = next;
            }
        }
    }
    (kept, repairs, dropped)
}

/// First offset `>= from` where [`MAGIC`] occurs, or `bytes.len()`.
fn find_magic(bytes: &[u8], from: usize) -> usize {
    let mut i = from;
    while i + MAGIC.len() <= bytes.len() {
        if bytes[i..i + MAGIC.len()] == MAGIC {
            return i;
        }
        i += 1;
    }
    bytes.len()
}

/// Decodes as many complete frames as the buffer holds, dropping a
/// truncated or corrupted tail (the crash-mid-append case).
fn decode_prefix<T: Wire>(bytes: &[u8]) -> Vec<T> {
    decode_prefix_with_len(bytes).0
}

/// [`decode_prefix`] plus the byte length of the decodable prefix, so
/// appenders can trim a torn tail before extending the stream.
fn decode_prefix_with_len<T: Wire>(bytes: &[u8]) -> (Vec<T>, usize) {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        match T::from_frame_prefix(&bytes[pos..]) {
            Ok((v, used)) => {
                out.push(v);
                pos += used;
            }
            Err(_) => break,
        }
    }
    (out, pos)
}

/// Restricts file-name components to a conservative character set so a
/// malicious session/target string cannot traverse directories.
fn safe_component(s: &str) -> String {
    s.chars()
        .map(|c| match c {
            'a'..='z' | 'A'..='Z' | '0'..='9' | '-' | '_' => c,
            _ => '_',
        })
        .collect()
}

/// The error `append_with_faults`/`write_atomic` raise for an injected
/// out-of-space condition.
fn enospc() -> io::Error {
    io::Error::new(io::ErrorKind::StorageFull, "injected fault: no space")
}

/// Flips bit `bit_seed % (len * 8)` of the file at `path` in place.
fn flip_bit(path: &Path, bit_seed: u64) -> io::Result<()> {
    let mut bytes = fs::read(path)?;
    if bytes.is_empty() {
        return Ok(());
    }
    let bit = bit_seed % (bytes.len() as u64 * 8);
    bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
    fs::write(path, &bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chef_core::fault::FaultSpec;
    use chef_core::wire::FRAME_HEADER;
    use std::collections::HashMap;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("chef-serve-corpus-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn tc(id: usize, byte: u8) -> TestCase {
        let mut inputs = HashMap::new();
        inputs.insert("x".to_string(), vec![byte]);
        TestCase {
            id,
            inputs,
            status: chef_core::TestStatus::Ok(0),
            exception: None,
            hl_path: chef_core::HlNodeId(id as u32),
            hl_sig: byte as u64,
            new_hl_path: true,
            ll_steps: 10,
            at_ll_instructions: 100,
        }
    }

    #[test]
    fn tests_dedup_across_appends() {
        let corpus = Corpus::open(tmpdir("dedup")).unwrap();
        assert_eq!(corpus.append_tests("k", &[tc(0, 1), tc(1, 2)]).unwrap(), 2);
        assert_eq!(
            corpus.append_tests("k", &[tc(2, 2), tc(3, 3)]).unwrap(),
            1,
            "byte 2 is already stored"
        );
        let stored = corpus.load_tests("k").unwrap();
        assert_eq!(stored.len(), 3);
        let _ = fs::remove_dir_all(corpus.root());
    }

    #[test]
    fn truncated_tail_is_dropped_not_fatal() {
        let corpus = Corpus::open(tmpdir("trunc")).unwrap();
        corpus.append_tests("k", &[tc(0, 1), tc(1, 2)]).unwrap();
        // Simulate a crash mid-append: chop bytes off the end.
        let path = corpus.root().join("corpus/k/tests.bin");
        let mut bytes = fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 5);
        fs::write(&path, &bytes).unwrap();
        let stored = corpus.load_tests("k").unwrap();
        assert_eq!(stored.len(), 1, "complete frames survive");
        // And appending after the crash re-adds the lost test.
        assert_eq!(corpus.append_tests("k", &[tc(1, 2)]).unwrap(), 1);
        let _ = fs::remove_dir_all(corpus.root());
    }

    #[test]
    fn checkpoint_roundtrip_and_states() {
        let corpus = Corpus::open(tmpdir("ckpt")).unwrap();
        assert_eq!(corpus.load_checkpoint("s1").unwrap(), None);
        let frontier = vec![WorkSeed::from_choices(vec![1, 2]), WorkSeed::root()];
        corpus.save_checkpoint("s1", &frontier).unwrap();
        assert_eq!(corpus.load_checkpoint("s1").unwrap(), Some(frontier));
        corpus.save_checkpoint("s1", &[]).unwrap();
        assert_eq!(corpus.load_checkpoint("s1").unwrap(), Some(Vec::new()));
        corpus.save_state("s1", "paused").unwrap();
        assert_eq!(corpus.load_state("s1").unwrap().as_deref(), Some("paused"));
        let _ = fs::remove_dir_all(corpus.root());
    }

    #[test]
    fn session_ids_are_monotonic_and_persistent() {
        let root = tmpdir("ids");
        let corpus = Corpus::open(&root).unwrap();
        assert_eq!(corpus.next_session_id().unwrap(), "s1");
        assert_eq!(corpus.next_session_id().unwrap(), "s2");
        drop(corpus);
        let corpus = Corpus::open(&root).unwrap();
        assert_eq!(corpus.next_session_id().unwrap(), "s3", "counter persists");
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn hostile_names_cannot_escape_the_data_dir() {
        let corpus = Corpus::open(tmpdir("esc")).unwrap();
        corpus.save_state("../../evil", "x").unwrap();
        assert!(corpus.root().join("sessions/______evil/state").exists());
        let _ = fs::remove_dir_all(corpus.root());
    }

    #[test]
    fn target_budget_caps_appends_at_frame_granularity() {
        let mut corpus = Corpus::open(tmpdir("budget")).unwrap();
        let frame_len = tc(0, 0).to_frame().len() as u64;
        corpus.set_target_budget(Some(frame_len * 2));
        assert_eq!(
            corpus
                .append_tests("k", &[tc(0, 1), tc(1, 2), tc(2, 3), tc(3, 4)])
                .unwrap(),
            2,
            "only two frames fit the budget"
        );
        assert_eq!(corpus.budget_rejections(), 2);
        let size = fs::metadata(corpus.root().join("corpus/k/tests.bin"))
            .unwrap()
            .len();
        assert!(size <= frame_len * 2);
        // Appends once at budget are refused outright.
        assert_eq!(corpus.append_tests("k", &[tc(4, 5)]).unwrap(), 0);
        assert_eq!(corpus.budget_rejections(), 3);
        let _ = fs::remove_dir_all(corpus.root());
    }

    #[test]
    fn compaction_drops_truncated_tail_and_trims_to_budget() {
        let mut corpus = Corpus::open(tmpdir("compact")).unwrap();
        corpus
            .append_tests("k", &[tc(0, 1), tc(1, 2), tc(2, 3)])
            .unwrap();
        let path = corpus.root().join("corpus/k/tests.bin");
        // Crash mid-append: a truncated frame lingers on disk until
        // compaction rewrites the store without it.
        let mut bytes = fs::read(&path).unwrap();
        let full = bytes.len() as u64;
        bytes.extend_from_slice(&bytes.clone()[..7]);
        fs::write(&path, &bytes).unwrap();
        let (before, after) = corpus.compact_tests("k").unwrap();
        assert_eq!(before, full + 7);
        assert_eq!(after, full);
        assert_eq!(corpus.load_tests("k").unwrap().len(), 3);
        // With a one-frame budget, compaction keeps the oldest test.
        let frame_len = tc(0, 1).to_frame().len() as u64;
        corpus.set_target_budget(Some(frame_len));
        let (_, trimmed) = corpus.compact_tests("k").unwrap();
        assert_eq!(trimmed, frame_len);
        let kept = corpus.load_tests("k").unwrap();
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].inputs["x"], vec![1]);
        // Compacting a never-written target is a no-op.
        assert_eq!(corpus.compact_tests("nothing").unwrap(), (0, 0));
        let _ = fs::remove_dir_all(corpus.root());
    }

    fn snap(tag: u64) -> Snapshot {
        let mut sn = Snapshot {
            fingerprint: 0,
            vars: Vec::new(),
            nodes: Vec::new(),
            frames: Vec::new(),
            pages: Vec::new(),
            path: Vec::new(),
            inputs: Vec::new(),
            trace: vec![tag],
            hl_events: Vec::new(),
            hlpc: 0,
            hl_opcode: 0,
            hl_len: 0,
            ll_steps: tag,
        };
        sn.fingerprint = sn.compute_fingerprint();
        sn
    }

    #[test]
    fn snapshot_gc_keeps_only_checkpoint_referenced_fingerprints() {
        let corpus = Corpus::open(tmpdir("gc")).unwrap();
        let live = snap(1);
        let dead = snap(2);
        corpus.save_snapshot("live_t", &live).unwrap();
        corpus.save_snapshot("dead_t", &dead).unwrap();
        // s1 is mid-exploration: its checkpoint references the live
        // snapshot. dead_t's sessions all finished (empty checkpoint).
        let mut seed = WorkSeed::from_choices(vec![1, 2, 3]);
        seed.snapshot_fp = Some(live.fingerprint);
        corpus.save_checkpoint("s1", &[seed]).unwrap();
        corpus.save_checkpoint("s2", &[]).unwrap();
        assert_eq!(corpus.gc_snapshots().unwrap(), 1);
        assert!(corpus.load_snapshot("live_t").unwrap().is_some());
        assert!(corpus.load_snapshot("dead_t").unwrap().is_none());
        // Idempotent: nothing left to collect.
        assert_eq!(corpus.gc_snapshots().unwrap(), 0);
        let _ = fs::remove_dir_all(corpus.root());
    }

    #[test]
    fn append_after_torn_tail_trims_before_extending() {
        let corpus = Corpus::open(tmpdir("toration")).unwrap();
        corpus.append_tests("k", &[tc(0, 1), tc(1, 2)]).unwrap();
        let path = corpus.root().join("corpus/k/tests.bin");
        // Crash mid-append: a frame header plus a few payload bytes dangle
        // at the end, with the declared length never arriving.
        let mut bytes = fs::read(&path).unwrap();
        let torn = bytes[..FRAME_HEADER + 5].to_vec();
        bytes.extend_from_slice(&torn);
        fs::write(&path, &bytes).unwrap();
        // The next append must not strand its frames behind the garbage.
        assert_eq!(corpus.append_tests("k", &[tc(2, 3)]).unwrap(), 1);
        assert_eq!(corpus.load_tests("k").unwrap().len(), 3);
        let _ = fs::remove_dir_all(corpus.root());
    }

    #[test]
    fn repair_stream_resyncs_past_a_mid_file_flip() {
        let corpus = Corpus::open(tmpdir("resync")).unwrap();
        corpus
            .append_tests("k", &[tc(0, 1), tc(1, 2), tc(2, 3)])
            .unwrap();
        let path = corpus.root().join("corpus/k/tests.bin");
        let mut bytes = fs::read(&path).unwrap();
        // Flip one payload bit of the FIRST frame: pre-scrub readers lose
        // everything; scrub must recover frames two and three.
        bytes[FRAME_HEADER + 2] ^= 0x10;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(corpus.load_tests("k").unwrap().len(), 0, "reader stops");
        let rep = corpus.scrub().unwrap();
        assert_eq!(rep.frames_repaired, 1);
        assert!(rep.bytes_truncated > 0);
        let kept = corpus.load_tests("k").unwrap();
        assert_eq!(kept.len(), 2, "resync recovers the frames after the flip");
        assert_eq!(kept[0].inputs["x"], vec![2]);
        // Idempotent: a second scrub finds nothing.
        let rep = corpus.scrub().unwrap();
        assert_eq!(rep.frames_repaired, 0);
        let _ = fs::remove_dir_all(corpus.root());
    }

    #[test]
    fn scrub_truncates_ragged_coverage_and_drops_bad_snapshots() {
        let corpus = Corpus::open(tmpdir("scrubcov")).unwrap();
        corpus
            .merge_coverage("k", &[1u64, 2, 3].into_iter().collect())
            .unwrap();
        let cov = corpus.root().join("corpus/k/coverage.bin");
        let mut bytes = fs::read(&cov).unwrap();
        bytes.extend_from_slice(&[0xAB, 0xCD, 0xEF]); // ragged tail
        fs::write(&cov, &bytes).unwrap();
        let sn = snap(5);
        corpus.save_snapshot("k", &sn).unwrap();
        let snp = corpus.root().join("corpus/k/snapshot.bin");
        let mut sbytes = fs::read(&snp).unwrap();
        let mid = sbytes.len() / 2;
        sbytes[mid] ^= 0xFF;
        fs::write(&snp, &sbytes).unwrap();
        let rep = corpus.scrub().unwrap();
        assert_eq!(rep.bytes_truncated, 3);
        assert_eq!(rep.snapshots_dropped, 1);
        assert_eq!(corpus.load_coverage("k").unwrap().len(), 3);
        assert!(corpus.load_snapshot("k").unwrap().is_none());
        let _ = fs::remove_dir_all(corpus.root());
    }

    #[test]
    fn scrub_quarantines_sessions_with_unparseable_specs() {
        let corpus = Corpus::open(tmpdir("quar")).unwrap();
        corpus.save_spec("s1", "{not json at all").unwrap();
        corpus.save_checkpoint("s1", &[WorkSeed::root()]).unwrap();
        let good = crate::job::JobSpec::new(
            crate::job::JobLang::Python,
            "def f(x):\n    return x\n",
            "f",
        )
        .sym_str("x", 1);
        corpus.save_spec("s2", &good.to_value().to_json()).unwrap();
        let rep = corpus.scrub().unwrap();
        assert_eq!(rep.quarantined, 1);
        assert!(!corpus.root().join("sessions/s1").exists());
        assert!(corpus.root().join("quarantine/s1/spec.json").exists());
        assert!(corpus.root().join("sessions/s2").exists());
        assert_eq!(corpus.session_ids().unwrap(), vec!["s2"]);
        let _ = fs::remove_dir_all(corpus.root());
    }

    #[test]
    fn scrub_sweeps_stray_tmp_files() {
        let corpus = Corpus::open(tmpdir("tmps")).unwrap();
        corpus.save_state("s1", "paused").unwrap();
        fs::write(corpus.root().join("sessions/s1/checkpoint.tmp"), b"half").unwrap();
        // A session without a spec quarantines; give s1 one to isolate the
        // tmp sweep.
        let spec = crate::job::JobSpec::new(
            crate::job::JobLang::Python,
            "def f(x):\n    return x\n",
            "f",
        )
        .sym_str("x", 1);
        corpus.save_spec("s1", &spec.to_value().to_json()).unwrap();
        let rep = corpus.scrub().unwrap();
        assert_eq!(rep.tmp_cleaned, 1);
        assert!(!corpus.root().join("sessions/s1/checkpoint.tmp").exists());
        let _ = fs::remove_dir_all(corpus.root());
    }

    #[test]
    fn injected_torn_write_leaves_recoverable_stream() {
        let corpus = Corpus::open(tmpdir("faultt")).unwrap();
        corpus.append_tests("k", &[tc(0, 1)]).unwrap();
        corpus.set_fault_plan(Some(Arc::new(FaultPlan::new(
            1,
            FaultSpec {
                torn_write: 1000,
                ..Default::default()
            },
        ))));
        let err = corpus.append_tests("k", &[tc(1, 2)]).unwrap_err();
        corpus.set_fault_plan(None);
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        // The stored prefix still loads, and retrying lands the test.
        assert_eq!(corpus.load_tests("k").unwrap().len(), 1);
        assert_eq!(corpus.append_tests("k", &[tc(1, 2)]).unwrap(), 1);
        assert_eq!(corpus.load_tests("k").unwrap().len(), 2);
        let _ = fs::remove_dir_all(corpus.root());
    }

    #[test]
    fn injected_enospc_keeps_destination_intact_for_atomic_writes() {
        let corpus = Corpus::open(tmpdir("faulte")).unwrap();
        let frontier = vec![WorkSeed::from_choices(vec![1])];
        corpus.save_checkpoint("s1", &frontier).unwrap();
        corpus.set_fault_plan(Some(Arc::new(FaultPlan::new(
            2,
            FaultSpec {
                enospc: 1000,
                ..Default::default()
            },
        ))));
        let err = corpus
            .save_checkpoint("s1", &[WorkSeed::root()])
            .unwrap_err();
        corpus.set_fault_plan(None);
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert_eq!(
            corpus.load_checkpoint("s1").unwrap(),
            Some(frontier),
            "failed atomic replace preserves the previous checkpoint"
        );
        let _ = fs::remove_dir_all(corpus.root());
    }

    #[test]
    fn injected_bit_flip_is_caught_by_frame_crcs() {
        let corpus = Corpus::open(tmpdir("faultb")).unwrap();
        corpus.append_tests("k", &[tc(0, 1), tc(1, 2)]).unwrap();
        corpus.set_fault_plan(Some(Arc::new(FaultPlan::new(
            3,
            FaultSpec {
                bit_flip: 1000,
                ..Default::default()
            },
        ))));
        // The flip reports success — silent corruption.
        corpus.append_tests("k", &[tc(2, 3)]).unwrap();
        corpus.set_fault_plan(None);
        let loaded = corpus.load_tests("k").unwrap().len();
        assert!(loaded < 3, "some frame must have been corrupted");
        let rep = corpus.scrub().unwrap();
        assert_eq!(rep.frames_repaired, 1);
        assert_eq!(corpus.load_tests("k").unwrap().len(), 2);
        let _ = fs::remove_dir_all(corpus.root());
    }

    #[test]
    fn tokens_roundtrip_for_idempotent_submit() {
        let corpus = Corpus::open(tmpdir("tok")).unwrap();
        corpus.save_token("s1", "client-abc-1").unwrap();
        corpus.save_token("s2", "client-abc-2").unwrap();
        let toks = corpus.load_tokens().unwrap();
        assert_eq!(
            toks,
            vec![
                ("client-abc-1".to_string(), "s1".to_string()),
                ("client-abc-2".to_string(), "s2".to_string()),
            ]
        );
        let _ = fs::remove_dir_all(corpus.root());
    }

    #[test]
    fn sched_stats_roundtrip_and_corrupt_tolerance() {
        let corpus = Corpus::open(tmpdir("sched")).unwrap();
        assert_eq!(corpus.load_sched("s1").unwrap(), None);
        let stats = SchedStats {
            quota: 200,
            slices: 7,
            preemptions: 6,
            wait_ms: 123,
            cpu_ll: 45_678,
        };
        corpus.save_sched("s1", &stats).unwrap();
        assert_eq!(corpus.load_sched("s1").unwrap(), Some(stats));
        fs::write(corpus.root().join("sessions/s1/sched.bin"), b"junk").unwrap();
        assert_eq!(corpus.load_sched("s1").unwrap(), None);
        let _ = fs::remove_dir_all(corpus.root());
    }
}
