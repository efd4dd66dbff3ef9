//! The wire protocol between `chef-cli` clients and the daemon, plus the
//! blocking [`Client`].
//!
//! Control messages are length-prefixed JSON: a 4-byte little-endian
//! payload length followed by one UTF-8 JSON object. Requests carry a
//! `"cmd"` field; responses carry `"ok": true` plus command-specific
//! fields, or `"ok": false` with an `"error"` string. Bulk artifacts
//! (test cases) ride inside the JSON as hex-encoded `chef_core::wire`
//! frames — the same binary representation the on-disk corpus uses.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime};

use chef_core::fault::splitmix64;
use chef_core::wire::Wire;
use chef_core::TestCase;

use crate::job::JobSpec;
use crate::json::{self, Value};

/// Hard cap on one protocol frame (hex-encoded corpora can be large, but
/// not unbounded).
pub const MAX_MESSAGE: usize = 64 << 20;

/// A failure talking to (or reported by) the daemon.
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure.
    Io(io::Error),
    /// The peer sent something that is not valid protocol JSON.
    Protocol(String),
    /// The daemon processed the request and reported an error.
    Server(String),
    /// Admission control refused the request: the pool is at its session
    /// cap. Not an error in the request itself — retry after the hint.
    Busy {
        /// The daemon's backoff hint.
        retry_after_ms: u64,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "io: {e}"),
            ServeError::Protocol(m) => write!(f, "protocol: {m}"),
            ServeError::Server(m) => write!(f, "server: {m}"),
            ServeError::Busy { retry_after_ms } => {
                write!(f, "busy: at capacity, retry in {retry_after_ms}ms")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// Writes one length-prefixed JSON message.
pub fn write_message(stream: &mut impl Write, v: &Value) -> io::Result<()> {
    let text = v.to_json();
    let bytes = text.as_bytes();
    stream.write_all(&(bytes.len() as u32).to_le_bytes())?;
    stream.write_all(bytes)?;
    stream.flush()
}

/// Reads one length-prefixed JSON message. `Ok(None)` means the peer
/// closed the connection cleanly before a new message started.
pub fn read_message(stream: &mut impl Read) -> Result<Option<Value>, ServeError> {
    let mut len_buf = [0u8; 4];
    match stream.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_MESSAGE {
        return Err(ServeError::Protocol(format!("message of {len} bytes")));
    }
    let mut buf = vec![0u8; len];
    stream.read_exact(&mut buf)?;
    let text =
        String::from_utf8(buf).map_err(|_| ServeError::Protocol("non-utf8 message".into()))?;
    json::parse(&text)
        .map(Some)
        .map_err(|e| ServeError::Protocol(e.to_string()))
}

/// Hex-encodes bytes (lowercase).
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// Decodes lowercase/uppercase hex.
pub fn from_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len() / 2)
        .map(|i| u8::from_str_radix(s.get(2 * i..2 * i + 2)?, 16).ok())
        .collect()
}

/// A point-in-time view of one session, as reported by `status`.
#[derive(Clone, Debug)]
pub struct SessionStatus {
    /// Session id.
    pub session: String,
    /// Corpus/target key the session explores.
    pub target: String,
    /// Lifecycle state: `running`, `paused`, `exhausted`, `done`, or
    /// `failed: …`.
    pub state: String,
    /// Tests stored in the target's corpus so far.
    pub corpus_tests: u64,
    /// New tests this session added to the corpus.
    pub new_tests: u64,
    /// Corpus tests replayed to warm-start this session.
    pub seeded_tests: u64,
    /// Low-level instructions this session has executed, including live
    /// progress within the current checkpoint slice.
    pub ll_instructions: u64,
    /// Tests generated so far in the current slice (pre-deduplication;
    /// folded into `new_tests`/`corpus_tests` when the slice checkpoints).
    pub live_tests: u64,
    /// Covered high-level locations recorded for the target.
    pub covered_hlpcs: u64,
    /// Tests/sec over the session's last checkpoint slice, derived from
    /// the fleet's live gauges.
    pub tests_per_sec: f64,
    /// Checkpoint seeds this run restored through the fork-point snapshot
    /// (resume skipped the interpreter prologue for them).
    pub resume_snapshot_seeds: u64,
    /// Checkpoint seeds that fell back to full prefix replay.
    pub resume_full_seeds: u64,
    /// Fair-share weight of the session (100 is the neutral default).
    pub quota: u64,
    /// Place in the scheduler's line: `0` while executing on a pool
    /// worker, `k ≥ 1` as the k-th waiting session, `-1` when the
    /// scheduler does not hold the session (settled or paused).
    pub queue_position: i64,
    /// This session's lifetime share of all sessions' executed low-level
    /// instructions, in `[0, 1]`.
    pub cpu_share: f64,
    /// Checkpoint slices the pool has dispatched for the session.
    pub sched_slices: u64,
    /// Slices that ended at the slice budget with work remaining.
    pub preemptions: u64,
    /// Cumulative milliseconds spent runnable in the queue.
    pub wait_ms: u64,
    /// Slices the watchdog pause-aborted for exceeding the deadline.
    pub watchdog_aborts: u64,
    /// Checkpoint seeds quarantined to `poisoned.bin` after repeated
    /// watchdog timeouts.
    pub poisoned_seeds: u64,
}

impl SessionStatus {
    /// Whether the session has reached a terminal or resumable rest state.
    pub fn is_settled(&self) -> bool {
        self.state != "running"
    }

    fn from_value(v: &Value) -> Result<Self, ServeError> {
        let field = |k: &str| {
            v.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| ServeError::Protocol(format!("status missing '{k}'")))
        };
        let num = |k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
        Ok(SessionStatus {
            session: field("session")?,
            target: field("target")?,
            state: field("state")?,
            corpus_tests: num("corpus_tests"),
            new_tests: num("new_tests"),
            seeded_tests: num("seeded_tests"),
            ll_instructions: num("ll_instructions"),
            live_tests: num("live_tests"),
            covered_hlpcs: num("covered_hlpcs"),
            tests_per_sec: v
                .get("tests_per_sec")
                .and_then(Value::as_str)
                .and_then(|s| s.parse().ok())
                .unwrap_or(0.0),
            resume_snapshot_seeds: num("resume_snapshot_seeds"),
            resume_full_seeds: num("resume_full_seeds"),
            quota: num("quota"),
            queue_position: v
                .get("queue_position")
                .and_then(Value::as_i64)
                .unwrap_or(-1),
            cpu_share: v
                .get("cpu_share")
                .and_then(Value::as_str)
                .and_then(|s| s.parse().ok())
                .unwrap_or(0.0),
            sched_slices: num("sched_slices"),
            preemptions: num("preemptions"),
            wait_ms: num("wait_ms"),
            watchdog_aborts: num("watchdog_aborts"),
            poisoned_seeds: num("poisoned_seeds"),
        })
    }
}

/// One `results` batch from the since-cursor pagination protocol.
#[derive(Clone, Debug)]
pub struct ResultsPage {
    /// Tests in this batch, in corpus order.
    pub tests: Vec<TestCase>,
    /// Total tests stored for the target.
    pub total: u64,
    /// Cursor for the next batch (`{"after": next}`).
    pub next: u64,
    /// Whether the cursor has reached the end of the corpus.
    pub done: bool,
}

/// Client-side resilience policy: deadlines on every socket operation and
/// bounded, jittered retries of transient failures.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Deadline for establishing the TCP connection.
    pub connect_timeout: Duration,
    /// Deadline for each read/write on an established connection (a
    /// stalled daemon shows up as a timeout, not a hang).
    pub io_timeout: Duration,
    /// Transient-failure retries after the first attempt (`0` = fail
    /// fast). I/O errors (connection refused/reset/timeout, reply lost
    /// mid-frame) are always retried; requests are safe to re-send
    /// because `submit` carries an idempotency token and every other
    /// command is naturally idempotent.
    pub retries: u32,
    /// Base backoff before the first retry; doubles per attempt (plus
    /// deterministic jitter), capped at 2 s.
    pub backoff_ms: u64,
    /// Whether [`ServeError::Busy`] admission rejections are also retried
    /// (honoring the daemon's `retry_after_ms` hint). Off by default:
    /// callers often want to *see* capacity pushback.
    pub retry_busy: bool,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            io_timeout: Duration::from_secs(30),
            retries: 3,
            backoff_ms: 50,
            retry_busy: false,
        }
    }
}

/// Daemon-wide robustness counters, as reported by the `stats` command.
#[derive(Clone, Debug, Default)]
pub struct DaemonStats {
    /// Sessions the daemon currently knows about in memory.
    pub sessions: u64,
    /// Of those, how many are `running`.
    pub running: u64,
    /// Connections rejected with a typed `busy` frame at the accept-loop
    /// cap (plus handler-thread spawn failures).
    pub conns_dropped: u64,
    /// Sessions paused (not failed) by a slice-level I/O error.
    pub io_pauses: u64,
    /// Slices the watchdog pause-aborted, daemon-wide.
    pub watchdog_aborts: u64,
    /// Seeds quarantined after repeated watchdog timeouts, daemon-wide.
    pub poisoned_seeds: u64,
    /// Milliseconds the startup scrub pass took.
    pub scrub_ms: u64,
    /// Corrupt frames dropped-and-resynced by the startup scrub.
    pub frames_repaired: u64,
    /// Bytes the scrub discarded repairing streams.
    pub bytes_truncated: u64,
    /// Undecodable snapshots the scrub deleted.
    pub snapshots_dropped: u64,
    /// Session directories the scrub moved to `quarantine/`.
    pub quarantined: u64,
    /// Stray `.tmp` files the scrub swept.
    pub tmp_cleaned: u64,
    /// Seed of the fault plan armed on this daemon (not another), if any.
    pub fault_seed: Option<u64>,
    /// Faults injected so far by this daemon's armed plan.
    pub faults_injected: u64,
}

/// Process-unique idempotency token: pid and startup nanos namespace the
/// process, an atomic counter orders tokens within it, and splitmix64
/// whitens the result. No token collides with a concurrent or restarted
/// client's in any realistic scenario.
fn fresh_token() -> String {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let a = splitmix64(nanos ^ (std::process::id() as u64).rotate_left(32));
    let b = splitmix64(a ^ n);
    format!("{a:016x}{b:016x}")
}

/// Blocking client for the daemon: one TCP connection per request, with
/// deadlines and bounded retries per [`ClientConfig`].
#[derive(Clone, Debug)]
pub struct Client {
    addr: String,
    cfg: ClientConfig,
}

impl Client {
    /// A client that talks to `addr` (e.g. `127.0.0.1:4455`) with the
    /// default resilience policy.
    pub fn new(addr: impl Into<String>) -> Self {
        Client::with_config(addr, ClientConfig::default())
    }

    /// A client with an explicit resilience policy.
    pub fn with_config(addr: impl Into<String>, cfg: ClientConfig) -> Self {
        Client {
            addr: addr.into(),
            cfg,
        }
    }

    /// One request/response exchange on a fresh connection, under the
    /// configured deadlines.
    fn call_once(&self, req: &Value) -> Result<Value, ServeError> {
        let addr =
            self.addr.to_socket_addrs()?.next().ok_or_else(|| {
                ServeError::Protocol(format!("unresolvable address {}", self.addr))
            })?;
        let mut stream = TcpStream::connect_timeout(&addr, self.cfg.connect_timeout)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(self.cfg.io_timeout)).ok();
        stream.set_write_timeout(Some(self.cfg.io_timeout)).ok();
        write_message(&mut stream, req)?;
        // A connection that dies before the reply is transport trouble
        // (daemon crashed mid-request, fault-injected half-close), not a
        // protocol violation: surface it as retryable I/O.
        let resp = read_message(&mut stream)?.ok_or_else(|| {
            ServeError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before reply",
            ))
        })?;
        match resp.get("ok").and_then(Value::as_bool) {
            Some(true) => Ok(resp),
            Some(false)
                if matches!(
                    resp.get("code").and_then(Value::as_str),
                    Some("capacity") | Some("busy")
                ) =>
            {
                Err(ServeError::Busy {
                    retry_after_ms: resp
                        .get("retry_after_ms")
                        .and_then(Value::as_u64)
                        .unwrap_or(1_000),
                })
            }
            Some(false) => Err(ServeError::Server(
                resp.get("error")
                    .and_then(Value::as_str)
                    .unwrap_or("unspecified error")
                    .to_string(),
            )),
            None => Err(ServeError::Protocol("reply missing 'ok'".into())),
        }
    }

    /// [`Client::call_once`] with the retry policy applied: transient I/O
    /// failures back off exponentially with deterministic jitter; `Busy`
    /// rejections honor the daemon's `retry_after_ms` hint when
    /// [`ClientConfig::retry_busy`] is set; protocol and server errors
    /// fail immediately (retrying them cannot help).
    fn call(&self, req: Value) -> Result<Value, ServeError> {
        let mut attempt = 0u32;
        loop {
            let e = match self.call_once(&req) {
                Ok(v) => return Ok(v),
                Err(e) => e,
            };
            let sleep_ms = match &e {
                ServeError::Io(_) => {
                    let base = (self.cfg.backoff_ms.max(1) << attempt.min(16)).min(2_000);
                    // Deterministic jitter: no thundering herd, yet every
                    // run of a given client is reproducible.
                    base + splitmix64(((std::process::id() as u64) << 32) ^ attempt as u64)
                        % (base / 2 + 1)
                }
                ServeError::Busy { retry_after_ms } if self.cfg.retry_busy => {
                    (*retry_after_ms).clamp(1, 5_000)
                }
                _ => return Err(e),
            };
            if attempt >= self.cfg.retries {
                return Err(e);
            }
            attempt += 1;
            std::thread::sleep(Duration::from_millis(sleep_ms));
        }
    }

    /// Submits a job; returns the new session id. The request carries a
    /// fresh idempotency token shared by all of its retries, so a reply
    /// lost to a connection fault cannot double-admit the job: the daemon
    /// maps the retried token back to the session it already created.
    pub fn submit(&self, spec: &JobSpec) -> Result<String, ServeError> {
        let mut req = match spec.to_value() {
            Value::Obj(pairs) => pairs,
            _ => unreachable!("JobSpec::to_value returns an object"),
        };
        req.insert(0, ("cmd".into(), Value::Str("submit".into())));
        req.push(("token".into(), Value::Str(fresh_token())));
        let resp = self.call(Value::Obj(req))?;
        resp.get("session")
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| ServeError::Protocol("submit reply missing 'session'".into()))
    }

    /// Fetches daemon-wide robustness counters (capacity drops, watchdog
    /// and I/O-pause activity, startup scrub findings).
    pub fn stats(&self) -> Result<DaemonStats, ServeError> {
        let resp = self.call(Value::obj(vec![("cmd", Value::Str("stats".into()))]))?;
        let num = |k: &str| resp.get(k).and_then(Value::as_u64).unwrap_or(0);
        Ok(DaemonStats {
            sessions: num("sessions"),
            running: num("running"),
            conns_dropped: num("conns_dropped"),
            io_pauses: num("io_pauses"),
            watchdog_aborts: num("watchdog_aborts"),
            poisoned_seeds: num("poisoned_seeds"),
            scrub_ms: num("scrub_ms"),
            frames_repaired: num("frames_repaired"),
            bytes_truncated: num("bytes_truncated"),
            snapshots_dropped: num("snapshots_dropped"),
            quarantined: num("quarantined"),
            tmp_cleaned: num("tmp_cleaned"),
            fault_seed: resp.get("fault_seed").and_then(Value::as_u64),
            faults_injected: num("faults_injected"),
        })
    }

    /// Fetches the raw daemon `stats` reply as JSON, untyped. This is the
    /// `chef-cli stats --json` surface: every field the daemon serves,
    /// including ones newer than this client's [`DaemonStats`] struct.
    pub fn stats_raw(&self) -> Result<Value, ServeError> {
        self.call(Value::obj(vec![("cmd", Value::Str("stats".into()))]))
    }

    /// Drains daemon trace events after the cursor `after` (0 = from the
    /// oldest retained event), plus per-session and daemon-wide phase
    /// breakdowns. Returns the raw reply; `chef-cli top`/`trace` render
    /// it, and callers page by re-issuing with the reply's `next` value.
    pub fn trace(&self, after: u64) -> Result<Value, ServeError> {
        self.call(Value::obj(vec![
            ("cmd", Value::Str("trace".into())),
            ("after", Value::Int(after as i64)),
        ]))
    }

    /// Queries one session's status.
    pub fn status(&self, session: &str) -> Result<SessionStatus, ServeError> {
        let resp = self.call(Value::obj(vec![
            ("cmd", Value::Str("status".into())),
            ("session", Value::Str(session.into())),
        ]))?;
        SessionStatus::from_value(&resp)
    }

    /// Lists all sessions the daemon knows about.
    pub fn list(&self) -> Result<Vec<SessionStatus>, ServeError> {
        let resp = self.call(Value::obj(vec![("cmd", Value::Str("list".into()))]))?;
        let mut out = Vec::new();
        for v in resp.get("sessions").and_then(Value::as_arr).unwrap_or(&[]) {
            out.push(SessionStatus::from_value(v)?);
        }
        Ok(out)
    }

    /// Fetches the corpus test cases for a session's target, paging with
    /// the since-cursor protocol until the whole corpus has streamed.
    pub fn results(&self, session: &str) -> Result<Vec<TestCase>, ServeError> {
        let mut out = Vec::new();
        let mut after = 0u64;
        loop {
            let page = self.results_page(session, after, None)?;
            let got = page.tests.len();
            out.extend(page.tests);
            if page.done || got == 0 {
                return Ok(out);
            }
            after = page.next;
        }
    }

    /// Fetches one batch of corpus tests starting at cursor `after`
    /// (`limit` caps the batch; the daemon clamps it to its page size).
    /// Use [`ResultsPage::next`] as the next call's cursor.
    pub fn results_page(
        &self,
        session: &str,
        after: u64,
        limit: Option<u64>,
    ) -> Result<ResultsPage, ServeError> {
        let mut req = vec![
            ("cmd", Value::Str("results".into())),
            ("session", Value::Str(session.into())),
            ("after", Value::Int(after as i64)),
        ];
        if let Some(l) = limit {
            req.push(("limit", Value::Int(l as i64)));
        }
        let resp = self.call(Value::obj(req))?;
        let mut tests = Vec::new();
        for v in resp.get("tests").and_then(Value::as_arr).unwrap_or(&[]) {
            let hex = v
                .as_str()
                .ok_or_else(|| ServeError::Protocol("test entry is not a string".into()))?;
            let bytes =
                from_hex(hex).ok_or_else(|| ServeError::Protocol("bad hex in results".into()))?;
            let t = TestCase::from_frame(&bytes)
                .map_err(|e| ServeError::Protocol(format!("bad test frame: {e}")))?;
            tests.push(t);
        }
        let next = resp.get("next").and_then(Value::as_u64).unwrap_or(0);
        Ok(ResultsPage {
            total: resp.get("total").and_then(Value::as_u64).unwrap_or(0),
            done: resp
                .get("done")
                .and_then(Value::as_bool)
                // Pre-pagination daemons ship everything in one reply.
                .unwrap_or(true),
            next,
            tests,
        })
    }

    /// Asks a running session to pause and checkpoint.
    pub fn pause(&self, session: &str) -> Result<(), ServeError> {
        self.call(Value::obj(vec![
            ("cmd", Value::Str("pause".into())),
            ("session", Value::Str(session.into())),
        ]))
        .map(|_| ())
    }

    /// Resumes a paused (or daemon-restart-orphaned) session from its
    /// checkpoint.
    pub fn resume(&self, session: &str) -> Result<(), ServeError> {
        self.call(Value::obj(vec![
            ("cmd", Value::Str("resume".into())),
            ("session", Value::Str(session.into())),
        ]))
        .map(|_| ())
    }

    /// Asks the daemon to shut down (pausing running sessions first).
    pub fn shutdown(&self) -> Result<(), ServeError> {
        self.call(Value::obj(vec![("cmd", Value::Str("shutdown".into()))]))
            .map(|_| ())
    }

    /// Polls `status` until the session settles (or the deadline passes).
    pub fn wait_settled(
        &self,
        session: &str,
        timeout: Duration,
    ) -> Result<SessionStatus, ServeError> {
        let deadline = Instant::now() + timeout;
        loop {
            let st = self.status(session)?;
            if st.is_settled() {
                return Ok(st);
            }
            if Instant::now() >= deadline {
                return Err(ServeError::Server(format!(
                    "session {session} still {} after {timeout:?}",
                    st.state
                )));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrip() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(from_hex(&to_hex(&bytes)).unwrap(), bytes);
        assert_eq!(from_hex("0"), None);
        assert_eq!(from_hex("zz"), None);
    }

    #[test]
    fn message_framing_roundtrip() {
        let v = Value::obj(vec![("cmd", Value::Str("status".into()))]);
        let mut buf = Vec::new();
        write_message(&mut buf, &v).unwrap();
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(read_message(&mut cursor).unwrap(), Some(v));
        assert_eq!(read_message(&mut cursor).unwrap(), None, "clean EOF");
    }

    #[test]
    fn oversized_message_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut cursor = io::Cursor::new(buf);
        assert!(matches!(
            read_message(&mut cursor),
            Err(ServeError::Protocol(_))
        ));
    }
}
