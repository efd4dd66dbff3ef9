//! chef-fault — a deterministic, seed-reproducible fault-injection plane.
//!
//! Chef's durability claims (recover → resume → byte-identical test set)
//! are only as strong as the failure schedules they were tested under.
//! This module lets the serve layer interpose *reproducible* faults on
//! its two I/O surfaces:
//!
//! - **Disk** ([`DiskFault`]): torn/short appends, `ENOSPC`, lost
//!   `fsync`, and post-write bit flips against the corpus files.
//! - **Network** ([`NetFault`]): mid-frame connection drops, stalled
//!   reads, and half-closes against serve connections.
//!
//! A [`FaultPlan`] is constructed from a `u64` seed plus a [`FaultSpec`]
//! of per-mille probabilities. Every injection decision is a pure
//! function of `(seed, op_counter, site)` through a splitmix64 mix, so
//! the same seed replays the same fault schedule — which is what lets
//! `tests/chaos.rs` and the CI `chaos-smoke` matrix shrink a failure to
//! a single reproducible number.
//!
//! ## The zero-cost-when-off hook
//!
//! Production code consults the plane through a [`FaultHook`] owned by
//! the code that does the I/O: each serve `Corpus` carries one, and its
//! daemon's connection handler reads the same one. A disarmed hook costs
//! one relaxed atomic load and returns `None` — no lock, no allocation,
//! no branch into the injection path — so release daemons pay nothing
//! for carrying it. Arming one owner never affects another, so tests
//! that inject faults run in parallel with tests that do not.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Per-mille (0–1000) probabilities for each fault kind. A value of 0
/// disables the kind; 1000 injects on every eligible operation. Disk
/// kinds are mutually exclusive per operation (one roll decides which,
/// weighted by the per-mille values); likewise network kinds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultSpec {
    /// Short write: only a prefix of the buffer reaches the file before
    /// the write errors out.
    pub torn_write: u32,
    /// The write fails up front with `ENOSPC`; nothing reaches the file.
    pub enospc: u32,
    /// The write completes but its `fsync` is silently skipped (models a
    /// power cut before the page cache drains).
    pub lost_sync: u32,
    /// The write completes and syncs, then one bit of it flips on the
    /// medium (silent corruption; only CRCs can catch it).
    pub bit_flip: u32,
    /// The connection is severed mid-frame: a prefix of the message is
    /// written, then the stream errors.
    pub conn_drop: u32,
    /// The peer stalls for [`FaultSpec::stall_ms`] before the read
    /// proceeds (exercises read deadlines).
    pub stall_read: u32,
    /// The write side is shut down after the request, so the peer's
    /// reply hits a closed stream.
    pub half_close: u32,
    /// Stall duration for `stall_read`, in milliseconds.
    pub stall_ms: u64,
}

impl FaultSpec {
    /// Torn-write heavy disk profile (plus a little ENOSPC).
    pub fn torn() -> Self {
        FaultSpec {
            torn_write: 180,
            enospc: 30,
            lost_sync: 40,
            ..Default::default()
        }
    }

    /// ENOSPC-heavy disk profile.
    pub fn enospc() -> Self {
        FaultSpec {
            enospc: 200,
            torn_write: 30,
            ..Default::default()
        }
    }

    /// Connection-fault profile (drops, stalls, half-closes).
    pub fn conn() -> Self {
        FaultSpec {
            conn_drop: 180,
            stall_read: 120,
            half_close: 80,
            stall_ms: 40,
            ..Default::default()
        }
    }

    /// Everything at once, at lower rates.
    pub fn mixed() -> Self {
        FaultSpec {
            torn_write: 80,
            enospc: 40,
            lost_sync: 40,
            bit_flip: 0,
            conn_drop: 80,
            stall_read: 60,
            half_close: 40,
            stall_ms: 25,
        }
    }

    /// Named profile lookup for the CLI (`--fault-profile`).
    pub fn profile(name: &str) -> Option<Self> {
        match name {
            "torn" => Some(Self::torn()),
            "enospc" => Some(Self::enospc()),
            "conn" => Some(Self::conn()),
            "mixed" => Some(Self::mixed()),
            _ => None,
        }
    }
}

/// A fault to inject on a corpus file operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiskFault {
    /// Write only `keep_permille`/1000 of the buffer, then fail.
    Torn { keep_permille: u32 },
    /// Fail immediately with an `ENOSPC`-style error.
    Enospc,
    /// Complete the write but skip its fsync.
    LostSync,
    /// Complete the write, then flip bit `bit_seed % (len*8)` in place.
    BitFlip { bit_seed: u64 },
}

/// A fault to inject on a serve connection operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetFault {
    /// Write only `keep_permille`/1000 of the frame, then sever.
    DropMidFrame { keep_permille: u32 },
    /// Sleep `ms` before proceeding with the read.
    StallRead { ms: u64 },
    /// Shut down the write side after sending, dropping the reply path.
    HalfClose,
}

/// Snapshot of how many faults a plan has injected, by kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    pub torn_writes: u64,
    pub enospc: u64,
    pub lost_syncs: u64,
    pub bit_flips: u64,
    pub conn_drops: u64,
    pub stalled_reads: u64,
    pub half_closes: u64,
}

impl FaultStats {
    /// Total faults injected across all kinds.
    pub fn total(&self) -> u64 {
        self.torn_writes
            + self.enospc
            + self.lost_syncs
            + self.bit_flips
            + self.conn_drops
            + self.stalled_reads
            + self.half_closes
    }
}

/// A deterministic fault schedule: decisions are a pure function of
/// `(seed, per-plan op counter, call site)`, so re-running the same
/// operations against the same seed replays the same faults.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    spec: FaultSpec,
    ops: AtomicU64,
    injected: Mutex<FaultStats>,
}

const SITE_DISK: u64 = 0x6469_736b; // "disk"
const SITE_NET: u64 = 0x6e65_7400; // "net"

impl FaultPlan {
    pub fn new(seed: u64, spec: FaultSpec) -> Self {
        FaultPlan {
            seed,
            spec,
            ops: AtomicU64::new(0),
            injected: Mutex::new(FaultStats::default()),
        }
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    pub fn spec(&self) -> FaultSpec {
        self.spec
    }

    /// One deterministic roll for this operation at this site.
    fn roll(&self, site: u64) -> u64 {
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        splitmix64(self.seed ^ op.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ site)
    }

    /// Decides whether the next disk write should fail, and how.
    pub fn disk_fault(&self) -> Option<DiskFault> {
        let s = &self.spec;
        let total = s.torn_write + s.enospc + s.lost_sync + s.bit_flip;
        if total == 0 {
            return None;
        }
        let r = self.roll(SITE_DISK);
        let pick = (r % 1000) as u32;
        if pick >= total.min(1000) {
            return None;
        }
        // Weighted choice among the enabled kinds; a second mix supplies
        // the fault's own parameter (tear point / bit index).
        let param = splitmix64(r);
        if pick < s.torn_write {
            self.injected.lock().unwrap().torn_writes += 1;
            Some(DiskFault::Torn {
                keep_permille: (param % 999) as u32 + 1,
            })
        } else if pick < s.torn_write + s.enospc {
            self.injected.lock().unwrap().enospc += 1;
            Some(DiskFault::Enospc)
        } else if pick < s.torn_write + s.enospc + s.lost_sync {
            self.injected.lock().unwrap().lost_syncs += 1;
            Some(DiskFault::LostSync)
        } else {
            self.injected.lock().unwrap().bit_flips += 1;
            Some(DiskFault::BitFlip { bit_seed: param })
        }
    }

    /// Decides whether the next connection operation should fail.
    pub fn net_fault(&self) -> Option<NetFault> {
        let s = &self.spec;
        let total = s.conn_drop + s.stall_read + s.half_close;
        if total == 0 {
            return None;
        }
        let r = self.roll(SITE_NET);
        let pick = (r % 1000) as u32;
        if pick >= total.min(1000) {
            return None;
        }
        let param = splitmix64(r);
        if pick < s.conn_drop {
            self.injected.lock().unwrap().conn_drops += 1;
            Some(NetFault::DropMidFrame {
                keep_permille: (param % 999) as u32 + 1,
            })
        } else if pick < s.conn_drop + s.stall_read {
            self.injected.lock().unwrap().stalled_reads += 1;
            Some(NetFault::StallRead { ms: s.stall_ms })
        } else {
            self.injected.lock().unwrap().half_closes += 1;
            Some(NetFault::HalfClose)
        }
    }

    /// Injection counters so far.
    pub fn stats(&self) -> FaultStats {
        *self.injected.lock().unwrap()
    }
}

/// splitmix64: the standard 64-bit finalizer-style mixer. Good enough
/// for fault scheduling and fully deterministic.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fault plan one owner (a corpus, and through it its daemon)
/// consults. Disarmed — the default — [`FaultHook::plan`] is one relaxed
/// atomic load.
#[derive(Debug, Default)]
pub struct FaultHook {
    armed: AtomicBool,
    plan: Mutex<Option<Arc<FaultPlan>>>,
}

impl FaultHook {
    /// Arms `plan`, replacing any previous one; `None` disarms.
    pub fn set(&self, plan: Option<Arc<FaultPlan>>) {
        let mut slot = self.plan.lock().unwrap();
        self.armed.store(plan.is_some(), Ordering::Release);
        *slot = plan;
    }

    /// The armed plan, if any.
    #[inline]
    pub fn plan(&self) -> Option<Arc<FaultPlan>> {
        if !self.armed.load(Ordering::Relaxed) {
            return None;
        }
        self.plan.lock().unwrap().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_replays_the_same_schedule() {
        let a = FaultPlan::new(42, FaultSpec::mixed());
        let b = FaultPlan::new(42, FaultSpec::mixed());
        let seq_a: Vec<_> = (0..256).map(|_| a.disk_fault()).collect();
        let seq_b: Vec<_> = (0..256).map(|_| b.disk_fault()).collect();
        assert_eq!(seq_a, seq_b);
        let net_a: Vec<_> = (0..256).map(|_| a.net_fault()).collect();
        let net_b: Vec<_> = (0..256).map(|_| b.net_fault()).collect();
        assert_eq!(net_a, net_b);
    }

    #[test]
    fn different_seeds_diverge() {
        let a = FaultPlan::new(1, FaultSpec::mixed());
        let b = FaultPlan::new(2, FaultSpec::mixed());
        let seq_a: Vec<_> = (0..256).map(|_| a.disk_fault()).collect();
        let seq_b: Vec<_> = (0..256).map(|_| b.disk_fault()).collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn zero_spec_never_fires_and_counts_nothing() {
        let p = FaultPlan::new(7, FaultSpec::default());
        for _ in 0..1000 {
            assert_eq!(p.disk_fault(), None);
            assert_eq!(p.net_fault(), None);
        }
        assert_eq!(p.stats().total(), 0);
    }

    #[test]
    fn rates_are_roughly_honored() {
        let p = FaultPlan::new(
            9,
            FaultSpec {
                enospc: 500,
                ..Default::default()
            },
        );
        let hits = (0..2000).filter(|_| p.disk_fault().is_some()).count();
        // 500‰ over 2000 draws: expect ~1000, allow wide slack.
        assert!((700..1300).contains(&hits), "hits = {hits}");
        assert_eq!(p.stats().enospc, hits as u64);
    }

    #[test]
    fn hook_yields_no_fault_when_cleared() {
        let disk = |h: &FaultHook| h.plan().and_then(|p| p.disk_fault());
        let net = |h: &FaultHook| h.plan().and_then(|p| p.net_fault());
        let hook = FaultHook::default();
        assert_eq!((disk(&hook), net(&hook)), (None, None));
        let spec = FaultSpec {
            enospc: 1000,
            ..Default::default()
        };
        hook.set(Some(Arc::new(FaultPlan::new(3, spec))));
        assert_eq!(disk(&hook), Some(DiskFault::Enospc));
        hook.set(None);
        assert_eq!((disk(&hook), net(&hook)), (None, None));
    }

    #[test]
    fn profiles_resolve() {
        assert!(FaultSpec::profile("torn").is_some());
        assert!(FaultSpec::profile("enospc").is_some());
        assert!(FaultSpec::profile("conn").is_some());
        assert!(FaultSpec::profile("mixed").is_some());
        assert!(FaultSpec::profile("nope").is_none());
    }
}
