//! The vendored guest programs and the seeded job generator.
//!
//! Guests live under `chefbench/guests/` (see its README for why each was
//! chosen), so edits to `crates/targets` never change what is measured.
//! Every guest is described as a [`JobSpec`]: the same type a daemon
//! client submits, and the one place that knows how to compile a guest
//! and build its instrumented interpreter.

use chef_core::ChefConfig;
use chef_serve::{JobLang, JobSpec};

/// `simplejson` analogue (MiniPy).
pub const SIMPLEJSON: &str = include_str!("../guests/simplejson.py");
/// `xlrd` analogue (MiniPy).
pub const XLRD: &str = include_str!("../guests/xlrd.py");
/// `ConfigParser` analogue (MiniPy).
pub const CONFIGPARSER: &str = include_str!("../guests/configparser.py");
/// `lua-haml` analogue (MiniLua).
pub const HAML: &str = include_str!("../guests/haml.lua");
/// The `parse_doc` driver appended to [`SIMPLEJSON`]; `{{DOC}}` and
/// `{{REPEAT}}` are filled in by [`parse_doc`].
pub const PARSE_DOC_DRIVER: &str = include_str!("../guests/parse_doc_driver.py");
/// The fixed concrete document `parse_doc` decodes over and over.
pub const PARSE_DOC_DOCUMENT: &str = include_str!("../guests/parse_doc_document.json");
/// The `serve_fresh` job template; [`fresh_jobs`] fills in `{{LEN}}`,
/// `{{MARK}}`, `{{SALT}}` and `{{BOUND}}`.
pub const FRESH_JOB_TEMPLATE: &str = include_str!("../guests/serve_fresh_job.py");

/// A budget no workload reaches: every workload runs to exhaustion, so
/// its work is defined by the guest, not by an instruction count. Fits the
/// daemon protocol's signed JSON integers.
pub const UNBOUNDED_LL: u64 = 1 << 50;

/// The engine configuration users get — `ChefConfig::default()` — with
/// only the budgets lifted. The engine's RNG seed stays at its default:
/// `--seed` reaches the program only through generated inputs.
pub fn engine_config() -> ChefConfig {
    ChefConfig {
        max_ll_instructions: UNBOUNDED_LL,
        per_path_fuel: UNBOUNDED_LL,
        max_wall: None,
        ..ChefConfig::default()
    }
}

fn unbounded(mut spec: JobSpec) -> JobSpec {
    spec.budget = UNBOUNDED_LL;
    spec
}

/// `simplejson.loads(json)` over `sym_bytes` symbolic bytes.
pub fn simplejson(sym_bytes: usize) -> JobSpec {
    unbounded(JobSpec::new(JobLang::Python, SIMPLEJSON, "loads").sym_str("json", sym_bytes))
}

/// `xlrd.open_workbook(xls)` over `sym_bytes` symbolic bytes.
pub fn xlrd(sym_bytes: usize) -> JobSpec {
    unbounded(JobSpec::new(JobLang::Python, XLRD, "open_workbook").sym_str("xls", sym_bytes))
}

/// `ConfigParser.parse(config)` over `sym_bytes` symbolic bytes.
pub fn configparser(sym_bytes: usize) -> JobSpec {
    unbounded(JobSpec::new(JobLang::Python, CONFIGPARSER, "parse").sym_str("config", sym_bytes))
}

/// `lua-haml.render(src)` over `sym_bytes` symbolic bytes.
pub fn haml(sym_bytes: usize) -> JobSpec {
    unbounded(JobSpec::new(JobLang::Lua, HAML, "render").sym_str("src", sym_bytes))
}

/// Escapes `s` as the body of a MiniPy double-quoted string literal.
fn minipy_literal(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// simplejson plus the `parse_doc(tail)` driver: `repeat` decodes of the
/// fixed concrete document, then one decode of a 2-byte symbolic tail.
pub fn parse_doc(repeat: usize) -> JobSpec {
    let driver = PARSE_DOC_DRIVER
        .replace("{{DOC}}", &minipy_literal(PARSE_DOC_DOCUMENT.trim_end()))
        .replace("{{REPEAT}}", &repeat.to_string());
    let source = format!("{SIMPLEJSON}\n{driver}");
    unbounded(JobSpec::new(JobLang::Python, source, "parse_doc").sym_str("tail", 2))
}

/// splitmix64: the generator's only source of randomness, so a job list
/// is a pure function of the seed on every platform.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Rough cost model of one generated job, in microseconds of engine time
/// on the box the benchmark was sized on (commit `36cb0c1`, 2 cores):
/// exploring the `2^len` fork tree alone (`len` = 3..=6), and one scan-loop
/// iteration on one path. The model only *shapes* the job-size
/// distribution; nothing is measured against it.
const FRESH_TREE_US: [u64; 4] = [5_300, 12_000, 28_600, 74_000];
const FRESH_ITER_US: u64 = 52;
/// Smallest job target; the ladder below spans it to ~18x (6–110 ms).
const FRESH_TARGET_MIN_US: u64 = 6_000;
const FRESH_TARGET_RUNGS: u64 = 970;

/// `n` distinct MiniPy jobs for `serve_fresh`, a pure function of `seed`.
///
/// Each job has `2^len` paths (`len` symbolic bytes, 3–6) and every path
/// runs a concrete scan loop of `bound` iterations. Target engine times
/// are *stratified*: job `k` of `n` sits on rung `k/n` of a fine
/// log-uniform ladder (plus a seeded jitter of less than one stratum), and
/// takes the tree sizes that fit its target in turn. Two things follow.
/// Sizes are near-continuous, so the latency median never sits in a gap
/// between two size classes, where it would jump from run to run. And
/// every seed draws almost the same multiset of sizes, so total work — and
/// with it `wall_s` — does not depend on the luck of the draw; the seed
/// decides the submission order, the byte each job scans for, and its
/// salt. The salt makes every source (hence every corpus target)
/// distinct, so no job warm-starts from another's corpus.
pub fn fresh_jobs(seed: u64, n: usize) -> Vec<JobSpec> {
    let mut rng = SplitMix(seed ^ 0x6368_6566_6265_6e63); // "chefbenc"
    let mut strata: Vec<u64> = (0..n as u64).collect();
    for i in (1..n).rev() {
        strata.swap(i, rng.below(i as u64 + 1) as usize);
    }
    // Jitter: less than one stratum, and never more than 2.4 % of a size,
    // so a short list (the 10-job warm-up) costs the same under every seed.
    let jitter = (FRESH_TARGET_RUNGS / n.max(1) as u64).clamp(1, 8);
    strata
        .into_iter()
        .enumerate()
        .map(|(slot, stratum)| {
            // Integer geometric ladder: 0.3 % per rung, no floats, so the
            // list is byte-identical on every platform.
            let rung = stratum * FRESH_TARGET_RUNGS / n as u64 + rng.below(jitter);
            let mut target_us = FRESH_TARGET_MIN_US;
            for _ in 0..rung {
                target_us += target_us.div_ceil(333);
            }
            let fits = FRESH_TREE_US
                .iter()
                .filter(|&&tree| tree * 100 <= target_us * 85)
                .count()
                .max(1);
            let class = stratum as usize % fits;
            let len = 3 + class;
            let scan_us = target_us.saturating_sub(FRESH_TREE_US[class]);
            let bound = (scan_us / (FRESH_ITER_US << len)).max(1);
            let mark = (b'a' + rng.below(26) as u8) as char;
            let salt = 1000 + 16 * slot as u64 + rng.below(16);
            let source = FRESH_JOB_TEMPLATE
                .replace("{{LEN}}", &len.to_string())
                .replace("{{MARK}}", &mark.to_string())
                .replace("{{SALT}}", &salt.to_string())
                .replace("{{BOUND}}", &bound.to_string());
            unbounded(JobSpec::new(JobLang::Python, source, "job").sym_str("msg", len))
        })
        .collect()
}
