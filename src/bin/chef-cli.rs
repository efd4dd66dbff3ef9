//! Command-line front-end: point Chef at a MiniPy/MiniLua source file and
//! generate a test suite — one-shot, or through the persistent `chef-serve`
//! daemon.
//!
//! ```console
//! $ chef-cli run program.py --entry validate --sym-str email:8
//! $ chef-cli run script.lua --entry parse --sym-str json:5 --strategy cupa-coverage
//! $ chef-cli serve --addr 127.0.0.1:4455 --data-dir ./chef-data
//! $ chef-cli submit program.py --entry validate --sym-str email:8
//! $ chef-cli status s1 && chef-cli results s1
//! $ chef-cli disasm program.py
//! ```

use std::process::ExitCode;
use std::time::Duration;

use chef::core::fault::{FaultPlan, FaultSpec};
use chef::core::{Chef, ChefConfig, StrategyKind, TestCase, TestStatus};
use chef::fleet::{run_fleet, FleetConfig};
use chef::minipy::{build_program, CompiledModule, InterpreterOptions};
use chef::serve::{parse_strategy, Client, JobLang, JobSpec, ServeConfig, Server, SessionStatus};

/// Default daemon address shared by `serve` and the client subcommands.
const DEFAULT_ADDR: &str = "127.0.0.1:4455";

fn usage() -> ExitCode {
    eprintln!(
        "usage:
  chef-cli run <file.py|file.lua> --entry <fn> [--sym-str name:len]...
           [--sym-int name:min:max]...
           [--strategy random|dfs|cupa-path|cupa-coverage]
           [--budget <ll-instructions>] [--vanilla] [--seed <n>]
           [--jobs <n>] [--portfolio] [--ff-mode off|fixed|adaptive]
           [--no-fast-forward] [--trace-level off|counters|spans]
  chef-cli disasm <file.py|file.lua>
  chef-cli profile (--package <name> | <file.py|file.lua> --entry <fn>
                  [--sym-str name:len]... [--sym-int name:min:max]...)
                  [--strategy <s>] [--budget <n>] [--seed <n>]
                  [--ff-mode off|fixed|adaptive] [--no-fast-forward]
                  [--ff-sites-json]

  chef-cli serve  [--addr <host:port>] [--data-dir <dir>]
                  [--checkpoint-interval <ll-instructions>]
                  [--workers <n>] [--max-sessions <n>] [--max-conns <n>]
                  [--corpus-budget <bytes>] [--slice-timeout-ms <ms>]
                  [--ff-mode off|fixed|adaptive] [--no-fast-forward]
                  [--trace-level off|counters|spans]
                  [--fault-profile torn|enospc|conn|mixed] [--fault-seed <n>]
  chef-cli submit <file.py|file.lua> --entry <fn> [--sym-str name:len]...
                  [--sym-int name:min:max]... [--strategy <s>]
                  [--budget <n>] [--seed <n>] [--jobs <n>] [--quota <n>]
                  [--addr <host:port>] [--wait]
  chef-cli status   <session> [--addr <host:port>]
  chef-cli stats    [--addr <host:port>] [--json]
  chef-cli top      [--addr <host:port>]
  chef-cli trace    [--addr <host:port>] [--after <seq>]
  chef-cli sessions [--addr <host:port>]
  chef-cli results  <session> [--addr <host:port>]
  chef-cli pause    <session> [--addr <host:port>]
  chef-cli resume   <session> [--addr <host:port>]
  chef-cli shutdown [--addr <host:port>]

  --jobs n      explore with n parallel workers (chef-fleet)
  --portfolio   run a strategy portfolio across the workers against a
                shared coverage map (implies --jobs >= 2 unless given)
  --wait        block until the submitted session settles, then print its
                status
  --workers n      daemon worker pool size (sessions share it fairly)
  --max-sessions n admission cap: reject submits beyond n live sessions
  --max-conns n    cap concurrent client connections
  --corpus-budget b per-target tests.bin byte budget
  --slice-timeout-ms n  watchdog deadline per scheduler slice (0 disables)
  --fault-profile p deterministic fault injection: torn, enospc, conn, mixed
  --fault-seed n    seed for the fault plan (default 1; needs --fault-profile)
  --quota n     fair-share weight of the session (default 100)
  --ff-mode m   concrete fast-forward gating: off, fixed (global
                backoff window), or adaptive (per-site backoff with CFG
                anchors and superinstruction blocks; default); tests are
                byte-identical in every mode
  --no-fast-forward  legacy alias for --ff-mode off
  --ff-sites-json  (profile) dump the per-site fast-forward table as
                JSON to stdout instead of the folded-stack profile
  --trace-level l  phase time attribution: off (default), counters
                (counts only), spans (counts + self-time); reporting
                only — generated tests are byte-identical at any level
  --json        print the raw daemon stats reply as JSON
  profile       run one exploration with spans tracing and print a
                folded-stack profile (flamegraph.pl-compatible) with
                per-fork-point fast-forward attribution
  top           one-shot daemon view: per-session phase breakdowns,
                wire time, and recent scheduler events
  trace         drain raw daemon events after --after <seq>"
    );
    ExitCode::from(2)
}

fn compile_file(path: &str) -> Result<CompiledModule, String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if path.ends_with(".lua") {
        chef::minilua::compile(&source).map_err(|e| format!("{path}: {e}"))
    } else {
        chef::minipy::compile(&source).map_err(|e| format!("{path}: {e}"))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("disasm") => disasm(&args[1..]),
        Some("profile") => profile(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("submit") => submit(&args[1..]),
        Some("status") => session_cmd(&args[1..], SessionCmd::Status),
        Some("results") => session_cmd(&args[1..], SessionCmd::Results),
        Some("pause") => session_cmd(&args[1..], SessionCmd::Pause),
        Some("resume") => session_cmd(&args[1..], SessionCmd::Resume),
        Some("sessions") => sessions(&args[1..]),
        Some("stats") => stats(&args[1..]),
        Some("top") => top(&args[1..]),
        Some("trace") => trace_cmd(&args[1..]),
        Some("shutdown") => shutdown(&args[1..]),
        _ => usage(),
    }
}

fn disasm(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage();
    };
    match compile_file(path) {
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        Ok(module) => {
            for (i, f) in module.funcs.iter().enumerate() {
                println!(
                    "code object #{i}: {} ({} params, {} locals)",
                    f.name, f.n_params, f.n_locals
                );
                print!("{}", f.disassemble());
                println!();
            }
            ExitCode::SUCCESS
        }
    }
}

/// Builds the job specification `run` and `submit` share: source file,
/// entry, and the `--sym-str name:len` / `--sym-int name:min:max` flags.
/// This is the single place the argument grammar is parsed, and the
/// source is read exactly once — the corpus key and the explored program
/// always describe the same bytes.
fn spec_from_cli(
    path: &str,
    entry: &str,
    test_args: &[(String, String)],
) -> Result<JobSpec, String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut spec = JobSpec::new(JobLang::from_path(path), source, entry);
    for (kind, raw) in test_args {
        let parts: Vec<&str> = raw.split(':').collect();
        match (kind.as_str(), parts.as_slice()) {
            ("--sym-str", [name, len]) => match len.parse::<usize>() {
                Ok(len) => spec = spec.sym_str(*name, len),
                Err(_) => return Err(format!("bad --sym-str spec '{raw}'")),
            },
            ("--sym-int", [name, min, max]) => match (min.parse::<i64>(), max.parse::<i64>()) {
                (Ok(min), Ok(max)) => spec = spec.sym_int(*name, min, max),
                _ => return Err(format!("bad --sym-int spec '{raw}'")),
            },
            _ => return Err(format!("bad symbolic argument spec '{raw}'")),
        }
    }
    Ok(spec)
}

fn run(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage();
    };
    let mut entry = None;
    let mut test_args: Vec<(String, String)> = Vec::new();
    let mut strategy = StrategyKind::CupaPath;
    let mut budget = 2_000_000u64;
    let mut opts = InterpreterOptions::all();
    let mut seed = 0u64;
    let mut jobs: Option<usize> = None;
    let mut portfolio = false;
    let mut ff_mode = chef::core::FfMode::default();
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--entry" => entry = it.next().cloned(),
            "--sym-str" | "--sym-int" => {
                let Some(spec) = it.next() else {
                    return usage();
                };
                test_args.push((flag.clone(), spec.clone()));
            }
            "--strategy" => {
                let Some(s) = it.next().map(String::as_str).and_then(parse_strategy) else {
                    return usage();
                };
                strategy = s;
            }
            "--budget" => {
                let Some(v) = it.next().and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                budget = v;
            }
            "--seed" => {
                let Some(v) = it.next().and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                seed = v;
            }
            "--jobs" => {
                let Some(v) = it.next().and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                if v == 0 {
                    return usage();
                }
                jobs = Some(v);
            }
            "--portfolio" => portfolio = true,
            "--ff-mode" => {
                let Some(m) = it
                    .next()
                    .map(String::as_str)
                    .and_then(chef::core::FfMode::parse)
                else {
                    return usage();
                };
                ff_mode = m;
            }
            "--no-fast-forward" => ff_mode = chef::core::FfMode::Off,
            "--vanilla" => opts = InterpreterOptions::vanilla(),
            "--trace-level" => {
                let Some(l) = it
                    .next()
                    .map(String::as_str)
                    .and_then(chef::trace::parse_level)
                else {
                    return usage();
                };
                chef::trace::set_level(l);
            }
            other => {
                eprintln!("unknown flag {other}");
                return usage();
            }
        }
    }
    let Some(entry) = entry else {
        eprintln!("--entry is required");
        return usage();
    };
    // One spec describes the job: its target_key is the corpus identity
    // (the same key `chef-serve` files tests under, so one-shot runs and
    // daemon sessions line up) and its source/test build the program.
    let spec = match spec_from_cli(path, &entry, &test_args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let corpus_id = spec.target_key();
    let module = match spec.compile() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let prog = match build_program(&module, &opts, &spec.symbolic_test()) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let chef_config = ChefConfig {
        strategy,
        seed,
        max_ll_instructions: budget,
        per_path_fuel: budget / 8,
        ff_mode,
        ..ChefConfig::default()
    };
    // --portfolio alone spreads the default portfolio across as many
    // workers; an explicit --jobs (even 1) is respected.
    let jobs = match (jobs, portfolio) {
        (Some(n), _) => n,
        (None, true) => FleetConfig::default_portfolio().len(),
        (None, false) => 1,
    };
    if jobs > 1 || portfolio {
        let fleet_config = FleetConfig {
            jobs,
            base: chef_config,
            portfolio: portfolio.then(FleetConfig::default_portfolio),
            ..FleetConfig::default()
        };
        let report = run_fleet(&prog, fleet_config);
        let strategies: Vec<&str> = report.per_worker.iter().map(|r| r.strategy).collect();
        println!(
            "corpus={corpus_id} fleet jobs={} strategies={:?} build={} ll-instructions={} elapsed={:?}",
            report.jobs,
            strategies,
            opts.label(),
            report.exec_stats.ll_instructions,
            report.elapsed
        );
        println!(
            "{} low-level paths, {} high-level paths, {} tests ({} duplicates dropped), \
             {} hangs, {} crashes, {} seeds shipped",
            report.ll_paths,
            report.hl_paths,
            report.tests.len(),
            report.duplicates,
            report.hangs,
            report.crashes,
            report.seeds_shipped
        );
        // sat_share is SAT time over fleet *wall* time, unclamped: above
        // 100% means several workers sat in the solver at once.
        println!(
            "{:.0} paths/s, {:.0} tests/s, {:.1}% of wall time in SAT, \
             {:.0}% worker utilization",
            report.paths_per_sec(),
            report.tests_per_sec(),
            report.sat_share() * 100.0,
            report.wall_utilization() * 100.0
        );
        println!("solver: {}", report.solver_stats.summary());
        if chef::trace::level() != chef::trace::TraceLevel::Off {
            println!("trace: {}", report.trace.summary());
        }
        if !report.exceptions.is_empty() {
            println!("exceptions: {:?}", report.exceptions);
        }
        print_tests(report.tests.iter().filter(|t| t.new_hl_path));
        return ExitCode::SUCCESS;
    }
    let report = Chef::new(&prog, chef_config).run();
    println!(
        "corpus={corpus_id} strategy={} build={} ll-instructions={} elapsed={:?}",
        report.strategy,
        opts.label(),
        report.ll_instructions,
        report.elapsed
    );
    println!(
        "{} low-level paths, {} high-level paths, {} tests, {} hangs, {} crashes",
        report.ll_paths,
        report.hl_paths,
        report.tests.len(),
        report.hangs,
        report.crashes
    );
    println!("solver: {}", report.solver_stats.summary());
    if chef::trace::level() != chef::trace::TraceLevel::Off {
        println!("trace: {}", report.trace.summary());
    }
    if !report.exceptions.is_empty() {
        println!("exceptions: {:?}", report.exceptions);
    }
    print_tests(report.tests.iter().filter(|t| t.new_hl_path));
    ExitCode::SUCCESS
}

fn print_tests<'a>(tests: impl Iterator<Item = &'a TestCase>) {
    for t in tests {
        let mut parts = Vec::new();
        for (name, bytes) in &t.inputs {
            parts.push(format!("{name}={:?}", String::from_utf8_lossy(bytes)));
        }
        let status = match (&t.status, &t.exception) {
            (TestStatus::Hang, _) => "HANG".to_string(),
            (_, Some(e)) => format!("raises {e}"),
            (TestStatus::Ok(c), None) => format!("ok({c})"),
            (TestStatus::Crash(c), None) => format!("CRASH({c})"),
        };
        println!("  [{}] {} -> {}", t.id, parts.join(" "), status);
    }
}

/// One exploration under `spans` tracing, printed as a folded-stack
/// profile (one `chef;<phase> <weight>` line per phase, plus
/// `chef;ff;hlpc_*` fast-forward attribution) — pipe it straight into
/// `flamegraph.pl`. The human summary goes to stderr so stdout stays
/// machine-readable.
fn profile(args: &[String]) -> ExitCode {
    let mut package: Option<String> = None;
    let mut path: Option<String> = None;
    let mut entry: Option<String> = None;
    let mut test_args: Vec<(String, String)> = Vec::new();
    let mut strategy = StrategyKind::CupaPath;
    let mut budget = 1_000_000u64;
    let mut seed = 0u64;
    let mut ff_mode = chef::core::FfMode::default();
    let mut ff_sites_json = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--package" => package = it.next().cloned(),
            "--entry" => entry = it.next().cloned(),
            "--sym-str" | "--sym-int" => {
                let Some(spec) = it.next() else {
                    return usage();
                };
                test_args.push((flag.clone(), spec.clone()));
            }
            "--strategy" => {
                let Some(s) = it.next().map(String::as_str).and_then(parse_strategy) else {
                    return usage();
                };
                strategy = s;
            }
            "--budget" => {
                let Some(v) = it.next().and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                budget = v;
            }
            "--seed" => {
                let Some(v) = it.next().and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                seed = v;
            }
            "--ff-mode" => {
                let Some(m) = it
                    .next()
                    .map(String::as_str)
                    .and_then(chef::core::FfMode::parse)
                else {
                    return usage();
                };
                ff_mode = m;
            }
            "--no-fast-forward" => ff_mode = chef::core::FfMode::Off,
            "--ff-sites-json" => ff_sites_json = true,
            other if !other.starts_with("--") && path.is_none() => path = Some(other.to_string()),
            other => {
                eprintln!("unknown flag {other}");
                return usage();
            }
        }
    }
    chef::trace::set_level(chef::trace::TraceLevel::Spans);
    let report = if let Some(name) = package {
        let packages = chef::targets::all_packages();
        let Some(pkg) = packages.iter().find(|p| p.name == name) else {
            let known: Vec<&str> = packages.iter().map(|p| p.name).collect();
            eprintln!("unknown package '{name}'; known: {known:?}");
            return ExitCode::FAILURE;
        };
        pkg.run(&chef::targets::RunConfig {
            strategy,
            seed,
            max_ll_instructions: budget,
            per_path_fuel: budget / 8,
            ff_mode,
            ..chef::targets::RunConfig::default()
        })
    } else {
        let Some(path) = path else {
            eprintln!("profile needs --package <name> or a source file");
            return usage();
        };
        let Some(entry) = entry else {
            eprintln!("--entry is required");
            return usage();
        };
        let spec = match spec_from_cli(&path, &entry, &test_args) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {e}");
                return usage();
            }
        };
        let module = match spec.compile() {
            Ok(m) => m,
            Err(e) => {
                eprintln!("error: {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let prog = match build_program(&module, &InterpreterOptions::all(), &spec.symbolic_test()) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        let config = ChefConfig {
            strategy,
            seed,
            max_ll_instructions: budget,
            per_path_fuel: budget / 8,
            ff_mode,
            ..ChefConfig::default()
        };
        Chef::new(&prog, config).run()
    };
    if ff_sites_json {
        print!("{}", ff_sites_json_dump(&report));
    } else {
        print!("{}", report.trace.folded());
    }
    let (attempted, retired) = report
        .trace
        .ff_sites
        .values()
        .fold((0u64, 0u64), |(a, s), site| {
            (a + site.attempts, s + site.steps)
        });
    eprintln!(
        "{} tests, {} hl paths, {} ll instructions",
        report.tests.len(),
        report.hl_paths,
        report.ll_instructions
    );
    if attempted > 0 {
        eprintln!(
            "ff efficiency: {retired} retired / {attempted} attempted = {} per attempt \
             ({} skipped by gate)",
            retired / attempted.max(1),
            report.exec_stats.ff_skipped
        );
    }
    eprintln!("trace: {}", report.trace.summary());
    ExitCode::SUCCESS
}

/// Renders the per-site fast-forward table as a JSON array (sorted by
/// site so output is diff-stable): per site its profile counters from the
/// trace plane and the adaptive gate's current backoff gauge.
fn ff_sites_json_dump(report: &chef::core::Report) -> String {
    let mut sites: Vec<(&u64, &chef::trace::FfSite)> = report.trace.ff_sites.iter().collect();
    sites.sort_by_key(|&(pc, _)| *pc);
    let mut out = String::from("[\n");
    for (i, (pc, s)) in sites.iter().enumerate() {
        let sep = if i + 1 == sites.len() { "" } else { "," };
        out.push_str(&format!(
            "  {{\"site\": {pc}, \"attempts\": {}, \"retired\": {}, \"aborts\": {}, \
             \"steps\": {}, \"backoff\": {}}}{sep}\n",
            s.attempts, s.retired, s.aborts, s.steps, s.backoff
        ));
    }
    out.push_str("]\n");
    out
}

fn serve(args: &[String]) -> ExitCode {
    let mut config = ServeConfig {
        addr: DEFAULT_ADDR.into(),
        ..Default::default()
    };
    let mut fault_profile: Option<String> = None;
    let mut fault_seed = 1u64;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => {
                let Some(a) = it.next() else { return usage() };
                config.addr = a.clone();
            }
            "--data-dir" => {
                let Some(d) = it.next() else { return usage() };
                config.data_dir = d.into();
            }
            "--checkpoint-interval" => {
                let Some(v) = it.next().and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                config.checkpoint_interval_ll = v;
            }
            "--workers" => {
                let Some(v) = it.next().and_then(|s| s.parse().ok()).filter(|v| *v > 0) else {
                    return usage();
                };
                config.workers = v;
            }
            "--max-sessions" => {
                let Some(v) = it.next().and_then(|s| s.parse().ok()).filter(|v| *v > 0) else {
                    return usage();
                };
                config.max_sessions = v;
            }
            "--max-conns" => {
                let Some(v) = it.next().and_then(|s| s.parse().ok()).filter(|v| *v > 0) else {
                    return usage();
                };
                config.max_connections = v;
            }
            "--corpus-budget" => {
                let Some(v) = it.next().and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                config.corpus_budget_bytes = Some(v);
            }
            "--slice-timeout-ms" => {
                let Some(v) = it.next().and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                config.slice_timeout_ms = v;
            }
            "--ff-mode" => {
                let Some(m) = it
                    .next()
                    .map(String::as_str)
                    .and_then(chef::core::FfMode::parse)
                else {
                    return usage();
                };
                config.ff_mode = m;
            }
            "--no-fast-forward" => config.ff_mode = chef::core::FfMode::Off,
            "--trace-level" => {
                let Some(l) = it
                    .next()
                    .map(String::as_str)
                    .and_then(chef::trace::parse_level)
                else {
                    return usage();
                };
                chef::trace::set_level(l);
            }
            "--fault-profile" => {
                let Some(p) = it.next() else { return usage() };
                if FaultSpec::profile(p).is_none() {
                    eprintln!("unknown fault profile {p}");
                    return usage();
                }
                fault_profile = Some(p.clone());
            }
            "--fault-seed" => {
                let Some(v) = it.next().and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                fault_seed = v;
            }
            other => {
                eprintln!("unknown flag {other}");
                return usage();
            }
        }
    }
    // Arm the fault plan after the bind: startup scrub and recovery
    // run clean (a restarting daemon repairs before it re-injects), so a
    // faulty daemon killed and restarted with the same flags converges.
    let server = match Server::bind(config.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot start daemon: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(profile) = &fault_profile {
        let spec = FaultSpec::profile(profile).expect("profile validated above");
        server.set_fault_plan(Some(std::sync::Arc::new(FaultPlan::new(fault_seed, spec))));
        println!("fault injection active: profile={profile} seed={fault_seed}");
    }
    match server.local_addr() {
        Ok(addr) => println!(
            "chef-serve listening on {addr}, data in {}",
            config.data_dir.display()
        ),
        Err(_) => println!("chef-serve listening"),
    }
    match server.run() {
        Ok(()) => {
            println!("chef-serve stopped (sessions checkpointed)");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: daemon failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn submit(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage();
    };
    let mut addr = DEFAULT_ADDR.to_string();
    let mut entry = None;
    let mut test_args: Vec<(String, String)> = Vec::new();
    let mut strategy = StrategyKind::CupaPath;
    let mut budget = 2_000_000u64;
    let mut seed = 0u64;
    let mut jobs = 1usize;
    let mut quota = 100u64;
    let mut wait = false;
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--entry" => entry = it.next().cloned(),
            "--sym-str" | "--sym-int" => {
                let Some(spec) = it.next() else {
                    return usage();
                };
                test_args.push((flag.clone(), spec.clone()));
            }
            "--strategy" => {
                let Some(s) = it.next().map(String::as_str).and_then(parse_strategy) else {
                    return usage();
                };
                strategy = s;
            }
            "--budget" => {
                let Some(v) = it.next().and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                budget = v;
            }
            "--seed" => {
                let Some(v) = it.next().and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                seed = v;
            }
            "--jobs" => {
                let Some(v) = it.next().and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                jobs = v;
            }
            "--quota" => {
                let Some(v) = it.next().and_then(|s| s.parse().ok()).filter(|v| *v > 0) else {
                    return usage();
                };
                quota = v;
            }
            "--addr" => {
                let Some(a) = it.next() else { return usage() };
                addr = a.clone();
            }
            "--wait" => wait = true,
            other => {
                eprintln!("unknown flag {other}");
                return usage();
            }
        }
    }
    let Some(entry) = entry else {
        eprintln!("--entry is required");
        return usage();
    };
    let mut spec = match spec_from_cli(path, &entry, &test_args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    spec.strategy = strategy;
    spec.budget = budget;
    spec.seed = seed;
    spec.jobs = jobs.max(1);
    spec.quota = quota;
    let client = Client::new(addr);
    match client.submit(&spec) {
        Ok(session) => {
            println!("session={session} corpus={}", spec.target_key());
            if wait {
                match client.wait_settled(&session, Duration::from_secs(24 * 3600)) {
                    Ok(st) => print_status(&st),
                    Err(e) => {
                        eprintln!("error: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

enum SessionCmd {
    Status,
    Results,
    Pause,
    Resume,
}

fn parse_addr(args: &[String]) -> Option<String> {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => addr = it.next()?.clone(),
            _ => return None,
        }
    }
    Some(addr)
}

fn print_status(st: &SessionStatus) {
    let live = if st.state == "running" {
        let place = match st.queue_position {
            0 => " queue-position=executing".to_string(),
            p if p > 0 => format!(" queue-position={p}"),
            _ => String::new(),
        };
        format!(
            " live-tests={} tests-per-sec={:.2}{place}",
            st.live_tests, st.tests_per_sec
        )
    } else {
        String::new()
    };
    println!(
        "session={} state={} corpus={} corpus-tests={} new-tests={} seeded={} \
         ll-instructions={} covered-hlpcs={} resume-snapshot={} resume-full={} \
         quota={} cpu-share={:.3} slices={} preemptions={} wait-ms={}{live}",
        st.session,
        st.state,
        st.target,
        st.corpus_tests,
        st.new_tests,
        st.seeded_tests,
        st.ll_instructions,
        st.covered_hlpcs,
        st.resume_snapshot_seeds,
        st.resume_full_seeds,
        st.quota,
        st.cpu_share,
        st.sched_slices,
        st.preemptions,
        st.wait_ms
    );
}

fn session_cmd(args: &[String], cmd: SessionCmd) -> ExitCode {
    let Some(session) = args.first() else {
        return usage();
    };
    let Some(addr) = parse_addr(&args[1..]) else {
        return usage();
    };
    let client = Client::new(addr);
    let result = match cmd {
        SessionCmd::Status => client.status(session).map(|st| print_status(&st)),
        SessionCmd::Results => client.results(session).map(|tests| {
            println!("{} corpus tests:", tests.len());
            print_tests(tests.iter());
        }),
        SessionCmd::Pause => client.pause(session).map(|()| {
            println!("pause requested for {session}");
        }),
        SessionCmd::Resume => client.resume(session).map(|()| {
            println!("resumed {session}");
        }),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn sessions(args: &[String]) -> ExitCode {
    let Some(addr) = parse_addr(args) else {
        return usage();
    };
    match Client::new(addr).list() {
        Ok(list) => {
            for st in &list {
                print_status(st);
            }
            if list.is_empty() {
                println!("no sessions");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn stats(args: &[String]) -> ExitCode {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut json_out = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => {
                let Some(a) = it.next() else { return usage() };
                addr = a.clone();
            }
            "--json" => json_out = true,
            _ => return usage(),
        }
    }
    if json_out {
        // The raw reply, so scripts see every field the daemon serves —
        // including ones newer than this binary's typed struct.
        return match Client::new(addr).stats_raw() {
            Ok(v) => {
                println!("{}", v.to_json());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match Client::new(addr).stats() {
        Ok(st) => {
            let fault = match st.fault_seed {
                Some(seed) => format!(" fault-seed={seed} faults-injected={}", st.faults_injected),
                None => String::new(),
            };
            println!(
                "sessions={} running={} conns-dropped={} io-pauses={} \
                 watchdog-aborts={} poisoned-seeds={} scrub-ms={} \
                 frames-repaired={} bytes-truncated={} snapshots-dropped={} \
                 quarantined={} tmp-cleaned={}{fault}",
                st.sessions,
                st.running,
                st.conns_dropped,
                st.io_pauses,
                st.watchdog_aborts,
                st.poisoned_seeds,
                st.scrub_ms,
                st.frames_repaired,
                st.bytes_truncated,
                st.snapshots_dropped,
                st.quarantined,
                st.tmp_cleaned
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One-shot daemon observability view, rendered from the `trace` command:
/// why is each session in the state it is in, where is its time going,
/// and what has the scheduler done lately.
fn top(args: &[String]) -> ExitCode {
    use chef::serve::json::Value;
    let Some(addr) = parse_addr(args) else {
        return usage();
    };
    let resp = match Client::new(addr).trace(0) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let str_of = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap_or("").to_string();
    let int_of = |v: &Value, k: &str| v.get(k).and_then(Value::as_i64).unwrap_or(0);
    println!(
        "trace-level={}",
        resp.get("level").and_then(Value::as_str).unwrap_or("?")
    );
    if let Some(daemon) = resp.get("daemon") {
        let wire_us = int_of(daemon, "busy_us");
        if wire_us > 0 {
            println!(
                "daemon wire-io: {wire_us}us ({})",
                str_of(daemon, "summary")
            );
        }
    }
    for sess in resp.get("sessions").and_then(Value::as_arr).unwrap_or(&[]) {
        let summary = sess
            .get("trace")
            .map(|t| str_of(t, "summary"))
            .unwrap_or_default();
        let phases = if summary.is_empty() {
            "no trace data (daemon tracing off?)".to_string()
        } else {
            summary
        };
        // Fast-forward efficiency: concrete instructions retired per
        // segment attempt — the number the adaptive gate maximizes.
        let ff = sess
            .get("trace")
            .map(|t| (int_of(t, "ff_attempts"), int_of(t, "ff_retired")))
            .filter(|&(attempts, _)| attempts > 0)
            .map(|(attempts, retired)| format!(" ff-eff={}/attempt", retired / attempts.max(1)))
            .unwrap_or_default();
        println!(
            "session={} state={} slices={} wait-ms={}{ff} | {phases}",
            str_of(sess, "session"),
            str_of(sess, "state"),
            int_of(sess, "sched_slices"),
            int_of(sess, "wait_ms"),
        );
    }
    let events = resp.get("events").and_then(Value::as_arr).unwrap_or(&[]);
    // Recent history only: `top` is a glance, `trace` is the full drain.
    let tail = events.len().saturating_sub(15);
    if !events.is_empty() {
        println!("recent events:");
    }
    for e in &events[tail..] {
        print_event(e);
    }
    ExitCode::SUCCESS
}

/// Prints one daemon event as a stable single line.
fn print_event(e: &chef::serve::json::Value) {
    use chef::serve::json::Value;
    let detail = e.get("detail").and_then(Value::as_str).unwrap_or("");
    let sep = if detail.is_empty() { "" } else { " " };
    println!(
        "  [{:>8}ms] #{} {} session={}{sep}{detail}",
        e.get("ms").and_then(Value::as_i64).unwrap_or(0),
        e.get("seq").and_then(Value::as_i64).unwrap_or(0),
        e.get("kind").and_then(Value::as_str).unwrap_or("?"),
        e.get("session").and_then(Value::as_str).unwrap_or("?"),
    );
}

/// Drains raw daemon events after a cursor; prints the next cursor so a
/// caller can poll incrementally.
fn trace_cmd(args: &[String]) -> ExitCode {
    use chef::serve::json::Value;
    let mut addr = DEFAULT_ADDR.to_string();
    let mut after = 0u64;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => {
                let Some(a) = it.next() else { return usage() };
                addr = a.clone();
            }
            "--after" => {
                let Some(v) = it.next().and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                after = v;
            }
            _ => return usage(),
        }
    }
    match Client::new(addr).trace(after) {
        Ok(resp) => {
            for e in resp.get("events").and_then(Value::as_arr).unwrap_or(&[]) {
                print_event(e);
            }
            println!(
                "next={}",
                resp.get("next").and_then(Value::as_i64).unwrap_or(0)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn shutdown(args: &[String]) -> ExitCode {
    let Some(addr) = parse_addr(args) else {
        return usage();
    };
    match Client::new(addr).shutdown() {
        Ok(()) => {
            println!("daemon asked to shut down");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
