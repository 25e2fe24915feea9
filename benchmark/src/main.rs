//! The repository's one yardstick. One binary is supervisor and
//! self-respawned rank:
//!
//! * `benchmark --workload W --seed N --seconds S --trace 0|1` runs one
//!   workload and prints one JSON result line (the `BENCHMARK.json`
//!   contract);
//! * `benchmark run [--smoke] [--seed N] [--seconds S] [--sets K] [--out F]`
//!   runs all four workloads untraced and traced, prints every metric
//!   by name with its unit, and writes a result file with the host
//!   fingerprint;
//! * `benchmark compare BASE.json NEW.json` judges one result file
//!   against another (`--sets N --base-exe A --new-exe B` produces the
//!   two files first, alternating the executables);
//! * `benchmark manifest` prints what `BENCHMARK.json` must contain;
//! * `benchmark rank …` is what the supervisor spawns.
//!
//! See `README.md` next to `Cargo.toml` for workloads, metric
//! definitions and how the layers are expected to interact.

mod compare;
mod counters;
mod gen;
mod json;
mod metrics;
mod rank;
mod stats;
mod supervise;
mod trace;

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use serde_json::Value;

use json::{int, num, obj, text};
use metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use supervise::{contract_line, run_workload, Outcome, RunConfig, MIN_SETUPS, OUT_DIR};

/// `--name value` pairs after the positional arguments.
pub struct Args {
    pub positional: Vec<String>,
    flags: HashMap<String, String>,
}

/// What a user may set. The sizes of a run are not among them: they
/// are constants of the benchmark (`supervise::RunConfig::sizes`).
const USER_FLAGS: [&str; 9] = [
    "workload", "seed", "seconds", "trace", "smoke", "sets", "out", "base-exe", "new-exe",
];

impl Args {
    fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut out = Args {
            positional: Vec::new(),
            flags: HashMap::new(),
        };
        let mut args = args.peekable();
        while let Some(a) = args.next() {
            match a.strip_prefix("--") {
                Some("smoke") => {
                    out.flags.insert("smoke".into(), "1".into());
                }
                Some(name) => {
                    let value = args
                        .next()
                        .ok_or_else(|| format!("--{name} needs a value"))?;
                    out.flags.insert(name.into(), value);
                }
                None => out.positional.push(a),
            }
        }
        // `rank` is what the supervisor spawns; its flags are its own.
        if out.positional.first().map(String::as_str) != Some("rank") {
            if let Some(f) = out.flags.keys().find(|f| !USER_FLAGS.contains(&f.as_str())) {
                return Err(format!("unknown flag --{f}"));
            }
        }
        Ok(out)
    }

    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot read {v:?}")),
            None => Ok(default),
        }
    }

    pub fn str(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    pub fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }
}

/// Measured seconds per run unless `--seconds` says otherwise; the
/// same figure as `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

fn run_config(args: &Args, trace: bool) -> Result<RunConfig, String> {
    let smoke = args.has("smoke");
    // The host's floor opens every traced run and result file; an
    // untraced contract run has no use for it.
    let floor_us = if trace {
        stats::tcp_floor_rtt_us(2_000).map_err(|e| format!("tcp floor: {e}"))?
    } else {
        0.0
    };
    Ok(RunConfig {
        seed: args.get("seed", 42)?,
        seconds: args.get("seconds", if smoke { 1.0 } else { DEFAULT_SECONDS })?,
        trace,
        smoke,
        floor_us,
    })
}

/// Contract mode: one workload, one result line.
fn contract(args: &Args) -> Result<bool, String> {
    let workload = args
        .str("workload")
        .ok_or("--workload is required (or a subcommand: run, compare)")?;
    let trace = match args.get("trace", 0u8)? {
        0 => false,
        1 => true,
        n => return Err(format!("--trace takes 0 or 1, not {n}")),
    };
    let cfg = run_config(args, trace)?;
    let outcome = run_workload(workload, &cfg)?;
    for v in &outcome.violations {
        eprintln!("violated: {v}");
    }
    println!("{}", contract_line(&outcome, trace)?);
    Ok(outcome.correct())
}

fn print_metrics(workload: &str, outcome: &Outcome, wanted: &[metrics::Metric]) {
    for m in wanted {
        if let Some(v) = outcome.metrics.get(m.name) {
            println!("{workload:<14} {:<36} {v:>14.4} {}", m.name, m.unit);
        }
    }
}

/// `run`: every workload, untraced then traced, `--sets` times over.
fn run_all(args: &Args) -> Result<bool, String> {
    let sets: usize = args.get("sets", 1)?;
    let untraced = run_config(args, false)?;
    let traced = run_config(args, true)?;
    let sizes = untraced.sizes();
    let host = stats::host_fingerprint(traced.floor_us);
    if json::at(&host, &["host_busy"]).as_bool() == Some(true) {
        eprintln!(
            "warning: host is busy (1-minute load above half the cores); expect wider spreads"
        );
    }
    let mut all_ok = true;
    let mut set_values = Vec::new();
    for set in 0..sets {
        let mut by_workload = Vec::new();
        for w in &WORKLOADS {
            eprintln!("[set {}/{sets}] {} …", set + 1, w.name);
            let plain = run_workload(w.name, &untraced)?;
            let layered = run_workload(w.name, &traced)?;
            print_metrics(w.name, &plain, &END_TO_END);
            print_metrics(w.name, &layered, &PER_LAYER);
            let violations: Vec<&String> =
                plain.violations.iter().chain(&layered.violations).collect();
            for v in &violations {
                eprintln!("{}: violated: {v}", w.name);
            }
            all_ok &= violations.is_empty();
            by_workload.push((
                w.name,
                obj([
                    ("correct", Value::Bool(violations.is_empty())),
                    ("setups", int(plain.setups as u64)),
                    ("attempted", int(plain.attempted)),
                    ("failed", int(plain.failed)),
                    (
                        "violations",
                        Value::Array(violations.into_iter().map(text).collect()),
                    ),
                    ("end_to_end", plain.metric_object(&END_TO_END)),
                    ("per_layer", layered.metric_object(&PER_LAYER)),
                    (
                        "notes",
                        obj([("untraced", plain.notes), ("traced", layered.notes)]),
                    ),
                ]),
            ));
        }
        set_values.push(obj(by_workload));
    }
    let result = obj([
        ("schema", text("chant-benchmark/1")),
        ("claim", Value::Null),
        ("host", host),
        (
            "config",
            obj([
                ("seed", int(untraced.seed)),
                ("window_s", num(untraced.seconds)),
                ("min_setups_per_run", int(MIN_SETUPS as u64)),
                ("setup_budget_s", num(sizes.setup_budget_s)),
                ("traced_reference_s", num(traced.seconds / 3.0)),
                ("traced_s", num(traced.seconds * 2.0 / 3.0)),
                ("warmup_s", num(sizes.warmup_s)),
                ("keys", int(sizes.keys)),
                ("value_bytes", int(gen::VALUE_LEN as u64)),
                ("zipf_theta", num(gen::ZIPF_THETA)),
                ("subscribers", int(sizes.subscribers)),
                ("clients", int(rank::CLIENTS as u64)),
                ("pes", int(2)),
                ("vps_per_pe", int(1)),
                (
                    "polling_policy",
                    text(chant_core::PollingPolicy::default().label()),
                ),
                ("smoke", Value::Bool(untraced.smoke)),
            ]),
        ),
        ("sets", Value::Array(set_values)),
    ]);
    let out = args
        .str("out")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(OUT_DIR).join("results.json"));
    let body = serde_json::to_string_pretty(&result).map_err(|e| e.to_string())?;
    std::fs::write(&out, body + "\n").map_err(|e| format!("{}: {e}", out.display()))?;
    eprintln!("wrote {}", out.display());
    Ok(all_ok)
}

/// What `BENCHMARK.json` at the repository root must say: generated
/// from the tables in `metrics.rs` so the two cannot drift apart.
fn manifest() -> Value {
    let metric = |m: &metrics::Metric, bounded: bool| {
        let mut fields = vec![
            ("name", text(m.name)),
            ("unit", text(m.unit)),
            ("better", text(m.better)),
        ];
        if bounded {
            fields.push(("bound", num(m.bound)));
        }
        obj(fields)
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    obj([
        (
            "command",
            Value::Array(command.into_iter().map(text).collect()),
        ),
        ("paths", Value::Array(vec![text("benchmark")])),
        ("run_seconds", int(DEFAULT_SECONDS as u64)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .filter(|w| w.listed)
                    .map(|w| obj([("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        ),
        (
            "per_layer",
            Value::Array(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        ),
    ])
}

fn rank_params(args: &Args) -> Result<rank::Params, String> {
    let windows = args
        .str("windows")
        .unwrap_or("")
        .split(',')
        .filter(|w| !w.is_empty())
        .map(|w| {
            let (secs, traced) = w
                .split_once(':')
                .ok_or(format!("--windows: {w:?} is not seconds:0|1"))?;
            let secs: f64 = secs
                .parse()
                .map_err(|_| format!("--windows: bad seconds {secs:?}"))?;
            Ok((Duration::from_secs_f64(secs), traced == "1"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    if windows.len() > 3 {
        return Err("at most three windows".into());
    }
    Ok(rank::Params {
        workload: args.str("workload").ok_or("--workload")?.to_string(),
        rank: args
            .str("rank")
            .map(|r| r.parse().map_err(|_| "--rank"))
            .transpose()?,
        peers: args
            .str("peers")
            .unwrap_or("")
            .split(',')
            .filter(|p| !p.is_empty())
            .map(String::from)
            .collect(),
        seed: args.get("seed", 42)?,
        warmup: Duration::from_secs_f64(args.get("warmup", 0.0)?),
        windows,
        keys: args.get("keys", 4_000)?,
        subs: args.get("subs", 1_000)?,
        spawned_unix_ns: args.get("spawned-unix-ns", rank::unix_ns())?,
        floor_us: args.get("floor-us", 0.0)?,
    })
}

fn main() -> ExitCode {
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| {
        match args.positional.first().map(String::as_str) {
            None => contract(&args),
            Some("run") => run_all(&args),
            Some("compare") => compare::main(&args),
            Some("manifest") => {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&manifest()).map_err(|e| e.to_string())?
                );
                Ok(true)
            }
            Some("rank") => {
                rank::run_rank(rank_params(&args)?);
                Ok(true)
            }
            Some(other) => Err(format!("unknown subcommand {other}")),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
