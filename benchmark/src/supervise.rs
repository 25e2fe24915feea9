//! The supervisor side: launch a workload's clusters as child processes
//! of this same binary, hold each to a hard deadline, and turn rank 0's
//! reports into one checked result.

use std::collections::BTreeMap;
use std::fs::File;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use serde_json::Value;

use crate::json::{self, int, num, obj, text};
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::rank::{in_flight, kind_of, unix_ns};

/// What varies between runs. Everything else about how a workload is
/// run is a constant of the benchmark, the same on every commit.
#[derive(Clone)]
pub struct RunConfig {
    pub seed: u64,
    /// Length of the measured window. A traced run opens with an
    /// untraced reference window of a third of it and traces the rest.
    pub seconds: f64,
    pub trace: bool,
    /// The small sizes `cargo test` runs.
    pub smoke: bool,
    pub floor_us: f64,
}

/// The sizes of a run: the full ones, and the ones smoke mode shrinks.
pub struct Sizes {
    pub warmup_s: f64,
    pub keys: u64,
    pub subscribers: u64,
    /// Set-up-only clusters are launched until this much time has gone
    /// into them (and `MIN_SETUPS` are reached): a handful where a
    /// set-up takes seconds, a dozen or more where it takes a tenth.
    pub setup_budget_s: f64,
}

impl RunConfig {
    pub fn sizes(&self) -> Sizes {
        if self.smoke {
            Sizes {
                warmup_s: 0.3,
                keys: 500,
                subscribers: 50,
                setup_budget_s: 0.0,
            }
        } else {
            Sizes {
                warmup_s: 2.0,
                keys: 4_000,
                subscribers: 1_000,
                setup_budget_s: 5.0,
            }
        }
    }
}

/// Clusters set up per untraced run, at least: the measured one and
/// others that are set up and torn down again. `setup_s` is their mean.
pub const MIN_SETUPS: usize = 3;

/// Allowance for everything around the measured time in one launch:
/// spawn, connect, preload or subscribe, drain, teardown.
const LAUNCH_ALLOWANCE: Duration = Duration::from_secs(45);
/// How long the other rank may outlive rank 0.
const EXIT_GRACE: Duration = Duration::from_secs(10);

/// Relative to the repository root, where the benchmark is run from:
/// everything a run leaves behind goes here.
pub const OUT_DIR: &str = "benchmark/out";

/// One workload's checked result.
pub struct Outcome {
    pub metrics: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub notes: Value,
    /// Clusters whose set-up went into `setup_s`.
    pub setups: usize,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// The named metrics as `{name: {value, unit}}`. A correct outcome
    /// has them all (`run_workload` sees to that); one whose cluster
    /// died has the ones it got to.
    pub fn metric_object(&self, wanted: &[Metric]) -> Value {
        obj(wanted.iter().filter_map(|m| {
            let v = *self.metrics.get(m.name)?;
            Some((m.name, obj([("value", num(v)), ("unit", text(m.unit))])))
        }))
    }

    pub fn wanted(trace: bool) -> &'static [Metric] {
        if trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }
}

/// Reserve `n` distinct loopback ports: bind them all, then let go. The
/// ranks bind them again a few milliseconds later; a stranger that
/// takes one in between makes the launch fail, counted, not hang.
fn free_ports(n: usize) -> std::io::Result<Vec<u16>> {
    let listeners = (0..n)
        .map(|_| TcpListener::bind(("127.0.0.1", 0)))
        .collect::<Result<Vec<_>, _>>()?;
    listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.port()))
        .collect()
}

fn kill_and_reap(children: &mut [Child]) {
    for c in children.iter_mut() {
        let _ = c.kill();
    }
    for c in children.iter_mut() {
        let _ = c.wait();
    }
}

/// The last non-empty line rank 0 printed, as JSON.
fn last_line(path: &Path) -> Option<Value> {
    let stdout = std::fs::read_to_string(path).ok()?;
    let last = stdout.lines().rev().find(|l| !l.trim().is_empty())?;
    serde_json::from_str(last).ok()
}

/// Run one cluster to completion and return rank 0's report. `windows`
/// is the rank's `--windows` argument, `measured_s` their total length.
/// Children write to `benchmark/out/<workload>.<tag>.rank<r>.{stdout,
/// stderr}`; whatever happens, none of them outlives this call.
///
/// `Err` is for what is wrong before a cluster exists (no such
/// workload, no out directory, spawn refused). A cluster that dies,
/// errs or overruns its deadline is a result: a report with a violation
/// that charges the ops it had in flight as failed.
fn launch(
    workload: &str,
    cfg: &RunConfig,
    tag: &str,
    windows: &str,
    measured_s: f64,
) -> Result<Value, String> {
    let (kind, tcpev) = kind_of(workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let io = |e: std::io::Error| format!("{workload}: {e}");
    std::fs::create_dir_all(OUT_DIR).map_err(io)?;
    let exe = std::env::current_exe().map_err(io)?;
    let peers = if tcpev {
        free_ports(2)
            .map_err(io)?
            .iter()
            .map(|p| format!("127.0.0.1:{p}"))
            .collect::<Vec<_>>()
            .join(",")
    } else {
        String::new()
    };
    let sizes = cfg.sizes();
    // A cluster that measures nothing has nothing to warm up for.
    let warmup_s = if windows.is_empty() {
        0.0
    } else {
        sizes.warmup_s
    };
    let log = |rank: usize, stream: &str| {
        PathBuf::from(OUT_DIR).join(format!("{workload}.{tag}.rank{rank}.{stream}"))
    };

    let spawned = unix_ns();
    let mut children: Vec<Child> = Vec::new();
    for rank in 0..if tcpev { 2 } else { 1 } {
        let mut c = Command::new(&exe);
        // Ambient runtime knobs must not leak into the measurement.
        for (k, _) in std::env::vars_os().filter(|(k, _)| k.to_string_lossy().starts_with("CHANT_"))
        {
            c.env_remove(k);
        }
        c.arg("rank")
            .args(["--workload", workload])
            .args(["--seed", &cfg.seed.to_string()])
            .args(["--warmup", &warmup_s.to_string()])
            .args(["--windows", windows])
            .args(["--keys", &sizes.keys.to_string()])
            .args(["--subs", &sizes.subscribers.to_string()])
            .args(["--spawned-unix-ns", &spawned.to_string()])
            .args(["--floor-us", &cfg.floor_us.to_string()]);
        if tcpev {
            c.args(["--rank", &rank.to_string(), "--peers", &peers]);
        }
        let spawn = File::create(log(rank, "stdout")).and_then(|out| {
            let err = File::create(log(rank, "stderr"))?;
            c.stdin(Stdio::null()).stdout(out).stderr(err).spawn()
        });
        match spawn {
            Ok(child) => children.push(child),
            Err(e) => {
                kill_and_reap(&mut children);
                return Err(io(e));
            }
        }
    }

    let mut deadline =
        Instant::now() + LAUNCH_ALLOWANCE + Duration::from_secs_f64(warmup_s + measured_s);
    let mut rank0_ok = None;
    let mut overran = false;
    loop {
        let mut running = 0;
        for (rank, c) in children.iter_mut().enumerate() {
            match c.try_wait() {
                Ok(Some(status)) if rank == 0 && rank0_ok.is_none() => {
                    rank0_ok = Some(status.success());
                    deadline = deadline.min(Instant::now() + EXIT_GRACE);
                }
                Ok(Some(_)) => {}
                Ok(None) => running += 1,
                Err(e) => {
                    kill_and_reap(&mut children);
                    return Err(io(e));
                }
            }
        }
        if running == 0 {
            break;
        }
        if Instant::now() > deadline {
            kill_and_reap(&mut children);
            overran = rank0_ok.is_none();
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    let report = last_line(&log(0, "stdout"));
    let died = if overran {
        Some("the hard deadline passed and its processes were killed".to_string())
    } else if let Some(e) = report
        .as_ref()
        .and_then(|r| json::at(r, &["error"]).as_str())
    {
        Some(e.to_string())
    } else if rank0_ok != Some(true) || report.is_none() {
        Some("rank 0 left no report".to_string())
    } else {
        None
    };
    Ok(match (died, report) {
        (None, Some(report)) => report,
        (died, _) => {
            let lost = in_flight(kind);
            obj([
                ("metrics", obj::<&str>([])),
                ("notes", obj::<&str>([])),
                (
                    "violations",
                    Value::Array(vec![text(format!(
                        "{workload} ({tag}): {}; the {lost} ops in flight count as failed; see {}",
                        died.unwrap_or_default(),
                        log(0, "stderr").display()
                    ))]),
                ),
                ("attempted", int(lost)),
                ("failed", int(lost)),
            ])
        }
    })
}

/// Run the workload and fold its clusters' reports into one checked
/// result. An untraced run sets up `MIN_SETUPS` clusters or more and
/// measures one window on the last; a traced run is one cluster.
pub fn run_workload(workload: &str, cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome {
        metrics: BTreeMap::new(),
        attempted: 0,
        failed: 0,
        violations: Vec::new(),
        notes: Value::Null,
        setups: 0,
    };
    // A cluster that died ends the run: the next one would only take as
    // long to die, and the run has its verdict.
    let died = |report: &Value| {
        json::at(report, &["violations"])
            .as_array()
            .is_none_or(|v| !v.is_empty())
    };
    let mut reports = Vec::new();
    if cfg.trace {
        let windows = format!("{}:0,{}:1", cfg.seconds / 3.0, cfg.seconds * 2.0 / 3.0);
        reports.push(launch(workload, cfg, "traced", &windows, cfg.seconds)?);
    } else {
        let budget = Duration::from_secs_f64(cfg.sizes().setup_budget_s);
        let started = Instant::now();
        while (reports.len() + 1 < MIN_SETUPS || started.elapsed() < budget)
            && !reports.last().is_some_and(died)
        {
            let tag = format!("setup{}", reports.len() + 1);
            reports.push(launch(workload, cfg, &tag, "", 0.0)?);
        }
        if !reports.last().is_some_and(died) {
            let window = format!("{}:0", cfg.seconds);
            reports.push(launch(workload, cfg, "run", &window, cfg.seconds)?);
        }
    }

    let mut setups = Vec::new();
    for report in &reports {
        let count = |key: &str| {
            json::at(report, &[key])
                .as_u128()
                .map(|n| n as u64)
                .ok_or(format!("report without {key}"))
        };
        out.attempted += count("attempted")?;
        out.failed += count("failed")?;
        let violations = json::at(report, &["violations"])
            .as_array()
            .ok_or("report without violations")?;
        out.violations.extend(
            violations
                .iter()
                .filter_map(|v| v.as_str().map(String::from)),
        );
        setups.extend(json::at(report, &["metrics", "setup_s"]).as_f64());
    }
    // The measured cluster is the last one: its metrics are the run's.
    let measured = reports.last().expect("at least one launch");
    for (name, v) in json::at(measured, &["metrics"])
        .as_object()
        .ok_or("report without metrics")?
    {
        let v = v.as_f64().ok_or(format!("{name} is not a number"))?;
        out.metrics.insert(name.clone(), v);
    }
    // The mean, not the median: a start-up race makes the set-up time
    // of some clusters two-valued (README, "setup_s"), and the median of
    // a few draws from two values is itself a coin toss.
    if setups.len() == reports.len() {
        out.metrics.insert(
            "setup_s".into(),
            setups.iter().sum::<f64>() / setups.len() as f64,
        );
        out.setups = setups.len();
    }
    if out.correct() {
        for m in Outcome::wanted(cfg.trace) {
            match out.metrics.get(m.name) {
                Some(v) if v.is_finite() => {}
                Some(v) => out.violations.push(format!("metric {} is {v}", m.name)),
                None => out
                    .violations
                    .push(format!("metric {} was not measured", m.name)),
            }
        }
    }
    out.notes = json::at(measured, &["notes"]).clone();
    Ok(out)
}

/// The line the benchmark contract asks for.
pub fn contract_line(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let line = obj([
        ("correct", Value::Bool(outcome.correct())),
        ("attempted", int(outcome.attempted.max(1))),
        ("failed", int(outcome.failed)),
        ("metrics", outcome.metric_object(Outcome::wanted(trace))),
    ]);
    serde_json::to_string(&line).map_err(|e| e.to_string())
}
