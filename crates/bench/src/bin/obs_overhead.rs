//! Measure the cost of the observability layer on the `matching_ops`
//! hot path, and gate the disabled-tracing overhead at ≤2%.
//!
//! A single binary cannot contain both sides of a `cfg` feature, so the
//! measurement is two invocations of this program merged into one
//! untracked scratch file (`target/obs_overhead.json`):
//!
//! ```text
//! cargo run --release -p chant-bench --bin obs_overhead            # "baseline"
//! cargo run --release -p chant-bench --bin obs_overhead --features trace
//!                                                                  # "trace_disabled"
//! cargo run --release -p chant-bench --bin obs_overhead -- --check # gate
//! ```
//!
//! * `baseline` — the crate exactly as the table binaries compile it:
//!   no instrumentation exists in the binary at all.
//! * `trace_disabled` — compiled with `--features trace` but with **no
//!   tracer installed**: every probe point is one `Option` check that
//!   stays `None`. This is the configuration a tracing-capable build
//!   pays when nobody is tracing, and the one the ≤2% budget governs.
//!
//! `--check` recomputes the per-benchmark ratios from the scratch file
//! and exits nonzero if the geometric-mean `trace_disabled / baseline`
//! ratio exceeds 1.02 (individual microbenchmarks are noisy; the
//! geomean over the whole matching sweep is the stable signal).

use std::collections::BTreeMap;

use criterion::Criterion;
use serde::{Map, Number, Value};

use chant_bench::{matching, shown, workspace_root};

/// Which half of the measurement this compilation is.
#[cfg(feature = "trace")]
const SIDE: &str = "trace_disabled";
#[cfg(not(feature = "trace"))]
const SIDE: &str = "baseline";

/// Overhead budget: disabled-path geomean ratio must stay within this.
const MAX_RATIO: f64 = 1.02;

fn snapshot_path() -> std::path::PathBuf {
    workspace_root().join("target").join("obs_overhead.json")
}

/// Load the snapshot file as a map of side → (bench id → median ns),
/// tolerating a missing or partial file.
fn load_sides() -> BTreeMap<String, BTreeMap<String, f64>> {
    let mut sides = BTreeMap::new();
    let Ok(text) = std::fs::read_to_string(snapshot_path()) else {
        return sides;
    };
    let Ok(v) = serde_json::from_str::<Value>(&text) else {
        return sides;
    };
    for side in ["baseline", "trace_disabled"] {
        let Some(entries) = v.as_object().and_then(|o| o.get(side)).and_then(Value::as_object)
        else {
            continue;
        };
        let mut m = BTreeMap::new();
        for (id, val) in entries {
            if let Some(ns) = val.as_f64() {
                m.insert(id.clone(), ns);
            }
        }
        sides.insert(side.to_string(), m);
    }
    sides
}

fn f(v: f64) -> Value {
    Value::Number(Number::Float(v))
}

fn side_obj(m: &BTreeMap<String, f64>) -> Value {
    let mut o = Map::new();
    for (id, ns) in m {
        o.insert(id.clone(), f(*ns));
    }
    Value::Object(o)
}

/// Per-id ratios and their geometric mean, when both sides are present.
fn ratios(
    sides: &BTreeMap<String, BTreeMap<String, f64>>,
) -> Option<(BTreeMap<String, f64>, f64)> {
    let base = sides.get("baseline")?;
    let dis = sides.get("trace_disabled")?;
    let mut per_id = BTreeMap::new();
    let mut log_sum = 0.0;
    for (id, b) in base {
        let Some(d) = dis.get(id) else { continue };
        if *b > 0.0 {
            let r = d / b;
            log_sum += r.ln();
            per_id.insert(id.clone(), r);
        }
    }
    if per_id.is_empty() {
        return None;
    }
    let geomean = (log_sum / per_id.len() as f64).exp();
    Some((per_id, geomean))
}

fn write_snapshot(sides: &BTreeMap<String, BTreeMap<String, f64>>) {
    let mut root = Map::new();
    root.insert("budget_max_ratio".to_string(), f(MAX_RATIO));
    for (side, m) in sides {
        root.insert(side.clone(), side_obj(m));
    }
    if let Some((per_id, geomean)) = ratios(sides) {
        root.insert("ratio".to_string(), side_obj(&per_id));
        root.insert("geomean_ratio".to_string(), f(geomean));
    }
    let json = serde_json::to_string_pretty(&Value::Object(root)).expect("serialize snapshot");
    let path = snapshot_path();
    // Absent when cargo was pointed at a target directory elsewhere.
    std::fs::create_dir_all(path.parent().expect("target/")).expect("create target/");
    std::fs::write(&path, json + "\n").expect("write snapshot");
    println!("wrote {}", shown(&path));
}

fn main() {
    if std::env::args().any(|a| a == "--check") {
        let sides = load_sides();
        let Some((per_id, geomean)) = ratios(&sides) else {
            eprintln!(
                "obs_overhead --check: {} lacks both sides; run the bench twice first \
                 (with and without --features trace)",
                shown(&snapshot_path())
            );
            std::process::exit(2);
        };
        println!("disabled-path overhead over {} matching benches:", per_id.len());
        for (id, r) in &per_id {
            println!("  {id}: {r:.4}");
        }
        println!("geomean ratio: {geomean:.4} (budget {MAX_RATIO})");
        if geomean > MAX_RATIO {
            eprintln!("FAIL: disabled-tracing overhead exceeds {MAX_RATIO}");
            std::process::exit(1);
        }
        println!("OK: within budget");
        return;
    }

    let mut c = Criterion::measured();
    matching::run_all(&mut c);
    let results = criterion::take_results();

    let mut sides = load_sides();
    let mine: BTreeMap<String, f64> =
        results.into_iter().map(|r| (r.id, r.median_ns)).collect();
    println!("{SIDE}: {} benchmarks measured", mine.len());
    sides.insert(SIDE.to_string(), mine);
    write_snapshot(&sides);
}
