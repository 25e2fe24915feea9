//! `compare`: judge one result file against another, one row per
//! workload and end-to-end metric, and one per per-layer figure that
//! carries a bound of its own (`metrics::ALSO_JUDGED`). A file holds one
//! or more sets (see `run --sets`); each side is summarised by its
//! median over sets and its own quartile spread.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;

use crate::json;
use crate::metrics::{ALSO_JUDGED, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median_f64, quartiles, spread};
use crate::Args;

fn load(path: &Path) -> Result<Value, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&body).map_err(|e| format!("{}: {e}", path.display()))
}

fn sets(file: &Value) -> &[Value] {
    json::at(file, &["sets"])
        .as_array()
        .map(Vec::as_slice)
        .unwrap_or(&[])
}

/// Every set's value of one workload's metric; `group` is
/// `end_to_end` or `per_layer`.
fn values(file: &Value, workload: &str, group: &str, metric: &str) -> Vec<f64> {
    sets(file)
        .iter()
        .filter_map(|s| json::at(s, &[workload, group, metric, "value"]).as_f64())
        .collect()
}

/// Failed over attempted ops of one workload, over all sets.
fn failed_ratio(file: &Value, workload: &str) -> f64 {
    let total = |key: &str| {
        sets(file)
            .iter()
            .filter_map(|s| json::at(s, &[workload, key]).as_f64())
            .sum::<f64>()
    };
    total("failed") / total("attempted").max(1.0)
}

/// Facts that must match before two files' numbers mean the same thing.
fn comparable(base: &Value, new: &Value) -> Vec<String> {
    let mut diffs = Vec::new();
    for path in [
        &["host", "nproc"][..],
        &["host", "kernel"],
        &["host", "cpu_model"],
        &["config", "window_s"],
        &["config", "smoke"],
        &["config", "polling_policy"],
    ] {
        let (b, n) = (json::at(base, path), json::at(new, path));
        if b != n {
            diffs.push(format!("{} differs: {b:?} vs {n:?}", path.join(".")));
        }
    }
    for (side, file) in [("base", base), ("new", new)] {
        if json::at(file, &["host", "host_busy"]).as_bool() == Some(true) {
            diffs.push(format!("{side} was recorded on a busy host"));
        }
    }
    diffs
}

fn side(values: &[f64]) -> String {
    match quartiles(values) {
        Some((q1, q3)) => format!("{:.4} [{q1:.4}..{q3:.4}]", median_f64(values)),
        None => format!("{:.4}", median_f64(values)),
    }
}

/// Print the table; `Ok(false)` if any row is worse or more ops failed.
pub fn compare_files(base: &Value, new: &Value) -> bool {
    for d in comparable(base, new) {
        println!("note: {d}");
    }
    println!(
        "{:<14} {:<14} {:>30} {:>30} {:>22} {:>6}  verdict",
        "workload", "metric", "base median [q1..q3]", "new median [q1..q3]", "new/base", "bound"
    );
    let mut ok = true;
    for w in &WORKLOADS {
        let bounded = END_TO_END.iter().map(|m| ("end_to_end", m, m.bound));
        let also = ALSO_JUDGED
            .iter()
            .filter(|(_, _, on)| on.contains(&w.name))
            .filter_map(|(name, bound, _)| {
                let m = PER_LAYER.iter().find(|m| m.name == *name)?;
                Some(("per_layer", m, *bound))
            });
        for (group, m, bound) in bounded.chain(also) {
            let b = values(base, w.name, group, m.name);
            let n = values(new, w.name, group, m.name);
            if b.is_empty() || n.is_empty() {
                println!("{:<14} {:<14} missing on one side", w.name, m.name);
                ok = false;
                continue;
            }
            let (bm, nm) = (median_f64(&b), median_f64(&n));
            let ratio = nm / bm;
            // Positive = worse, as a share of the base.
            let worse_by = if m.better == "lower" {
                ratio - 1.0
            } else {
                1.0 - ratio
            };
            let noisy = [&b, &n]
                .iter()
                .any(|v| spread(v).is_some_and(|s| s > bound));
            let verdict = if noisy {
                "unresolved"
            } else if worse_by > bound {
                "worse"
            } else if worse_by < -bound {
                "better"
            } else {
                "same"
            };
            ok &= verdict != "worse";
            println!(
                "{:<14} {:<14} {:>30} {:>30} {:>22} {:>6.2}  {verdict}",
                w.name,
                m.name,
                side(&b),
                side(&n),
                format!("{ratio:.3} of {bm:.4} {}", m.unit),
                bound
            );
        }
        let (fb, fnew) = (failed_ratio(base, w.name), failed_ratio(new, w.name));
        if fnew > fb {
            println!(
                "{:<14} failed_ratio rose from {fb:.6} to {fnew:.6}: worse",
                w.name
            );
            ok = false;
        }
    }
    ok
}

/// Produce both files by running the two executables' `run` in turn,
/// the order flipping every set, then merge each side's sets.
fn alternate(args: &Args, n: usize) -> Result<(Value, Value), String> {
    let exe = |flag: &str| {
        args.str(flag)
            .map(PathBuf::from)
            .ok_or(format!("--sets needs --{flag}"))
    };
    let exes = [("base", exe("base-exe")?), ("new", exe("new-exe")?)];
    let out_dir = Path::new(crate::OUT_DIR);
    std::fs::create_dir_all(out_dir).map_err(|e| e.to_string())?;
    let mut merged: [Option<Value>; 2] = [None, None];
    for set in 0..n {
        let order = if set % 2 == 0 { [0, 1] } else { [1, 0] };
        for i in order {
            let (side, path) = &exes[i];
            let out = out_dir.join(format!("compare_{side}_{set}.json"));
            let mut cmd = Command::new(path);
            cmd.arg("run").arg("--out").arg(&out);
            for flag in ["seed", "seconds"] {
                if let Some(v) = args.str(flag) {
                    cmd.args([format!("--{flag}"), v.to_string()]);
                }
            }
            if args.has("smoke") {
                cmd.arg("--smoke");
            }
            let status = cmd
                .status()
                .map_err(|e| format!("{}: {e}", path.display()))?;
            if !status.success() {
                return Err(format!("{} run failed in set {set}", path.display()));
            }
            let file = load(&out)?;
            match &mut merged[i] {
                None => merged[i] = Some(file),
                Some(Value::Object(all)) => {
                    if let Some(Value::Array(into)) = all.get_mut("sets") {
                        into.extend(sets(&file).iter().cloned());
                    }
                }
                Some(_) => return Err(format!("{}: not a result object", out.display())),
            }
        }
    }
    let [Some(base), Some(new)] = merged else {
        return Err("--sets 0 compares nothing".into());
    };
    Ok((base, new))
}

pub fn main(args: &Args) -> Result<bool, String> {
    let (base, new) = match (args.has("sets"), &args.positional[1..]) {
        (true, []) => alternate(args, args.get("sets", 1)?)?,
        (false, [base, new]) => (load(Path::new(base))?, load(Path::new(new))?),
        _ => {
            return Err(
                "usage: compare BASE.json NEW.json | compare --sets N --base-exe A --new-exe B"
                    .into(),
            )
        }
    };
    Ok(compare_files(&base, &new))
}
