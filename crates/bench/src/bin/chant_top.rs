//! Live cluster telemetry viewer: tails the NDJSON stream emitted by
//! `chant_core::telemetry` (enable with `CHANT_TELEMETRY_MS`) and
//! renders each tick as one aligned line of rates.
//!
//! Usage: `chant_top [--once] [<path>|unix:<socket>]`
//!
//! - With a plain path (default: `chant_telemetry.ndjson`), the file is
//!   tailed: existing lines render immediately, then new lines as the
//!   emitter appends them. Ctrl-C to stop.
//! - With `unix:<socket>`, a listener is bound at that path and one
//!   emitter connection is accepted (start `chant_top` first, then the
//!   cluster with `CHANT_TELEMETRY_PATH=unix:<socket>`).
//! - `--once` reads what is currently available, prints it plus a
//!   totals row, and exits — handy in scripts and CI.
//!
//! Telemetry is an always-on production facility: unlike the event
//! ring, it needs no tracer installed.

use std::io::{BufRead, BufReader, Read};

use serde::Value;

/// Columns: telemetry key, short header, whether to render as a rate.
const COLS: &[(&str, &str, bool)] = &[
    ("comm.sends", "send/s", true),
    ("comm.bytes_sent", "B/s", true),
    ("comm.posted_matches", "match/s", true),
    ("comm.unexpected_buffered", "unexp/s", true),
    ("ult.full_switches", "csw/s", true),
    ("rsr.retries", "retry", false),
    ("rsr.timeouts", "tmo", false),
    ("fault.dropped", "drop", false),
    ("transport.frames_sent", "frm/s", true),
    ("transport.send_failures", "txerr", false),
    ("kv.mutations", "kvmut/s", true),
    ("pubsub.delivered", "psdlv/s", true),
];

fn header() -> String {
    let mut line = format!("{:>5} {:>9}", "seq", "elapsed");
    for (_, hdr, _) in COLS {
        line.push_str(&format!(" {hdr:>9}"));
    }
    line
}

/// Render one NDJSON tick. `prev_elapsed` carries the previous tick's
/// `elapsed_s` so delta counters become per-second rates.
fn render(line: &str, prev_elapsed: &mut f64) -> Option<String> {
    let v: Value = serde_json::from_str(line.trim()).ok()?;
    let obj = v.as_object()?;
    let seq = obj.get("seq")?.as_u128()?;
    let elapsed = obj.get("elapsed_s")?.as_f64()?;
    let dt = (elapsed - *prev_elapsed).max(1e-9);
    *prev_elapsed = elapsed;
    let mut out = format!("{seq:>5} {elapsed:>8.2}s");
    for (key, _, as_rate) in COLS {
        let raw = obj.get(*key).and_then(Value::as_u128).unwrap_or(0) as f64;
        if *as_rate {
            out.push_str(&format!(" {:>9.0}", raw / dt));
        } else {
            out.push_str(&format!(" {raw:>9.0}"));
        }
    }
    Some(out)
}

/// Sum every counter across ticks for the `--once` totals row.
fn totals(lines: &[String]) -> String {
    let mut sums = vec![0u128; COLS.len()];
    let mut last_elapsed = 0.0f64;
    for line in lines {
        let Ok(v) = serde_json::from_str::<Value>(line.trim()) else {
            continue;
        };
        let Some(obj) = v.as_object() else { continue };
        if let Some(e) = obj.get("elapsed_s").and_then(Value::as_f64) {
            last_elapsed = last_elapsed.max(e);
        }
        for (i, (key, _, _)) in COLS.iter().enumerate() {
            sums[i] += obj.get(*key).and_then(Value::as_u128).unwrap_or(0);
        }
    }
    let mut out = format!("{:>5} {last_elapsed:>8.2}s", "TOTAL");
    for s in &sums {
        out.push_str(&format!(" {s:>9}"));
    }
    out
}

fn main() {
    let mut once = false;
    let mut path = String::from("chant_telemetry.ndjson");
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--once" => once = true,
            "--help" | "-h" => {
                println!("usage: chant_top [--once] [<path>|unix:<socket>]");
                return;
            }
            other => path = other.to_string(),
        }
    }

    println!("{}", header());
    let mut prev_elapsed = 0.0f64;
    let mut seen: Vec<String> = Vec::new();

    if let Some(sock) = path.strip_prefix("unix:") {
        #[cfg(unix)]
        {
            let _ = std::fs::remove_file(sock);
            let listener = std::os::unix::net::UnixListener::bind(sock)
                .unwrap_or_else(|e| panic!("chant_top: bind {sock}: {e}"));
            let (conn, _) = listener.accept().expect("chant_top: accept");
            for line in BufReader::new(conn).lines().map_while(Result::ok) {
                if let Some(row) = render(&line, &mut prev_elapsed) {
                    println!("{row}");
                }
                seen.push(line);
            }
            if once {
                println!("{}", totals(&seen));
            }
            return;
        }
        #[cfg(not(unix))]
        {
            eprintln!("chant_top: unix sockets unsupported on this platform");
            std::process::exit(2);
        }
    }

    // File tail: render what's there, then poll for appended lines.
    let mut offset = 0u64;
    loop {
        if let Ok(mut f) = std::fs::File::open(&path) {
            use std::io::Seek;
            let len = f.metadata().map(|m| m.len()).unwrap_or(0);
            if len > offset {
                let _ = f.seek(std::io::SeekFrom::Start(offset));
                let mut chunk = String::new();
                let _ = f.take(len - offset).read_to_string(&mut chunk);
                // Only consume whole lines; a partially flushed tail
                // line is left for the next poll.
                let consumed = chunk.rfind('\n').map(|i| i + 1).unwrap_or(0);
                for line in chunk[..consumed].lines() {
                    if let Some(row) = render(line, &mut prev_elapsed) {
                        println!("{row}");
                    }
                    seen.push(line.to_string());
                }
                offset += consumed as u64;
            }
        }
        if once {
            println!("{}", totals(&seen));
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(250));
    }
}
