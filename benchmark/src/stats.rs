//! Exact order statistics over raw samples, and the `/proc` readers
//! behind the process-level metrics and the host fingerprint.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

use serde_json::Value;

use crate::json;

/// Nearest-rank percentile (`q` in 0..=1) of an already sorted slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p99, p99.9, p99.99, … that still has at least ten
/// samples beyond it, as `(percent, value)`; `None` below 1000 samples.
pub fn top_percentile(sorted: &[u64]) -> Option<(f64, u64)> {
    let mut best = None;
    let mut tail = 0.01;
    while sorted.len() as f64 * tail >= 10.0 {
        best = Some((100.0 * (1.0 - tail), percentile(sorted, 1.0 - tail)));
        tail /= 10.0;
    }
    best
}

pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method) — the contract's spread measure.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// A bounded, evenly thinned record of a stream. Every `stride`-th item
/// is kept; when the buffer fills, every other kept item goes and the
/// stride doubles. However fast a build runs, the kept items cover the
/// whole stream evenly, so order statistics over them are those of a
/// systematic one-in-`stride` sample — of every item (stride 1) unless
/// the build is several times faster than the one the cap was sized on.
pub struct Thinned<T> {
    items: Vec<T>,
    cap: usize,
    stride: u64,
    seen: u64,
}

impl<T: Clone> Thinned<T> {
    /// `cap` must be even. The buffer is written once with `fill` so
    /// that its resident size is the same on every commit whatever the
    /// rate (it can then be taken out of a peak-memory figure).
    pub fn new(cap: usize, fill: T) -> Thinned<T> {
        assert!(cap >= 2 && cap.is_multiple_of(2), "even capacity");
        let mut items = vec![fill; cap];
        items.clear();
        Thinned {
            items,
            cap,
            stride: 1,
            seen: 0,
        }
    }

    pub fn push(&mut self, item: T) {
        let index = self.seen;
        self.seen += 1;
        if !index.is_multiple_of(self.stride) {
            return;
        }
        if self.items.len() == self.cap {
            // Position j holds stream index j * stride: the even
            // positions are the multiples of the doubled stride, and so
            // is `index` (= cap * stride, cap even).
            let mut j = 0;
            self.items.retain(|_| {
                j += 1;
                j % 2 == 1
            });
            self.stride *= 2;
        }
        self.items.push(item);
    }

    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// One kept item stands for this many pushed.
    pub fn stride(&self) -> u64 {
        self.stride
    }
}

/// Interquartile range over the median: the run-to-run spread.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median_f64(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

pub fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

// ---------------------------------------------------------------------
// /proc
// ---------------------------------------------------------------------

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux
/// has exported 100 to user space on every architecture since 2.6.
const CLK_TCK: u64 = 100;

fn status_field(status: &str, field: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// What one OS process has used so far.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcUsage {
    pub cpu_user_us: u64,
    pub cpu_sys_us: u64,
    /// Voluntary / involuntary context switches, summed over threads.
    pub vol_ctx: u64,
    pub invol_ctx: u64,
    pub threads: u64,
    /// Peak resident set (`VmHWM`), KiB.
    pub hwm_kb: u64,
}

pub fn proc_usage() -> ProcUsage {
    let mut u = ProcUsage::default();
    if let Ok(stat) = std::fs::read_to_string("/proc/self/stat") {
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the line, 12 and 13 after it.
        if let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) {
            let f: Vec<&str> = rest.split_whitespace().collect();
            let tick = |i: usize| f.get(i).and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
            u.cpu_user_us = tick(11) * 1_000_000 / CLK_TCK;
            u.cpu_sys_us = tick(12) * 1_000_000 / CLK_TCK;
        }
    }
    if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
        u.threads = status_field(&status, "Threads");
        u.hwm_kb = status_field(&status, "VmHWM");
    }
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            if let Ok(status) = std::fs::read_to_string(task.path().join("status")) {
                u.vol_ctx += status_field(&status, "voluntary_ctxt_switches");
                u.invol_ctx += status_field(&status, "nonvoluntary_ctxt_switches");
            }
        }
    }
    u
}

/// Median round trip of a raw 32-byte echo over a loopback TCP socket
/// between two OS threads: what the host charges before any Chant code
/// runs. Microseconds.
pub fn tcp_floor_rtt_us(rounds: usize) -> std::io::Result<f64> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let addr = listener.local_addr()?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut s, _) = listener.accept()?;
        s.set_nodelay(true)?;
        let mut buf = [0u8; 32];
        while s.read_exact(&mut buf).is_ok() {
            s.write_all(&buf)?;
        }
        Ok(())
    });
    let mut s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    let mut buf = [7u8; 32];
    let mut rtts = Vec::with_capacity(rounds);
    for i in 0..rounds + rounds / 10 {
        let t = Instant::now();
        s.write_all(&buf)?;
        s.read_exact(&mut buf)?;
        // The first tenth warms the path.
        if i >= rounds / 10 {
            rtts.push(t.elapsed().as_nanos() as u64);
        }
    }
    drop(s);
    echo.join().expect("echo thread panicked")?;
    rtts.sort_unstable();
    Ok(us(percentile(&rtts, 0.5)))
}

// ---------------------------------------------------------------------
// Host fingerprint
// ---------------------------------------------------------------------

fn read_trim(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

fn git_commit() -> Option<String> {
    let head = read_trim(".git/HEAD")?;
    match head.strip_prefix("ref: ") {
        Some(r) => read_trim(&format!(".git/{r}")),
        None => Some(head),
    }
}

fn rustc_version() -> Option<String> {
    let out = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The facts two result files must share before their numbers may be
/// compared. `host_busy` flags a 1-minute load average above half the
/// core count at the start of the run.
pub fn host_fingerprint(floor_us: f64) -> Value {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let load1 = read_trim("/proc/loadavg")
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .unwrap_or(0.0);
    let cpu = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|s| {
        s.lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map(|(_, m)| m.trim().to_string())
    });
    let text = |v: Option<String>| json::text(v.unwrap_or_else(|| "unknown".to_string()));
    json::obj([
        ("nproc", json::int(nproc as u64)),
        ("kernel", text(read_trim("/proc/sys/kernel/osrelease"))),
        ("cpu_model", text(cpu)),
        ("load_avg_1m", json::num(load1)),
        ("host_busy", Value::Bool(load1 > 0.5 * nproc as f64)),
        ("os.tcp_floor_rtt_us", json::num(floor_us)),
        ("git_commit", text(git_commit())),
        ("rustc", text(rustc_version())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(top_percentile(&v), None);
        let big: Vec<u64> = (1..=20_000).collect();
        assert_eq!(top_percentile(&big), Some((99.9, 19_980)));
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median_f64(&v), 5.5);
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn thinning_keeps_an_even_sample_of_the_whole_stream() {
        let mut t = Thinned::new(8, 0u64);
        for i in 0..8 {
            t.push(i);
        }
        assert_eq!((t.items(), t.stride()), (&[0, 1, 2, 3, 4, 5, 6, 7][..], 1));
        for i in 8..40 {
            t.push(i);
        }
        // 40 items through 8 slots: stride 8 after three halvings.
        assert_eq!((t.items(), t.stride()), (&[0, 8, 16, 24, 32][..], 8));
    }

    #[test]
    fn proc_readers_see_this_process() {
        let u = proc_usage();
        assert!(u.threads >= 1 && u.hwm_kb > 0);
    }
}
