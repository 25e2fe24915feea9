//! # chant-bench: the benchmark harness regenerating the paper's tables
//! and figures
//!
//! The `tables` binary (`tables 3`, `tables all`) prints the paper's
//! published numbers next to this reproduction's, and writes the figure
//! series (Figures 8, 10–13) as CSV under `bench_results/`; the sweeps
//! behind them live here so a test can hold them to the committed files.
//! Criterion microbenchmarks (`cargo bench`) time single operations of
//! the live runtime; measuring it end to end and layer by layer under
//! load is the job of the `benchmark/` package, not of this crate.
//! [`launch`] is the one multi-process cluster launcher the
//! cross-process test harnesses share.

#![warn(missing_docs)]

use std::fs;
use std::path::{Path, PathBuf};

pub mod launch;

/// The paper's published numbers, transcribed from the text.
pub mod paper {
    /// Table 1: thread create/switch times (µs) on a Sun SparcStation 10.
    pub const TABLE1: [(&str, f64, f64); 5] = [
        ("cthreads", 423.0, 81.0),
        ("REX", 230.0, 60.0),
        ("pthreads (draft 6)", 1300.0, 29.0),
        ("Sun LWP", 400.0, 25.0),
        ("Quickthreads", 440.0, 21.0),
    ];

    /// Table 2: (bytes, Process µs, TP µs, TP %, SP µs, SP %).
    pub const TABLE2: [(u32, f64, f64, f64, f64, f64); 5] = [
        (1024, 667.1, 710.8, 6.4, 773.7, 15.9),
        (2048, 917.0, 973.2, 6.1, 1126.5, 22.8),
        (4096, 1639.3, 1701.2, 3.8, 1828.8, 11.5),
        (8192, 2873.5, 2998.8, 4.3, 3130.8, 8.9),
        (16384, 5531.8, 5624.8, 1.7, 5689.0, 2.9),
    ];

    /// One polling-table row: (alpha, time ms, ctxsw, msgtest).
    pub type PollingRow = (u64, f64, u64, u64);

    /// Table 3 (β = 100): Thread polls.
    pub const TABLE3_TP: [PollingRow; 4] = [
        (100, 2730.0, 6655, 2662),
        (1_000, 2860.0, 6655, 2693),
        (10_000, 4000.0, 7029, 3057),
        (100_000, 7260.0, 7977, 3975),
    ];
    /// Table 3 (β = 100): Scheduler polls (PS).
    pub const TABLE3_PS: [PollingRow; 4] = [
        (100, 2413.0, 5580, 2011),
        (1_000, 2515.0, 5630, 2010),
        (10_000, 3660.0, 5579, 2535),
        (100_000, 6815.0, 5649, 3723),
    ];
    /// Table 3 (β = 100): Scheduler polls (WQ).
    pub const TABLE3_WQ: [PollingRow; 4] = [
        (100, 5950.0, 5488, 11817),
        (1_000, 6090.0, 5489, 11942),
        (10_000, 6123.0, 5509, 11875),
        (100_000, 9990.0, 5534, 13238),
    ];

    /// Table 4 (β = 1000): Thread polls.
    pub const TABLE4_TP: [PollingRow; 4] = [
        (100, 6765.0, 6945, 2909),
        (1_000, 6960.0, 6888, 2837),
        (10_000, 8000.0, 6950, 2887),
        (100_000, 10980.0, 7246, 3239),
    ];
    /// Table 4 (β = 1000): Scheduler polls (PS).
    pub const TABLE4_PS: [PollingRow; 4] = [
        (100, 6480.0, 5514, 2415),
        (1_000, 6660.0, 5523, 2564),
        (10_000, 7670.0, 5530, 2311),
        (100_000, 10560.0, 5537, 2532),
    ];
    /// Table 4 (β = 1000): Scheduler polls (WQ).
    pub const TABLE4_WQ: [PollingRow; 4] = [
        (100, 10065.0, 5485, 12323),
        (1_000, 10262.0, 5508, 13496),
        (10_000, 11350.0, 5512, 12676),
        (100_000, 14100.0, 5532, 12405),
    ];

    /// Table 5 (β = 0): Thread polls.
    pub const TABLE5_TP: [PollingRow; 4] = [
        (100, 3290.0, 5792, 3578),
        (1_000, 3460.0, 5864, 4646),
        (10_000, 4570.0, 6100, 4887),
        (100_000, 7805.0, 7206, 5977),
    ];
    /// Table 5 (β = 0): Scheduler polls (PS).
    pub const TABLE5_PS: [PollingRow; 4] = [
        (100, 2715.0, 3628, 3514),
        (1_000, 2725.0, 3622, 3550),
        (10_000, 3980.0, 3608, 4335),
        (100_000, 7343.0, 3630, 6631),
    ];
    /// Table 5 (β = 0): Scheduler polls (WQ).
    pub const TABLE5_WQ: [PollingRow; 4] = [
        (100, 4940.0, 3130, 9845),
        (1_000, 5120.0, 3174, 10000),
        (10_000, 6080.0, 3110, 10310),
        (100_000, 9263.0, 3144, 13024),
    ];

    /// Figure 13 (β = 100): approximate average-waiting-threads readings,
    /// digitized from the plot (the paper gives no table for this
    /// figure): (alpha, Thread polls, Scheduler polls (PS), WQ).
    pub const FIG13_APPROX: [(u64, f64, f64, f64); 4] = [
        (100, 2.1, 2.3, 2.0),
        (1_000, 2.2, 2.4, 2.1),
        (10_000, 2.8, 3.0, 2.7),
        (100_000, 4.3, 4.5, 4.2),
    ];
}

/// The workspace root. Fixed when the crate is compiled, so binaries and
/// tests agree on it whatever directory they are started from.
pub fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root")
}

/// `bench_results/` at the workspace root: where the figure series,
/// traces and table transcripts live.
pub fn results_dir() -> PathBuf {
    let dir = workspace_root().join("bench_results");
    fs::create_dir_all(&dir).expect("create bench_results/");
    dir
}

/// `path` as the documents name it: relative to the workspace root.
pub fn shown(path: &Path) -> std::path::Display<'_> {
    path.strip_prefix(workspace_root()).unwrap_or(path).display()
}

/// The exact contents of a CSV file with this header and these rows.
fn csv_text(header: &str, rows: &[String]) -> String {
    let mut out = format!("{header}\n");
    for r in rows {
        out.push_str(r);
        out.push('\n');
    }
    out
}

/// Write a CSV file into [`results_dir`], given a header and rows.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> PathBuf {
    let path = results_dir().join(name);
    fs::write(&path, csv_text(header, rows)).expect("write CSV");
    path
}

/// A figure series of one of the paper's tables, held in memory until
/// [`Series::write`] so a test can compare it with the committed file
/// instead of overwriting it.
pub struct Series {
    /// File name under `bench_results/`.
    pub name: String,
    header: &'static str,
    rows: Vec<String>,
}

impl Series {
    /// The file's exact contents.
    pub fn text(&self) -> String {
        csv_text(self.header, &self.rows)
    }

    /// Write the file and return its path.
    pub fn write(&self) -> PathBuf {
        write_csv(&self.name, self.header, &self.rows)
    }
}

/// Render a ruled table to stdout: a title, a header row, and data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |c: char| {
        let total: usize = widths.iter().sum::<usize>() + 3 * widths.len() + 1;
        println!("{}", c.to_string().repeat(total));
    };
    println!("\n{title}");
    line('=');
    let mut head = String::from("|");
    for (h, w) in header.iter().zip(&widths) {
        head.push_str(&format!(" {h:>w$} |"));
    }
    println!("{head}");
    line('-');
    for row in rows {
        let mut out = String::from("|");
        for (cell, w) in row.iter().zip(&widths) {
            out.push_str(&format!(" {cell:>w$} |"));
        }
        println!("{out}");
    }
    line('=');
}

/// Format a ratio as `x.xx×`.
pub fn ratio(ours: f64, paper: f64) -> String {
    if paper == 0.0 {
        "—".to_string()
    } else {
        format!("{:.2}x", ours / paper)
    }
}

/// Table 2's sweep on the calibrated simulator, against `paper::TABLE2`:
/// the printed rows and the Figure-8 series.
pub fn table2_sweep() -> (Vec<Vec<String>>, Series) {
    use chant_sim::experiments::{pingpong, PAPER_SIZES};
    use chant_sim::CostModel;

    let iterations = 20_000; // the paper used 100,000; the shape is identical
    let rows_sim = pingpong(CostModel::paragon_pingpong(), &PAPER_SIZES, iterations)
        .expect("pingpong simulation");

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (r, p) in rows_sim.iter().zip(paper::TABLE2) {
        rows.push(vec![
            r.msg_bytes.to_string(),
            format!("{:.1}", r.process_us),
            format!("{:.1}", p.1),
            format!("{:.1}", r.thread_tp_us),
            format!("{:.1}%", r.tp_overhead_pct),
            format!("{:.1}%", p.3),
            format!("{:.1}", r.thread_sp_us),
            format!("{:.1}%", r.sp_overhead_pct),
            format!("{:.1}%", p.5),
            ratio(r.process_us, p.1),
        ]);
        csv.push(format!(
            "{},{},{},{}",
            r.msg_bytes, r.process_us, r.thread_tp_us, r.thread_sp_us
        ));
    }
    let series = Series {
        name: "table2_fig8_per_message_us.csv".to_string(),
        header: "bytes,process_us,thread_tp_us,thread_sp_us",
        rows: csv,
    };
    (rows, series)
}

/// β and the paper's (TP, PS, WQ) rows of polling table 3, 4 or 5.
fn polling_table(table: u32) -> (u64, [&'static [paper::PollingRow; 4]; 3]) {
    match table {
        3 => (100, [&paper::TABLE3_TP, &paper::TABLE3_PS, &paper::TABLE3_WQ]),
        4 => (1000, [&paper::TABLE4_TP, &paper::TABLE4_PS, &paper::TABLE4_WQ]),
        5 => (0, [&paper::TABLE5_TP, &paper::TABLE5_PS, &paper::TABLE5_WQ]),
        _ => panic!("the polling tables are 3, 4 and 5, not {table}"),
    }
}

/// The Figure-9 workload sweep of polling table 3, 4 or 5: its β, the
/// printed paper-vs-ours rows and the Figures 10–13 series.
pub fn polling_sweep(table: u32) -> (u64, Vec<Vec<String>>, [Series; 4]) {
    use chant_core::PollingPolicy;
    use chant_sim::experiments::{polling_run, PollingConfig, PAPER_ALPHAS};
    use chant_sim::CostModel;

    let (beta, [paper_tp, paper_ps, paper_wq]) = polling_table(table);
    let cost = CostModel::paragon_polling();
    let cfg = PollingConfig::default();
    let mut rows = Vec::new();
    let mut csv_time = Vec::new();
    let mut csv_ctxsw = Vec::new();
    let mut csv_msgtest = Vec::new();
    let mut csv_waiting = Vec::new();

    for (i, &alpha) in PAPER_ALPHAS.iter().enumerate() {
        let tp = polling_run(cost, PollingPolicy::ThreadPolls, alpha, beta, cfg)
            .expect("TP run");
        let ps = polling_run(cost, PollingPolicy::SchedulerPollsPs, alpha, beta, cfg)
            .expect("PS run");
        let wq = polling_run(cost, PollingPolicy::SchedulerPollsWq, alpha, beta, cfg)
            .expect("WQ run");

        for (run, paper_row, name) in [
            (&tp, &paper_tp[i], "Thread polls"),
            (&ps, &paper_ps[i], "Sched (PS)"),
            (&wq, &paper_wq[i], "Sched (WQ)"),
        ] {
            rows.push(vec![
                alpha.to_string(),
                name.to_string(),
                format!("{:.0}", run.time_ms),
                format!("{:.0}", paper_row.1),
                ratio(run.time_ms, paper_row.1),
                run.full_switches.to_string(),
                paper_row.2.to_string(),
                run.msgtest_failed.to_string(),
                paper_row.3.to_string(),
                format!("{:.2}", run.avg_waiting),
            ]);
        }
        csv_time.push(format!(
            "{alpha},{},{},{}",
            tp.time_ms, ps.time_ms, wq.time_ms
        ));
        csv_ctxsw.push(format!(
            "{alpha},{},{},{}",
            tp.full_switches, ps.full_switches, wq.full_switches
        ));
        csv_msgtest.push(format!(
            "{alpha},{},{},{}",
            tp.msgtest_failed, ps.msgtest_failed, wq.msgtest_failed
        ));
        csv_waiting.push(format!(
            "{alpha},{:.3},{:.3},{:.3}",
            tp.avg_waiting, ps.avg_waiting, wq.avg_waiting
        ));
    }

    let series = [
        ("fig10_time_ms", csv_time),
        ("fig11_ctxsw", csv_ctxsw),
        ("fig12_msgtest_failed", csv_msgtest),
        ("fig13_avg_waiting", csv_waiting),
    ]
    .map(|(figure, rows)| Series {
        name: format!("table_{table}_{figure}.csv"),
        header: "alpha,thread_polls,scheduler_polls_ps,scheduler_polls_wq",
        rows,
    });
    (beta, rows, series)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_tables_have_expected_shapes() {
        assert_eq!(paper::TABLE2.len(), 5);
        for tables in [
            [&paper::TABLE3_TP, &paper::TABLE3_PS, &paper::TABLE3_WQ],
            [&paper::TABLE4_TP, &paper::TABLE4_PS, &paper::TABLE4_WQ],
            [&paper::TABLE5_TP, &paper::TABLE5_PS, &paper::TABLE5_WQ],
        ] {
            for t in tables {
                assert_eq!(t.len(), 4);
                // Alphas ascend.
                for w in t.windows(2) {
                    assert!(w[0].0 < w[1].0);
                }
            }
        }
    }

    #[test]
    fn paper_orderings_hold_in_transcription() {
        // PS < TP < WQ on time, for every alpha, in Tables 3 and 4.
        for i in 0..4 {
            assert!(paper::TABLE3_PS[i].1 < paper::TABLE3_TP[i].1);
            assert!(paper::TABLE3_TP[i].1 < paper::TABLE3_WQ[i].1);
            assert!(paper::TABLE4_PS[i].1 < paper::TABLE4_TP[i].1);
            assert!(paper::TABLE4_TP[i].1 < paper::TABLE4_WQ[i].1);
            assert!(paper::TABLE5_PS[i].1 < paper::TABLE5_TP[i].1);
            assert!(paper::TABLE5_TP[i].1 < paper::TABLE5_WQ[i].1);
        }
    }

    /// "Tables 2–5 bit-identical" is the gate every refactor of the
    /// simulator or its cost model has to pass: regenerate every series
    /// the committed figures were drawn from and compare the bytes.
    #[test]
    fn simulated_series_match_the_committed_files_byte_for_byte() {
        let mut series = vec![table2_sweep().1];
        for table in [3, 4, 5] {
            series.extend(polling_sweep(table).2);
        }
        assert_eq!(series.len(), 13);
        for s in &series {
            let path = results_dir().join(&s.name);
            let committed = fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert_eq!(
                s.text(),
                committed,
                "{} no longer regenerates byte-for-byte",
                s.name
            );
        }
    }

    #[test]
    fn ratio_formats() {
        assert_eq!(ratio(2.0, 1.0), "2.00x");
        assert_eq!(ratio(1.0, 0.0), "—");
    }
}
