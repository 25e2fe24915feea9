//! The benchmark's own span recorder: spans are taken around the calls
//! into each layer, kept in memory, and written as Chrome-trace JSON
//! (`chrome://tracing`, Perfetto) when the run ends.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;

/// One timed interval. Spans of one operation share `op`; the `root`
/// span is the parent of the others with the same `op` on its lane.
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub root: bool,
    /// ns since the rank started.
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's spans, bounded: past `cap` new spans are counted, not
/// kept, so a fast build cannot grow the trace without limit.
pub struct SpanLog {
    lane: u32,
    spans: Vec<Span>,
    cap: usize,
    pub dropped: u64,
}

impl SpanLog {
    pub fn new(lane: u32, cap: usize) -> SpanLog {
        SpanLog {
            lane,
            spans: Vec::with_capacity(cap),
            cap,
            dropped: 0,
        }
    }

    pub fn push(&mut self, span: Span) {
        if self.spans.len() < self.cap {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

/// How much of `[start, end]` the given child intervals cover.
fn covered(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let (mut total, mut upto) = (0, start);
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(upto), e.min(end));
        if e > s {
            total += e - s;
            upto = e;
        }
    }
    total
}

/// Write every span as a complete (`"ph":"X"`) event, one Chrome-trace
/// thread per lane. Returns the mean self time per span name in µs: a
/// span's duration minus the part its children cover (a child's self
/// time is its whole duration — nothing is recorded below it yet).
pub fn write_chrome_trace(
    path: &Path,
    workload: &str,
    logs: &[SpanLog],
) -> std::io::Result<BTreeMap<String, f64>> {
    let mut self_ns: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{\"displayTimeUnit\":\"ns\",\"otherData\":{{\"workload\":\"{workload}\"}},\"traceEvents\":[")?;
    let mut first = true;
    for log in logs {
        let mut roots: BTreeMap<u64, &'static str> = BTreeMap::new();
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &log.spans {
            if s.root {
                roots.insert(s.op, s.name);
            } else {
                children
                    .entry(s.op)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        for s in &log.spans {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let own = if s.root {
                let kids = children
                    .get_mut(&s.op)
                    .map(|k| covered(s.start_ns, s.end_ns, k))
                    .unwrap_or(0);
                dur - kids
            } else {
                dur
            };
            let tally = self_ns.entry(s.name).or_default();
            *tally = (tally.0 + own, tally.1 + 1);
            let parent = match (s.root, roots.get(&s.op)) {
                (false, Some(p)) => format!("\"{p}\""),
                _ => "null".to_string(),
            };
            if !std::mem::take(&mut first) {
                out.write_all(b",")?;
            }
            write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"bench\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"parent\":{},\"self_us\":{:.3}}}}}",
                s.name,
                log.lane,
                s.start_ns as f64 / 1e3,
                dur as f64 / 1e3,
                s.op,
                parent,
                own as f64 / 1e3,
            )?;
        }
    }
    out.write_all(b"\n]}\n")?;
    out.flush()?;
    Ok(self_ns
        .into_iter()
        .map(|(name, (ns, n))| (name.to_string(), ns as f64 / 1e3 / n as f64))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Children [10,40] and [30,60] cover 50 of the root's 100.
        assert_eq!(covered(0, 100, &mut [(30, 60), (10, 40)]), 50);
        assert_eq!(covered(0, 100, &mut [(90, 150)]), 10);
        assert_eq!(covered(0, 100, &mut []), 0);
    }
}
