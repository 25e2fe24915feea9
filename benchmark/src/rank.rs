//! What runs inside the cluster: one OS process hosting both PEs
//! (in-process transport) or one PE (tcp-event). PE 0's main thread is
//! the coordinator — it owns the phase schedule, the load and the
//! report; PE 1's main thread follows its commands and otherwise only
//! serves.
//!
//! Everything here goes through the runtime's public surface (the list
//! is in `README.md`); each layer is measured from outside by timing
//! calls into it.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

use bytes::Bytes;
use chant_comm::Address;
use chant_core::{
    ChantCluster, ChantNode, ChanterId, PollingPolicy, RecvSrc, TcpOptions, TransportConfig,
};
use chant_kv::{
    kv_await_ready, kv_drain, kv_owners, kv_shard_of, kv_version_sum, with_kv, KvClient,
};
use chant_pubsub::{with_pubsub, PubsubNode};
use chant_rma::{with_rma, RmaNode};
use chant_ult::SpawnAttr;
use serde_json::Value;

use crate::counters::Counters;
use crate::gen::{self, KeyStream, SplitMix64};
use crate::json::{int, num, obj, text};
use crate::stats::{percentile, proc_usage, top_percentile, us, Thinned};
use crate::supervise::OUT_DIR;
use crate::trace::{Span, SpanLog};

/// Bound on any single wait inside the cluster, shorter than what the
/// supervisor allows a launch beyond its measured time, so a wedged
/// exchange ends in an error message before it ends in a kill.
const PATIENCE: Duration = Duration::from_secs(20);

const TAG_CTRL: i32 = 7301;
const TAG_REPLY: i32 = 7302;
const TAG_HELLO: i32 = 7303;
const TAG_ECHO: i32 = 7304;
const TAG_ECHO_REPLY: i32 = 7305;
const TAG_SELF: i32 = 7306;
const TAG_SLEEP: i32 = 7307;
const TAG_DONE: i32 = 7308;

const CMD_BEGIN: u8 = 1;
const CMD_END: u8 = 2;
const CMD_DRAIN: u8 = 3;
const CMD_FINISH: u8 = 4;

/// RMA segment the probe reads and writes on PE 1 (ASCII "BENC").
const PROBE_SEG: u32 = 0x4245_4E43;
const PROBE_SEG_BYTES: usize = 2048;
/// The probe walks the ladder once per period.
const PROBE_PERIOD: Duration = Duration::from_millis(10);

/// Homed at PE 0, the publisher: the fan-out tree is rooted at the
/// origin and a publish crosses the one inter-process link once.
const TOPIC: u64 = 0;

/// Closed-loop client ULTs on rank 0's single lane.
pub const CLIENTS: usize = 8;
/// Latency samples kept per client (see `Thinned`): every op of a run
/// at today's rates with room to spare, an even one-in-2^k sample of a
/// much faster build's. The buffers are written once before set-up
/// starts, so their resident size is the same on every commit and is
/// taken out of `peak_rss_mb`.
const SAMPLE_CAP: usize = 1 << 17;
const SAMPLE_BUFFERS_KB: u64 = (CLIENTS * SAMPLE_CAP * 8 / 1024) as u64;
const ROUND_CAP: usize = 1 << 14;
const CLIENT_STACK: usize = 256 * 1024;
/// A traced client records the spans of one op per period, so the
/// trace covers the whole traced window at any op rate.
const SPAN_PERIOD_NS: u64 = 2_000_000;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Kv { read_percent: u64 },
    Fanout,
}

pub fn kind_of(workload: &str) -> Option<(Kind, bool)> {
    Some(match workload {
        "kv_u10_inproc" => (Kind::Kv { read_percent: 90 }, false),
        "kv_u10_tcpev" => (Kind::Kv { read_percent: 90 }, true),
        "kv_c_tcpev" => (Kind::Kv { read_percent: 100 }, true),
        "fanout_tcpev" => (Kind::Fanout, true),
        // Not in the workload table: YCSB-A outruns serial replication,
        // the primaries' read leases lapse and reads stall for seconds,
        // so it cannot be a yardstick yet (README, "Why 10 % updates").
        // Kept runnable for the change that fixes that.
        "kv_a_inproc" => (Kind::Kv { read_percent: 50 }, false),
        "kv_a_tcpev" => (Kind::Kv { read_percent: 50 }, true),
        _ => return None,
    })
}

/// Ops a cluster of this kind has in flight at any moment: what a
/// cluster that never reports is charged as failed.
pub fn in_flight(kind: Kind) -> u64 {
    match kind {
        Kind::Kv { .. } => CLIENTS as u64,
        Kind::Fanout => 1,
    }
}

/// Everything a rank needs to know, passed on its command line.
#[derive(Clone)]
pub struct Params {
    pub workload: String,
    /// `None`: this process hosts both PEs on the in-process transport.
    pub rank: Option<u32>,
    pub peers: Vec<String>,
    pub seed: u64,
    pub warmup: Duration,
    /// Measured windows in order, each untraced (`false`) or traced.
    /// None at all: set up, report `setup_s`, tear down.
    pub windows: Vec<(Duration, bool)>,
    pub keys: u64,
    pub subs: u64,
    /// When the supervisor spawned this cluster (UNIX ns).
    pub spawned_unix_ns: u64,
    pub floor_us: f64,
}

pub fn unix_ns() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

struct Shared {
    p: Params,
    kind: Kind,
    run_start: Instant,
    /// 0 outside a measured window, else the window's index + 1.
    epoch: AtomicU32,
    stop: AtomicBool,
    clients: Mutex<Vec<ClientOut>>,
    report: Mutex<Option<Value>>,
}

impl Shared {
    fn now_ns(&self) -> u64 {
        self.run_start.elapsed().as_nanos() as u64
    }

    /// Seconds of tracing this run will do.
    fn traced_s(&self) -> f64 {
        let traced = self.p.windows.iter().filter(|w| w.1);
        traced.map(|w| w.0.as_secs_f64()).sum()
    }

    /// How long PE 1 may have to wait for its next command: everything
    /// PE 0 does between two of them is bounded by this.
    fn command_patience(&self) -> Duration {
        self.p.warmup + self.p.windows.iter().map(|w| w.0).sum::<Duration>() + 3 * PATIENCE
    }
}

/// Print the error where the supervisor looks for the report and leave:
/// once the coordinator has failed nothing else in the cluster can
/// finish, and the supervisor reaps the other rank.
fn fail(msg: String) -> ! {
    println!(
        "{}",
        serde_json::to_string(&obj([("error", text(msg))])).expect("error line")
    );
    std::process::exit(2)
}

pub fn run_rank(p: Params) {
    let (kind, tcpev) =
        kind_of(&p.workload).unwrap_or_else(|| fail(format!("unknown workload {}", p.workload)));
    let transport = match (tcpev, p.rank) {
        (true, Some(rank)) => TransportConfig::TcpEvent(TcpOptions {
            rank: Some(rank),
            peers: p.peers.clone(),
            ..TcpOptions::default()
        }),
        (false, None) => TransportConfig::InProcess,
        _ => fail("tcp-event workloads take --rank and --peers, in-process ones neither".into()),
    };
    let builder = ChantCluster::builder().pes(2).vps(1).transport(transport);
    let cluster = match kind {
        Kind::Kv { .. } => with_kv(builder),
        Kind::Fanout => with_pubsub(with_rma(builder)),
    }
    .build();

    let sh = Arc::new(Shared {
        p,
        kind,
        run_start: Instant::now(),
        epoch: AtomicU32::new(0),
        stop: AtomicBool::new(false),
        clients: Mutex::new(Vec::new()),
        report: Mutex::new(None),
    });
    let sh2 = Arc::clone(&sh);
    cluster.run(move |node| {
        let outcome = match (sh2.kind, node.pe()) {
            (Kind::Kv { .. }, 0) => kv_coordinator(node, &sh2).map(Some),
            (Kind::Kv { .. }, _) => kv_follower(node, &sh2).map(|()| None),
            (Kind::Fanout, 0) => fanout_coordinator(node, &sh2).map(Some),
            (Kind::Fanout, _) => fanout_follower(node, &sh2).map(|()| None),
        };
        match outcome {
            Ok(Some(report)) => *sh2.report.lock().expect("report slot") = Some(report),
            Ok(None) => {}
            Err(e) => fail(format!("PE {}: {e}", node.pe())),
        }
    });
    drop(cluster);
    let report = sh.report.lock().expect("report slot").take();
    if let Some(report) = report {
        println!("{}", serde_json::to_string(&report).expect("report line"));
    }
}

// ---------------------------------------------------------------------
// Control channel between the two main threads
// ---------------------------------------------------------------------

fn words(body: &[u8]) -> Vec<u64> {
    body.chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte word")))
        .collect()
}

fn unwords(words: &[u64]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Transport and `/proc` counters belong to the OS process: the lowest
/// PE a process hosts reports them.
fn process_wide(node: &ChantNode) -> bool {
    node.world().hosted_pes().start == node.pe()
}

/// Main threads have the same thread id on every node (same spawn order
/// everywhere), so each can address the other directly.
fn peer_main(node: &ChantNode, pe: u32) -> ChanterId {
    ChanterId::new(pe, 0, node.self_id().thread)
}

fn sleep_until(node: &ChantNode, until: Instant) {
    let left = until.saturating_duration_since(Instant::now());
    if !left.is_zero() {
        // Nobody sends this tag: a receive with a deadline is the
        // runtime's own timed wait.
        let _ = node.recv_timeout(RecvSrc::Any, Some(TAG_SLEEP), left);
    }
}

/// PE 1's main thread: snapshot counters and `drain` when told, and run
/// `finish` (the workload's wrap-up) last. Each answers with two words.
fn follow(
    node: &Arc<ChantNode>,
    sh: &Shared,
    drain: impl Fn() -> Result<[u64; 2], String>,
    finish: impl FnOnce() -> Result<[u64; 2], String>,
) -> Result<(), String> {
    let coordinator = peer_main(node, 0);
    let wide = process_wide(node);
    let mut begin = Counters::snapshot(node, wide);
    let mut finish = Some(finish);
    loop {
        let (_, body) = node
            .recv_timeout(RecvSrc::Any, Some(TAG_CTRL), sh.command_patience())
            .map_err(err("waiting for a command"))?;
        let reply = match body.first().copied() {
            Some(CMD_BEGIN) => {
                begin = Counters::snapshot(node, wide);
                continue;
            }
            Some(CMD_END) => Counters::snapshot(node, wide).since(&begin).values(),
            Some(CMD_DRAIN) => drain()?.to_vec(),
            Some(CMD_FINISH) => {
                let extra = finish.take().expect("one FINISH per run")()?;
                // A process of its own reports its peak memory.
                let u = if wide {
                    proc_usage()
                } else {
                    Default::default()
                };
                [&extra[..], &[u.hwm_kb][..]].concat()
            }
            other => return Err(format!("unknown command {other:?}")),
        };
        node.send(coordinator, TAG_REPLY, &unwords(&reply))
            .map_err(err("replying"))?;
        if finish.is_none() {
            return Ok(());
        }
    }
}

/// PE 0's end of the control channel.
struct Ctl<'a> {
    node: &'a Arc<ChantNode>,
    follower: ChanterId,
    begin: Counters,
}

impl<'a> Ctl<'a> {
    fn new(node: &'a Arc<ChantNode>) -> Ctl<'a> {
        Ctl {
            node,
            follower: peer_main(node, 1),
            begin: Counters::snapshot(node, true),
        }
    }

    fn command(&self, cmd: u8) -> Result<(), String> {
        self.node
            .send(self.follower, TAG_CTRL, &[cmd])
            .map_err(err("commanding PE 1"))
    }

    fn reply(&self) -> Result<Vec<u64>, String> {
        let (_, body) = self
            .node
            .recv_timeout(RecvSrc::Any, Some(TAG_REPLY), PATIENCE)
            .map_err(err("waiting for PE 1's reply"))?;
        Ok(words(&body))
    }

    fn begin(&mut self) -> Result<(), String> {
        self.command(CMD_BEGIN)?;
        self.begin = Counters::snapshot(self.node, true);
        Ok(())
    }

    /// Counter deltas since `begin`, summed over both ranks.
    fn end(&self) -> Result<Counters, String> {
        let mut delta = Counters::snapshot(self.node, true).since(&self.begin);
        self.command(CMD_END)?;
        delta.add_values(&self.reply()?)?;
        Ok(delta)
    }
}

/// The echo thread the probe's point-to-point round trip bounces off.
/// An empty body ends it.
fn spawn_echo(node: &Arc<ChantNode>) -> ChanterId {
    node.spawn(
        SpawnAttr::new().name("echo").stack_size(CLIENT_STACK),
        |node| {
            while let Ok((info, body)) = node.recv_tag(TAG_ECHO) {
                let Some(src) = info.src_id().filter(|_| !body.is_empty()) else {
                    break;
                };
                if node.send_bytes(src, TAG_ECHO_REPLY, body).is_err() {
                    break;
                }
            }
        },
    )
}

/// Common set-up of PE 1: the probe's targets, then hello.
fn follower_hello(node: &Arc<ChantNode>) -> Result<(), String> {
    node.rma_register(PROBE_SEG, PROBE_SEG_BYTES);
    let echo = spawn_echo(node);
    node.send(
        peer_main(node, 0),
        TAG_HELLO,
        &unwords(&[u64::from(echo.thread)]),
    )
    .map_err(err("hello"))
}

/// Common set-up of PE 0: wait for PE 1's hello; its echo thread's id.
fn await_hello(node: &Arc<ChantNode>) -> Result<ChanterId, String> {
    node.rma_register(PROBE_SEG, PROBE_SEG_BYTES);
    let (_, body) = node
        .recv_timeout(RecvSrc::Any, Some(TAG_HELLO), PATIENCE)
        .map_err(err("waiting for PE 1's hello"))?;
    let tid = words(&body).first().copied().ok_or("empty hello")?;
    Ok(ChanterId::new(1, 0, tid as chant_ult::Tid))
}

// ---------------------------------------------------------------------
// Phase schedule
// ---------------------------------------------------------------------

/// What one measured window saw, beyond the load's own samples.
struct WindowObs {
    traced: bool,
    seconds: f64,
    counters: Counters,
    probe: Option<ProbeOut>,
}

/// Warm up, then run each measured window: counters snapshotted on both
/// ranks around it, the probe alongside it if it is traced. `drive`
/// produces or waits out the load until the given instant.
fn run_phases(
    node: &Arc<ChantNode>,
    sh: &Arc<Shared>,
    ctl: &mut Ctl<'_>,
    echo: ChanterId,
    mut drive: impl FnMut(Instant, u32) -> Result<(), String>,
) -> Result<Vec<WindowObs>, String> {
    drive(Instant::now() + sh.p.warmup, 0)?;
    let mut out = Vec::new();
    for (i, &(len, traced)) in sh.p.windows.iter().enumerate() {
        let epoch = i as u32 + 1;
        let probe_stop = Arc::new(AtomicBool::new(false));
        let probe_out = Arc::new(Mutex::new(None));
        let probe = traced.then(|| {
            let (stop, sink, sh) = (
                Arc::clone(&probe_stop),
                Arc::clone(&probe_out),
                Arc::clone(sh),
            );
            node.spawn(
                SpawnAttr::new().name("probe").stack_size(CLIENT_STACK),
                move |node| {
                    *sink.lock().expect("probe sink") = Some(probe_loop(node, &sh, &stop, echo));
                },
            )
        });
        ctl.begin()?;
        sh.epoch.store(epoch, Ordering::SeqCst);
        let t0 = Instant::now();
        drive(t0 + len, epoch)?;
        sh.epoch.store(0, Ordering::SeqCst);
        let seconds = t0.elapsed().as_secs_f64();
        let counters = ctl.end()?;
        probe_stop.store(true, Ordering::SeqCst);
        if let Some(id) = probe {
            node.remote_join(id).map_err(err("joining the probe"))?;
        }
        let probe = probe_out.lock().expect("probe sink").take();
        out.push(WindowObs {
            traced,
            seconds,
            counters,
            probe,
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// The probe: one walk down the layer ladder per period
// ---------------------------------------------------------------------

const RUNGS: [&str; 9] = [
    "ult.yield",
    "ult.spawn_join",
    "comm.self_rtt",
    "core.p2p_rtt",
    "core.rsr_null",
    "core.rsr_self",
    "rma.get_8B",
    "rma.put_1KiB",
    "rma.fetch_add",
];

struct ProbeOut {
    rounds: u64,
    errors: u64,
    /// Sorted latencies per rung, ns.
    lat: Vec<Vec<u64>>,
    spans: SpanLog,
}

impl ProbeOut {
    fn p(&self, rung: &str, q: f64) -> f64 {
        let i = RUNGS.iter().position(|r| *r == rung).expect("known rung");
        us(percentile(&self.lat[i], q))
    }
}

fn probe_loop(node: &Arc<ChantNode>, sh: &Shared, stop: &AtomicBool, echo: ChanterId) -> ProbeOut {
    let me = node.self_id();
    let (here, peer) = (node.address(), Address::new(1, 0));
    let kib = [0x5Au8; 1024];
    let mut out = ProbeOut {
        rounds: 0,
        errors: 0,
        lat: RUNGS.iter().map(|_| Vec::with_capacity(1 << 14)).collect(),
        // At most one round per period, a span per rung and the round's.
        spans: SpanLog::new(
            PROBE_LANE,
            (sh.traced_s() / PROBE_PERIOD.as_secs_f64()) as usize * (RUNGS.len() + 1) + 64,
        ),
    };
    let mut next = Instant::now();
    while !stop.load(Ordering::SeqCst) {
        let round_start = sh.now_ns();
        for (i, rung) in RUNGS.iter().enumerate() {
            let t0 = sh.now_ns();
            let ok = match i {
                0 => {
                    node.yield_now();
                    true
                }
                1 => {
                    let t = node
                        .spawn_chanter(SpawnAttr::new().stack_size(64 * 1024), |_| Bytes::new());
                    node.remote_join(t).is_ok()
                }
                2 => node.send(me, TAG_SELF, &kib[..32]).is_ok() && node.recv_tag(TAG_SELF).is_ok(),
                3 => {
                    node.send(echo, TAG_ECHO, &kib[..32]).is_ok()
                        && node
                            .recv_timeout(RecvSrc::Any, Some(TAG_ECHO_REPLY), PATIENCE)
                            .is_ok()
                }
                4 => node.ping(peer, b"").is_ok(),
                5 => node.ping(here, b"").is_ok(),
                6 => node.rma_get(peer, PROBE_SEG, 0, 8).is_ok(),
                7 => node.rma_put(peer, PROBE_SEG, 64, &kib).is_ok(),
                _ => node.rma_fetch_add(peer, PROBE_SEG, 8, 1).is_ok(),
            };
            let t1 = sh.now_ns();
            if ok {
                out.lat[i].push(t1 - t0);
                out.spans.push(Span {
                    name: rung,
                    op: out.rounds,
                    root: false,
                    start_ns: t0,
                    end_ns: t1,
                });
            } else {
                out.errors += 1;
            }
        }
        out.spans.push(Span {
            name: "probe.round",
            op: out.rounds,
            root: true,
            start_ns: round_start,
            end_ns: sh.now_ns(),
        });
        out.rounds += 1;
        next = (next + PROBE_PERIOD).max(Instant::now());
        sleep_until(node, next);
    }
    for l in &mut out.lat {
        l.sort_unstable();
    }
    out
}

const PROBE_LANE: u32 = 100;
const PUBLISHER_LANE: u32 = 200;

// ---------------------------------------------------------------------
// KV workloads
// ---------------------------------------------------------------------

/// Sample word: class in the top two bits, epoch in the next two,
/// latency in ns below.
const CLASS_SHIFT: u32 = 62;
const EPOCH_SHIFT: u32 = 60;
const LAT_MASK: u64 = (1 << EPOCH_SHIFT) - 1;
const CLASSES: [&str; 4] = [
    "kv_get_local",
    "kv_get_remote",
    "kv_put_local",
    "kv_put_remote",
];

struct ClientOut {
    samples: Thinned<u64>,
    /// Ops, and updates among them, completed per window: counted apart
    /// from `samples` so they stay exact when the samples are thinned.
    done: Vec<u64>,
    updates: Vec<u64>,
    attempted: u64,
    failed: u64,
    acked_updates: u64,
    bad_reads: u64,
    spans: SpanLog,
}

/// Wait out this node's replication backlog: how long it took (ns) and
/// the sum of its primary shard versions afterwards.
fn timed_drain(node: &Arc<ChantNode>) -> Result<[u64; 2], String> {
    let t = Instant::now();
    kv_drain(node, PATIENCE).map_err(|e| format!("kv_drain on PE {}: {e}", node.pe()))?;
    Ok([t.elapsed().as_nanos() as u64, kv_version_sum(node)])
}

/// Both ranks drain at once; the slower one is the backlog (ns), and
/// the version sums add up.
fn drain_both(node: &Arc<ChantNode>, ctl: &Ctl<'_>) -> Result<[u64; 2], String> {
    ctl.command(CMD_DRAIN)?;
    let [my_ns, my_vsum] = timed_drain(node)?;
    let [peer_ns, peer_vsum] = ctl.reply()?[..] else {
        return Err("short DRAIN reply".into());
    };
    Ok([my_ns.max(peer_ns), my_vsum + peer_vsum])
}

fn kv_follower(node: &Arc<ChantNode>, sh: &Shared) -> Result<(), String> {
    kv_await_ready(node, PATIENCE).map_err(err("kv_await_ready"))?;
    follower_hello(node)?;
    follow(node, sh, || timed_drain(node), || Ok([0, 0]))
}

fn kv_client(
    node: &Arc<ChantNode>,
    sh: &Shared,
    c: usize,
    samples: Thinned<u64>,
    local: &[bool],
    read_percent: u64,
) -> ClientOut {
    let p = &sh.p;
    let mut kv = KvClient::new(node);
    let mut keys = KeyStream::new(p.keys, gen::mix64(p.seed ^ (c as u64 + 1)));
    let mut ops = SplitMix64::new(gen::mix64(p.seed ^ 0xA5A5_5A5A ^ ((c as u64 + 1) << 32)));
    let traced: Vec<bool> = p.windows.iter().map(|w| w.1).collect();
    let mut out = ClientOut {
        samples,
        done: vec![0; p.windows.len()],
        updates: vec![0; p.windows.len()],
        attempted: 0,
        failed: 0,
        acked_updates: 0,
        bad_reads: 0,
        // Two spans per recorded op, one op per period.
        spans: SpanLog::new(
            c as u32,
            (sh.traced_s() * 1e9 / SPAN_PERIOD_NS as f64) as usize * 2 + 64,
        ),
    };
    let mut next_span_ns = 0;
    let mut nonce = (c as u64 + 1) << 48;
    while !sh.stop.load(Ordering::Relaxed) {
        let begin = sh.now_ns();
        let k = keys.next_key();
        let key = gen::key_of(k);
        let read = ops.next_u64() % 100 < read_percent;
        out.attempted += 1;
        let t0 = sh.now_ns();
        let ok = if read {
            match kv.get(&key) {
                Ok(Some((_, value))) => {
                    out.bad_reads += u64::from(!gen::value_matches(p.seed, k, &value));
                    true
                }
                Ok(None) => {
                    out.bad_reads += 1;
                    true
                }
                Err(_) => false,
            }
        } else {
            nonce += 1;
            let acked = kv.put(&key, &gen::value_of(p.seed, k, nonce)).is_ok();
            out.acked_updates += u64::from(acked);
            acked
        };
        let t1 = sh.now_ns();
        if !ok {
            out.failed += 1;
            continue;
        }
        let epoch = sh.epoch.load(Ordering::Relaxed);
        if epoch == 0 {
            continue;
        }
        let w = epoch as usize - 1;
        let class = u64::from(!read) * 2 + u64::from(!local[k as usize]);
        out.done[w] += 1;
        out.updates[w] += u64::from(!read);
        out.samples
            .push(class << CLASS_SHIFT | u64::from(epoch) << EPOCH_SHIFT | (t1 - t0).min(LAT_MASK));
        if traced[w] && begin >= next_span_ns {
            next_span_ns = begin + SPAN_PERIOD_NS;
            let op = out.done[w];
            let call = if read { "kv.get" } else { "kv.put" };
            out.spans.push(Span {
                name: call,
                op,
                root: false,
                start_ns: t0,
                end_ns: t1,
            });
            out.spans.push(Span {
                name: "client.op",
                op,
                root: true,
                start_ns: begin,
                end_ns: sh.now_ns(),
            });
        }
    }
    out
}

fn kv_coordinator(node: &Arc<ChantNode>, sh: &Arc<Shared>) -> Result<Value, String> {
    let p = &sh.p;
    let Kind::Kv { read_percent } = sh.kind else {
        unreachable!("kv coordinator on a kv workload")
    };
    let mut buffers: Vec<Thinned<u64>> = (0..CLIENTS)
        .map(|_| Thinned::new(SAMPLE_CAP, u64::MAX))
        .collect();
    kv_await_ready(node, PATIENCE).map_err(err("kv_await_ready"))?;
    let echo = await_hello(node)?;

    // Preload every key once, striped over as many loader threads as
    // there will be clients.
    let loaders: Vec<ChanterId> = (0..CLIENTS)
        .map(|c| {
            let sh = Arc::clone(sh);
            node.spawn_chanter(SpawnAttr::new().stack_size(CLIENT_STACK), move |node| {
                let mut kv = KvClient::new(node);
                let acked = (c as u64..sh.p.keys)
                    .step_by(CLIENTS)
                    .filter(|&k| {
                        kv.put(&gen::key_of(k), &gen::value_of(sh.p.seed, k, 0))
                            .is_ok()
                    })
                    .count();
                Bytes::copy_from_slice(&(acked as u64).to_le_bytes())
            })
        })
        .collect();
    let mut preloaded = 0;
    for l in loaders {
        let body = node.remote_join(l).map_err(err("joining a loader"))?;
        preloaded += words(&body).first().copied().unwrap_or(0);
    }
    // The preload's replication backlog is part of set-up: primaries
    // cannot renew their read leases until it has drained.
    let mut ctl = Ctl::new(node);
    drain_both(node, &ctl)?;
    let setup_s = unix_ns().saturating_sub(p.spawned_unix_ns) as f64 / 1e9;

    let me = node.address();
    let local: Arc<Vec<bool>> = Arc::new(
        (0..p.keys)
            .map(|k| kv_owners(node, kv_shard_of(node, &gen::key_of(k))).0 == me)
            .collect(),
    );
    let clients: Vec<ChanterId> = (0..CLIENTS)
        .map(|c| {
            let (sh, local) = (Arc::clone(sh), Arc::clone(&local));
            let samples = buffers.pop().expect("one buffer per client");
            node.spawn(SpawnAttr::new().stack_size(CLIENT_STACK), move |node| {
                let out = kv_client(node, &sh, c, samples, &local, read_percent);
                sh.clients.lock().expect("client sink").push(out);
            })
        })
        .collect();
    let windows = run_phases(node, sh, &mut ctl, echo, |until, _| {
        sleep_until(node, until);
        Ok(())
    })?;
    sh.stop.store(true, Ordering::SeqCst);
    for c in clients {
        node.remote_join(c).map_err(err("joining a client"))?;
    }

    let [drain_ns, vsum] = drain_both(node, &ctl)?;
    let _ = node.send(echo, TAG_ECHO, b"");
    ctl.command(CMD_FINISH)?;
    let [_, _, peer_hwm_kb] = ctl.reply()?[..] else {
        return Err("short FINISH reply".into());
    };
    let mine = proc_usage();

    let clients = std::mem::take(&mut *sh.clients.lock().expect("client sink"));
    let sum = |f: fn(&ClientOut) -> u64| clients.iter().map(f).sum::<u64>();
    let attempted = p.keys + sum(|c| c.attempted);
    let failed = (p.keys - preloaded) + sum(|c| c.failed);
    let acked = preloaded + sum(|c| c.acked_updates);

    let mut violations = Vec::new();
    if sum(|c| c.bad_reads) > 0 {
        violations.push(format!(
            "{} reads of preloaded keys missed or returned a foreign value",
            sum(|c| c.bad_reads)
        ));
    }
    // An op that failed may or may not have been applied.
    if vsum < acked || vsum > acked + failed {
        violations.push(format!(
            "Σ primary shard versions {vsum} != {acked} acknowledged mutations"
        ));
    }

    let mut m = Metrics::default();
    let mut notes = BTreeMap::new();
    m.set("setup_s", setup_s);
    m.set(
        "peak_rss_mb",
        (mine.hwm_kb - SAMPLE_BUFFERS_KB).max(peer_hwm_kb) as f64 / 1024.0,
    );
    m.set("kv.drain_ms", drain_ns as f64 / 1e6);
    m.set("failed_ratio", failed as f64 / attempted as f64);
    let stride = clients.iter().map(|c| c.samples.stride()).max();
    notes.insert("sample_stride".into(), int(stride.unwrap_or(1)));

    for (w, obs) in windows.iter().enumerate() {
        let epoch = w as u64 + 1;
        let mut by_class: Vec<Vec<u64>> = vec![Vec::new(); 4];
        for c in &clients {
            for &s in c
                .samples
                .items()
                .iter()
                .filter(|&&s| (s >> EPOCH_SHIFT) & 3 == epoch)
            {
                by_class[(s >> CLASS_SHIFT) as usize].push(s & LAT_MASK);
            }
        }
        let merged = |classes: &[usize]| {
            let mut v: Vec<u64> = classes
                .iter()
                .flat_map(|&c| by_class[c].iter().copied())
                .collect();
            v.sort_unstable();
            v
        };
        let all = merged(&[0, 1, 2, 3]);
        let done: u64 = clients.iter().map(|c| c.done[w]).sum();
        let rate = done as f64 / obs.seconds;
        note_window(&mut notes, w + 1, &all, obs);
        notes.insert(format!("window{epoch}.ops"), int(done));
        let remote = (by_class[1].len() + by_class[3].len()) as f64;
        notes.insert(
            format!("window{epoch}.remote_primary_share"),
            num(remote / all.len().max(1) as f64),
        );
        if !obs.traced {
            let (reads, updates) = (merged(&[0, 1]), merged(&[2, 3]));
            m.set("ops_per_s", rate);
            // A read-only window has no update to time: the column then
            // repeats the figure for all ops so that it is never empty.
            let writes = if updates.is_empty() { &all } else { &updates };
            m.set("update_p75_us", us(percentile(writes, 0.75)));
            m.set("op_p50_us", us(percentile(&all, 0.5)));
            m.set("op_p75_us", us(percentile(&all, 0.75)));
            m.set("op_p99_us", us(percentile(&all, 0.99)));
            m.set("cpu_us_per_op", cpu_us(&obs.counters) / done.max(1) as f64);
            m.set("kv_ops_per_s", rate);
            m.set("kv_read_p50_us", us(percentile(&reads, 0.5)));
            m.set("kv_read_p99_us", us(percentile(&reads, 0.99)));
            m.set("kv_update_p50_us", us(percentile(&updates, 0.5)));
            m.set("kv_update_p99_us", us(percentile(&updates, 0.99)));
            continue;
        }
        for (i, class) in CLASSES.iter().enumerate() {
            let v = merged(&[i]);
            m.set(format!("client.{class}_p50_us"), us(percentile(&v, 0.5)));
            m.set(format!("client.{class}_p99_us"), us(percentile(&v, 0.99)));
        }
        m.set(
            "client.kv_mean_us",
            us(all.iter().sum::<u64>()) / all.len().max(1) as f64,
        );
        m.set("client.kv_max_us", us(all.last().copied().unwrap_or(0)));
        m.set(
            "client.over_1ms_ratio",
            all.iter().filter(|&&l| l > 1_000_000).count() as f64 / all.len().max(1) as f64,
        );
        let updates: u64 = clients.iter().map(|c| c.updates[w]).sum();
        let c = &obs.counters;
        m.set(
            "kv.repl_sent_per_update",
            // Any record shipped without an update shows as itself.
            c.getf("kv.repl_sent") / updates.max(1) as f64,
        );
        layer_metrics(&mut m, obs, done as f64, rate, p.floor_us);
        m.set(
            "kv.get_over_rsr_us",
            m.get("client.kv_get_remote_p50_us") - m.get("core.rsr_null_p50_us"),
        );
        m.set(
            "kv.put_over_rsr_us",
            m.get("client.kv_put_remote_p50_us") - m.get("core.rsr_null_p50_us"),
        );
        violations.extend(probe_violation(obs));
    }
    let mut spans: Vec<SpanLog> = clients.into_iter().map(|c| c.spans).collect();
    spans.extend(windows.into_iter().filter_map(|w| w.probe.map(|p| p.spans)));
    finish_report(sh, m, notes, violations, attempted, failed, spans)
}

/// Rank 0's metrics by name.
#[derive(Default)]
struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// # Panics
    /// On a metric not set yet: the `*_over_*` differences are taken
    /// after both of their terms.
    fn get(&self, name: &str) -> f64 {
        *self
            .0
            .get(name)
            .unwrap_or_else(|| panic!("{name} used before it was measured"))
    }
}

/// What every window notes whatever the load: its length, how many
/// samples its percentiles rest on, and the highest percentile that
/// still has ten samples beyond it.
fn note_window(notes: &mut BTreeMap<String, Value>, epoch: usize, sorted: &[u64], obs: &WindowObs) {
    notes.insert(format!("window{epoch}.samples"), int(sorted.len() as u64));
    notes.insert(format!("window{epoch}.seconds"), num(obs.seconds));
    if let Some((pct, v)) = top_percentile(sorted) {
        notes.insert(
            format!("window{epoch}.top_percentile"),
            obj([("percent", num(pct)), ("us", num(us(v)))]),
        );
    }
}

fn cpu_us(c: &Counters) -> f64 {
    c.getf("proc.cpu_user_us") + c.getf("proc.cpu_sys_us")
}

/// The per-layer metrics every traced window yields whatever the load:
/// the probe's ladder, the counter deltas per op, the process figures.
fn layer_metrics(m: &mut Metrics, obs: &WindowObs, ops: f64, rate: f64, floor_us: f64) {
    let c = &obs.counters;
    let ops = ops.max(1.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    for name in [
        "full_switches",
        "partial_switches",
        "blocks",
        "schedule_points",
        "idle_spins",
    ] {
        m.set(
            format!("ult.{name}_per_op"),
            c.getf(&format!("ult.{name}")) / ops,
        );
    }
    for name in ["msgtests", "blocking_waits", "sends"] {
        m.set(
            format!("comm.{name}_per_op"),
            c.getf(&format!("comm.{name}")) / ops,
        );
    }
    m.set("comm.bytes_per_op", c.getf("comm.bytes_sent") / ops);
    m.set(
        "comm.msgtest_fail_ratio",
        ratio(c.getf("comm.msgtest_failures"), c.getf("comm.msgtests")),
    );
    m.set(
        "comm.unexpected_ratio",
        ratio(
            c.getf("comm.unexpected_buffered"),
            c.getf("comm.unexpected_buffered") + c.getf("comm.posted_matches"),
        ),
    );
    // As the transport counts them: the in-process one counts the
    // frames it hands over too, but writes no bytes.
    let frames = c.getf("transport.frames_sent");
    let writes =
        frames - c.getf("transport.coalesced_frames") + c.getf("transport.coalesced_writes");
    m.set("transport.frames_per_op", frames / ops);
    m.set(
        "transport.frame_bytes_per_op",
        c.getf("transport.frame_bytes_sent") / ops,
    );
    m.set("transport.frames_per_write", ratio(frames, writes));
    m.set(
        "transport.wakeups_per_op",
        c.getf("transport.wakeups") / ops,
    );
    m.set(
        "transport.pool_hit_ratio",
        ratio(
            c.getf("transport.pool_hits"),
            c.getf("transport.pool_hits") + c.getf("transport.pool_misses"),
        ),
    );
    for name in ["partial_writes", "send_failures", "reconnects"] {
        m.set(
            format!("transport.{name}"),
            c.getf(&format!("transport.{name}")),
        );
    }
    m.set("os.tcp_floor_rtt_us", floor_us);
    for name in ["retries", "timeouts", "dup_dropped", "dup_replayed"] {
        m.set(format!("core.rsr_{name}"), c.getf(&format!("rsr.{name}")));
    }
    for name in [
        "repl_retries",
        "no_lease",
        "not_ready",
        "dup_replayed",
        "stale_dropped",
        "staged_bulk",
    ] {
        m.set(format!("kv.{name}"), c.getf(&format!("kv.{name}")));
    }
    for name in ["retransmits", "dup_dropped", "resyncs"] {
        m.set(format!("pubsub.{name}"), c.getf(&format!("pubsub.{name}")));
    }
    m.set(
        "pubsub.frames_per_publish",
        ratio(c.getf("pubsub.forwarded"), c.getf("pubsub.published")),
    );
    m.set(
        "pubsub.acks_per_publish",
        ratio(c.getf("pubsub.acks"), c.getf("pubsub.published")),
    );
    m.set("proc.cpu_user_s", c.getf("proc.cpu_user_us") / 1e6);
    m.set("proc.cpu_sys_s", c.getf("proc.cpu_sys_us") / 1e6);
    m.set("proc.vol_ctx_switches_per_op", c.getf("proc.vol_ctx") / ops);
    m.set(
        "proc.invol_ctx_switches_per_op",
        c.getf("proc.invol_ctx") / ops,
    );
    m.set("proc.threads", c.getf("proc.threads"));
    m.set(
        "bench.trace_overhead_ratio",
        ratio(m.0.get("ops_per_s").copied().unwrap_or(0.0), rate),
    );

    let Some(probe) = &obs.probe else { return };
    m.set("bench.probe_rounds", probe.rounds as f64);
    for (metric, rung, q) in [
        ("ult.yield_p50_us", "ult.yield", 0.5),
        ("ult.yield_p99_us", "ult.yield", 0.99),
        ("ult.spawn_join_p50_us", "ult.spawn_join", 0.5),
        ("comm.self_rtt_p50_us", "comm.self_rtt", 0.5),
        ("core.p2p_rtt_p50_us", "core.p2p_rtt", 0.5),
        ("core.p2p_rtt_p99_us", "core.p2p_rtt", 0.99),
        ("core.rsr_null_p50_us", "core.rsr_null", 0.5),
        ("core.rsr_null_p99_us", "core.rsr_null", 0.99),
        ("core.rsr_self_p50_us", "core.rsr_self", 0.5),
        ("rma.get_8B_p50_us", "rma.get_8B", 0.5),
        ("rma.put_1KiB_p50_us", "rma.put_1KiB", 0.5),
        ("rma.fetch_add_p50_us", "rma.fetch_add", 0.5),
    ] {
        m.set(metric, probe.p(rung, q));
    }
    m.set(
        "core.p2p_over_floor_us",
        m.get("core.p2p_rtt_p50_us") - floor_us,
    );
    m.set(
        "core.rsr_over_p2p_us",
        m.get("core.rsr_null_p50_us") - m.get("core.p2p_rtt_p50_us"),
    );
    m.set(
        "rma.get_over_rsr_us",
        m.get("rma.get_8B_p50_us") - m.get("core.rsr_null_p50_us"),
    );
}

fn probe_violation(obs: &WindowObs) -> Option<String> {
    let errors = obs.probe.as_ref()?.errors;
    (errors > 0).then(|| format!("{errors} probe calls failed"))
}

/// Per-layer names with no meaning on a workload of the other kind;
/// a traced run reports them as 0.
const KV_ONLY: [&str; 20] = [
    "kv_ops_per_s",
    "kv_read_p50_us",
    "kv_update_p50_us",
    "kv_read_p99_us",
    "kv_update_p99_us",
    "client.kv_get_local_p50_us",
    "client.kv_get_local_p99_us",
    "client.kv_get_remote_p50_us",
    "client.kv_get_remote_p99_us",
    "client.kv_put_local_p50_us",
    "client.kv_put_local_p99_us",
    "client.kv_put_remote_p50_us",
    "client.kv_put_remote_p99_us",
    "client.kv_mean_us",
    "client.kv_max_us",
    "client.over_1ms_ratio",
    "kv.get_over_rsr_us",
    "kv.put_over_rsr_us",
    "kv.repl_sent_per_update",
    "kv.drain_ms",
];
const FANOUT_ONLY: [&str; 7] = [
    "fanout_deliveries_per_s",
    "fanout_complete_p50_us",
    "fanout_complete_p99_us",
    "pubsub.publish_call_p50_us",
    "pubsub.first_deliver_p50_us",
    "pubsub.last_local_deliver_p50_us",
    "pubsub.last_remote_deliver_p50_us",
];

/// Assemble rank 0's report line; write the trace if there was one.
fn finish_report(
    sh: &Shared,
    mut metrics: Metrics,
    mut notes: BTreeMap<String, Value>,
    mut violations: Vec<String>,
    attempted: u64,
    failed: u64,
    spans: Vec<SpanLog>,
) -> Result<Value, String> {
    if spans.iter().any(|s| !s.is_empty()) {
        let path = PathBuf::from(OUT_DIR).join(format!("trace_{}.json", sh.p.workload));
        let self_us = crate::trace::write_chrome_trace(&path, &sh.p.workload, &spans)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        notes.insert("trace_file".into(), text(path.display().to_string()));
        notes.insert(
            "span_mean_self_us".into(),
            obj(self_us.into_iter().map(|(k, v)| (k, num(v)))),
        );
        // The logs are sized from the traced time, not the op rate.
        let dropped: u64 = spans.iter().map(|s| s.dropped).sum();
        if dropped > 0 {
            violations.push(format!("the span recorder dropped {dropped} spans"));
        }
    }
    let not_applicable: &[&str] = match sh.kind {
        Kind::Kv { .. } => &FANOUT_ONLY,
        Kind::Fanout => &KV_ONLY,
    };
    for name in not_applicable {
        metrics.set(*name, 0.0);
    }
    notes.insert(
        "polling_policy".into(),
        text(PollingPolicy::default().label()),
    );
    Ok(obj([
        (
            "metrics",
            obj(metrics.0.into_iter().map(|(k, v)| (k, num(v)))),
        ),
        ("notes", Value::Object(notes)),
        (
            "violations",
            Value::Array(violations.into_iter().map(text).collect()),
        ),
        ("attempted", int(attempted)),
        ("failed", int(failed)),
    ]))
}

// ---------------------------------------------------------------------
// Fan-out workload
// ---------------------------------------------------------------------

/// One PE's view of the publish in flight: how many of its subscribers
/// have it, and when the first and the last got it.
#[derive(Default)]
struct Round {
    ready: AtomicU64,
    count: AtomicU64,
    first_unix_ns: AtomicU64,
}

/// What every subscriber tallies; summed per PE at the end.
#[derive(Default)]
struct SubTally {
    received: AtomicU64,
    violations: AtomicU64,
}

fn spawn_subscribers(
    node: &Arc<ChantNode>,
    sh: &Arc<Shared>,
    n: u64,
    round: &Arc<Round>,
    tally: &Arc<SubTally>,
) -> Vec<ChanterId> {
    let publisher = peer_main(node, 0);
    (0..n)
        .map(|_| {
            let (sh, round, tally) = (Arc::clone(sh), Arc::clone(round), Arc::clone(tally));
            node.spawn(SpawnAttr::new().stack_size(CLIENT_STACK), move |node| {
                let Ok(sub) = node.subscribe(TOPIC) else {
                    tally.violations.fetch_add(1, Ordering::SeqCst);
                    round.ready.fetch_add(1, Ordering::SeqCst);
                    return;
                };
                round.ready.fetch_add(1, Ordering::SeqCst);
                let mut expected = 1;
                // `recv` parks the thread; the timed variant would poll.
                while let Ok(msg) = sub.recv() {
                    let now = unix_ns();
                    tally.received.fetch_add(1, Ordering::Relaxed);
                    let stop = match gen::payload_check(sh.p.seed, &msg.payload) {
                        Some((seq, stop)) if seq == msg.seq && seq == expected => stop,
                        _ => {
                            tally.violations.fetch_add(1, Ordering::SeqCst);
                            false
                        }
                    };
                    expected = msg.seq + 1;
                    // The lane runs one subscriber at a time and there
                    // is no yield in here, so this block is atomic.
                    let got = round.count.fetch_add(1, Ordering::SeqCst) + 1;
                    if got == 1 {
                        round.first_unix_ns.store(now, Ordering::SeqCst);
                    }
                    if got == n {
                        round.count.store(0, Ordering::SeqCst);
                        let first = round.first_unix_ns.load(Ordering::SeqCst);
                        if node
                            .send(publisher, TAG_DONE, &unwords(&[msg.seq, first, now]))
                            .is_err()
                        {
                            tally.violations.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    if stop {
                        break;
                    }
                }
            })
        })
        .collect()
}

fn await_subscribed(node: &ChantNode, round: &Round, n: u64) -> Result<(), String> {
    let deadline = Instant::now() + PATIENCE;
    while round.ready.load(Ordering::SeqCst) < n {
        if Instant::now() > deadline {
            return Err("subscribers did not all subscribe".into());
        }
        node.yield_now();
    }
    Ok(())
}

fn fanout_follower(node: &Arc<ChantNode>, sh: &Arc<Shared>) -> Result<(), String> {
    let n = sh.p.subs / 2;
    let (round, tally) = (Arc::new(Round::default()), Arc::new(SubTally::default()));
    let subs = spawn_subscribers(node, sh, n, &round, &tally);
    await_subscribed(node, &round, n)?;
    follower_hello(node)?;
    let nothing_to_drain = || Err("DRAIN on a workload without kv".to_string());
    follow(node, sh, nothing_to_drain, || {
        for s in subs {
            node.remote_join(s).map_err(err("joining a subscriber"))?;
        }
        Ok([
            tally.received.load(Ordering::SeqCst),
            tally.violations.load(Ordering::SeqCst),
        ])
    })
}

/// One publish-to-last-delivery round, times in ns from `publish()`'s
/// entry.
#[derive(Clone)]
struct RoundSample {
    epoch: u32,
    call: u64,
    first: u64,
    last_local: u64,
    last_remote: u64,
}

impl RoundSample {
    fn complete(&self) -> u64 {
        self.last_local.max(self.last_remote)
    }
}

fn fanout_coordinator(node: &Arc<ChantNode>, sh: &Arc<Shared>) -> Result<Value, String> {
    let p = &sh.p;
    let n_local = p.subs - p.subs / 2;
    let (round, tally) = (Arc::new(Round::default()), Arc::new(SubTally::default()));
    let subs = spawn_subscribers(node, sh, n_local, &round, &tally);
    await_subscribed(node, &round, n_local)?;
    let echo = await_hello(node)?;
    let setup_s = unix_ns().saturating_sub(p.spawned_unix_ns) as f64 / 1e9;

    let mut samples = Thinned::new(
        ROUND_CAP,
        RoundSample {
            epoch: 0,
            call: 0,
            first: 0,
            last_local: 0,
            last_remote: 0,
        },
    );
    // Rounds completed per window, exact whatever `samples` keeps.
    let mut rounds = vec![0u64; p.windows.len()];
    let mut publishes = 0u64;
    // Four spans per recorded round, one round per period.
    let mut spans = SpanLog::new(
        PUBLISHER_LANE,
        (sh.traced_s() * 1e9 / SPAN_PERIOD_NS as f64) as usize * 4 + 64,
    );
    let mut next_span_ns = 0;
    // One closed-loop round. A publish that does not reach everyone
    // within `PATIENCE` ends the run: the rounds after it could not be
    // told apart from its late deliveries.
    let mut publish = |epoch: u32, stop: bool| -> Result<(), String> {
        publishes += 1;
        let payload = gen::payload_of(p.seed, publishes, stop);
        let (t0_unix, t0) = (unix_ns(), sh.now_ns());
        let seq = node.publish(TOPIC, &payload).map_err(err("publish"))?;
        let call = sh.now_ns() - t0;
        if seq != publishes {
            return Err(format!("publish {publishes} got sequence number {seq}"));
        }
        let (mut first, mut last_local, mut last_remote) = (u64::MAX, 0, 0);
        for _ in 0..2 {
            let (info, body) = node
                .recv_timeout(RecvSrc::Any, Some(TAG_DONE), PATIENCE)
                .map_err(|e| format!("publish {seq} did not reach every subscriber: {e}"))?;
            let [done_seq, pe_first, pe_last] = words(&body)[..] else {
                return Err("short DONE".into());
            };
            if done_seq != seq {
                return Err(format!(
                    "DONE for publish {done_seq} while {seq} is in flight"
                ));
            }
            first = first.min(pe_first.saturating_sub(t0_unix));
            let last = if info.src.pe == 0 {
                &mut last_local
            } else {
                &mut last_remote
            };
            *last = pe_last.saturating_sub(t0_unix);
        }
        if epoch == 0 {
            return Ok(());
        }
        let w = epoch as usize - 1;
        rounds[w] += 1;
        samples.push(RoundSample {
            epoch,
            call,
            first,
            last_local,
            last_remote,
        });
        if p.windows[w].1 && t0 >= next_span_ns {
            next_span_ns = t0 + SPAN_PERIOD_NS;
            let at = |d: u64| t0 + d;
            let op = publishes;
            spans.push(Span {
                name: "pubsub.publish",
                op,
                root: false,
                start_ns: t0,
                end_ns: at(call),
            });
            spans.push(Span {
                name: "pubsub.deliver_local",
                op,
                root: false,
                start_ns: at(first.min(last_local)),
                end_ns: at(last_local),
            });
            spans.push(Span {
                name: "pubsub.deliver_remote",
                op,
                root: false,
                start_ns: at(first.min(last_remote)),
                end_ns: at(last_remote),
            });
            spans.push(Span {
                name: "client.op",
                op,
                root: true,
                start_ns: t0,
                end_ns: at(last_local.max(last_remote)),
            });
        }
        Ok(())
    };

    let mut ctl = Ctl::new(node);
    let windows = run_phases(node, sh, &mut ctl, echo, |until, epoch| {
        while Instant::now() < until {
            publish(epoch, false)?;
        }
        Ok(())
    })?;
    // The stop publish releases every subscriber.
    publish(0, true)?;
    for s in subs {
        node.remote_join(s).map_err(err("joining a subscriber"))?;
    }
    let _ = node.send(echo, TAG_ECHO, b"");
    ctl.command(CMD_FINISH)?;
    let [peer_received, peer_violations, peer_hwm_kb] = ctl.reply()?[..] else {
        return Err("short FINISH reply".into());
    };
    let mine = proc_usage();

    let received = tally.received.load(Ordering::SeqCst) + peer_received;
    let out_of_order = tally.violations.load(Ordering::SeqCst) + peer_violations;
    let mut violations = Vec::new();
    if out_of_order > 0 {
        violations.push(format!(
            "{out_of_order} deliveries were out of order, repeated, corrupt or unsent"
        ));
    }
    if received != publishes * p.subs {
        violations.push(format!(
            "{received} deliveries for {publishes} publishes to {} subscribers",
            p.subs
        ));
    }

    let mut m = Metrics::default();
    let mut notes = BTreeMap::new();
    m.set("setup_s", setup_s);
    m.set("peak_rss_mb", mine.hwm_kb.max(peer_hwm_kb) as f64 / 1024.0);
    // Every round that returned completed; one that does not ends the
    // run and is charged by the supervisor.
    m.set("failed_ratio", 0.0);
    notes.insert("sample_stride".into(), int(samples.stride()));
    for (w, obs) in windows.iter().enumerate() {
        let epoch = w as u32 + 1;
        let mine: Vec<&RoundSample> = samples
            .items()
            .iter()
            .filter(|s| s.epoch == epoch)
            .collect();
        let sorted = |f: fn(&RoundSample) -> u64| {
            let mut v: Vec<u64> = mine.iter().map(|s| f(s)).collect();
            v.sort_unstable();
            v
        };
        let complete = sorted(RoundSample::complete);
        let deliveries = (rounds[w] * p.subs) as f64;
        let rate = deliveries / obs.seconds;
        note_window(&mut notes, w + 1, &complete, obs);
        notes.insert(format!("window{epoch}.publishes"), int(rounds[w]));
        let c = &obs.counters;
        if c.get("pubsub.forwarded") != c.get("pubsub.published") {
            violations.push(format!(
                "window {epoch}: {} data frames for {} publishes over a tree with one inter-process edge",
                c.get("pubsub.forwarded"),
                c.get("pubsub.published")
            ));
        }
        if !obs.traced {
            m.set("ops_per_s", rate);
            // The publish is this workload's update, and its only op.
            m.set("update_p75_us", us(percentile(&complete, 0.75)));
            m.set("op_p50_us", us(percentile(&complete, 0.5)));
            m.set("op_p75_us", us(percentile(&complete, 0.75)));
            m.set("op_p99_us", us(percentile(&complete, 0.99)));
            m.set("cpu_us_per_op", cpu_us(c) / deliveries.max(1.0));
            m.set("fanout_deliveries_per_s", rate);
            m.set("fanout_complete_p50_us", us(percentile(&complete, 0.5)));
            m.set("fanout_complete_p99_us", us(percentile(&complete, 0.99)));
            continue;
        }
        m.set(
            "pubsub.publish_call_p50_us",
            us(percentile(&sorted(|s| s.call), 0.5)),
        );
        m.set(
            "pubsub.first_deliver_p50_us",
            us(percentile(&sorted(|s| s.first), 0.5)),
        );
        m.set(
            "pubsub.last_local_deliver_p50_us",
            us(percentile(&sorted(|s| s.last_local), 0.5)),
        );
        m.set(
            "pubsub.last_remote_deliver_p50_us",
            us(percentile(&sorted(|s| s.last_remote), 0.5)),
        );
        layer_metrics(&mut m, obs, deliveries, rate, p.floor_us);
        violations.extend(probe_violation(obs));
    }
    let mut logs = vec![spans];
    logs.extend(windows.into_iter().filter_map(|w| w.probe.map(|p| p.spans)));
    finish_report(sh, m, notes, violations, publishes, 0, logs)
}
