//! Property-based tests over the core data structures and invariants:
//! header naming round-trips, receive matching against a reference
//! model, simulator determinism and conservation, and scheduler
//! liveness under arbitrary yield patterns.

use std::collections::VecDeque;

use bytes::Bytes;
use proptest::prelude::*;

use chant::chant::{ChantCluster, ChanterId, NamingMode, PollingPolicy};
use chant::comm::{kind, Address, CommWorld, RecvSpec};
use chant::sim::experiments::{polling_run, PollingConfig};
use chant::sim::{CostModel, Engine, LayerMode, SimOp, SimProgram, ThreadSpec};
use chant::ult::{SpawnAttr, Vp, VpConfig};

// ---------------------------------------------------------------------
// Naming: header encode/decode round-trips
// ---------------------------------------------------------------------

proptest! {
    /// Communicator mode carries (src thread, dst thread, tag) losslessly.
    #[test]
    fn communicator_roundtrip(src in 0u32..=u32::MAX, dst in 0u32..=u32::MAX,
                              tag in 0i32..=0x3FFF_FFFF) {
        let m = NamingMode::Communicator;
        let w = m.encode(src, dst, tag).unwrap();
        let (s, d, t) = m.decode(w.tag, w.ctx);
        prop_assert_eq!(s, Some(src));
        prop_assert_eq!(d, dst);
        prop_assert_eq!(t, tag);
    }

    /// TagOverload carries (dst thread, tag) losslessly within its halved
    /// ranges, and the wire tag stays non-negative (an NX requirement).
    #[test]
    fn tag_overload_roundtrip(src in 0u32..=u32::MAX, dst in 0u32..=0x7FFE,
                              tag in 0i32..=0xFFFF) {
        let m = NamingMode::TagOverload;
        let w = m.encode(src, dst, tag).unwrap();
        prop_assert!(w.tag >= 0, "NX tags are non-negative");
        prop_assert_eq!(w.ctx, 0, "tag overloading leaves the ctx field alone");
        let (s, d, t) = m.decode(w.tag, w.ctx);
        prop_assert_eq!(s, None, "source thread is not representable");
        prop_assert_eq!(d, dst);
        prop_assert_eq!(t, tag);
    }

    /// Out-of-range tags are rejected, never truncated.
    #[test]
    fn tag_overload_rejects_out_of_range(tag in 0x1_0000i32..=i32::MAX) {
        prop_assert!(NamingMode::TagOverload.encode(1, 1, tag).is_err());
    }

    /// Distinct (dst, tag) pairs never collide on the wire in either mode
    /// (the property message delivery depends on).
    #[test]
    fn wire_addresses_are_injective(d1 in 0u32..=0x7FFE, t1 in 0i32..=0xFFFF,
                                    d2 in 0u32..=0x7FFE, t2 in 0i32..=0xFFFF) {
        prop_assume!((d1, t1) != (d2, t2));
        for m in [NamingMode::Communicator, NamingMode::TagOverload] {
            let w1 = m.encode(7, d1, t1).unwrap();
            let w2 = m.encode(7, d2, t2).unwrap();
            prop_assert!((w1.tag, w1.ctx) != (w2.tag, w2.ctx), "{m:?}");
        }
    }
}

// ---------------------------------------------------------------------
// Comm matching against a reference model
// ---------------------------------------------------------------------

/// A simplified operation stream against one receiving endpoint.
#[derive(Clone, Debug)]
enum Op {
    Send { tag: u8, body: u8 },
    Recv { tag: Option<u8> },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..4, any::<u8>()).prop_map(|(tag, body)| Op::Send { tag, body }),
        proptest::option::of(0u8..4).prop_map(|tag| Op::Recv { tag }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The endpoint's matching behaviour equals a simple reference model:
    /// per-tag FIFO, wildcard receives take the earliest arrival, posted
    /// receives complete in posting order.
    #[test]
    fn endpoint_matches_reference_model(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        let world = CommWorld::flat(2);
        let src = world.endpoint(Address::new(0, 0));
        let dst = world.endpoint(Address::new(1, 0));

        // Reference: pending messages (tag, body) in arrival order, and
        // pending receive specs in posting order.
        let mut model_msgs: VecDeque<(u8, u8)> = VecDeque::new();
        let mut model_recvs: VecDeque<Option<u8>> = VecDeque::new();
        let mut handles = Vec::new();

        let matches = |spec: Option<u8>, tag: u8| spec.is_none() || spec == Some(tag);

        for op in &ops {
            match *op {
                Op::Send { tag, body } => {
                    src.isend(
                        Address::new(1, 0),
                        i32::from(tag),
                        0,
                        kind::DATA,
                        Bytes::from(vec![body]),
                    );
                    // Model: match the first pending recv that accepts it.
                    if let Some(pos) = model_recvs.iter().position(|s| matches(*s, tag)) {
                        model_recvs.remove(pos);
                    } else {
                        model_msgs.push_back((tag, body));
                    }
                }
                Op::Recv { tag } => {
                    let spec = match tag {
                        Some(t) => RecvSpec::tag(i32::from(t)),
                        None => RecvSpec::any(),
                    };
                    let h = dst.irecv(spec);
                    // Model: claim the earliest matching pending message.
                    if let Some(pos) = model_msgs.iter().position(|(t, _)| matches(tag, *t)) {
                        let (t, b) = model_msgs.remove(pos).unwrap();
                        let (hdr, body) = h.take().expect("model says complete");
                        prop_assert_eq!(hdr.tag, i32::from(t));
                        prop_assert_eq!(body[0], b);
                    } else {
                        prop_assert!(!h.is_complete(), "model says pending");
                        model_recvs.push_back(tag);
                        // Keep the handle alive: dropping it would retire
                        // the posted receive (abandoned receives no longer
                        // linger — see `dropped_handle_retires_its_posted_
                        // receive`), taking it out of the matching order
                        // this model tracks.
                        handles.push(h);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Comm matching: indexed matcher vs a linear-scan oracle
// ---------------------------------------------------------------------

/// Context constraint choices for generated receive specs.
#[derive(Clone, Copy, Debug)]
enum CtxChoice {
    Any,
    Exact(u64),
    /// Masked match on the low byte only (`masked(v, 0xFF)`).
    LowByte(u64),
}

/// A full-signature operation stream: varied sources, tags, contexts,
/// kinds, wildcards, and probes.
#[derive(Clone, Debug)]
enum MatchOp {
    Send { src: u8, tag: u8, ctx: u64, kind: u8 },
    Recv { src: Option<u8>, tag: Option<u8>, ctx: CtxChoice, kind: u8 },
    Probe { src: Option<u8>, tag: Option<u8>, ctx: CtxChoice, kind: u8 },
}

fn ctx_choice() -> impl Strategy<Value = CtxChoice> {
    prop_oneof![
        Just(CtxChoice::Any),
        (0u64..3).prop_map(CtxChoice::Exact),
        (0u64..3).prop_map(CtxChoice::LowByte),
    ]
}

fn kind_choice() -> impl Strategy<Value = u8> {
    prop_oneof![Just(chant::comm::kind::DATA), Just(chant::comm::kind::RSR)]
}

fn spec_strategy() -> impl Strategy<Value = (Option<u8>, Option<u8>, CtxChoice, u8)> {
    (
        proptest::option::of(0u8..2),
        proptest::option::of(0u8..3),
        ctx_choice(),
        kind_choice(),
    )
}

fn match_op() -> impl Strategy<Value = MatchOp> {
    prop_oneof![
        // Sends: ctx sometimes sets a high bit so exact and low-byte
        // masked specs diverge.
        (0u8..2, 0u8..3, 0u64..3, any::<bool>(), kind_choice()).prop_map(
            |(src, tag, ctx, high, kind)| MatchOp::Send {
                src,
                tag,
                ctx: ctx | if high { 0x100 } else { 0 },
                kind,
            }
        ),
        spec_strategy().prop_map(|(src, tag, ctx, kind)| MatchOp::Recv { src, tag, ctx, kind }),
        spec_strategy().prop_map(|(src, tag, ctx, kind)| MatchOp::Recv { src, tag, ctx, kind }),
        spec_strategy().prop_map(|(src, tag, ctx, kind)| MatchOp::Probe { src, tag, ctx, kind }),
    ]
}

fn build_spec(src: Option<u8>, tag: Option<u8>, ctx: CtxChoice, kind_sel: u8) -> RecvSpec {
    use chant::comm::CtxMatch;
    let mut s = match tag {
        Some(t) => RecvSpec::tag(i32::from(t)),
        None => RecvSpec::any(),
    };
    if let Some(pe) = src {
        s = s.from(Address::new(u32::from(pe), 0));
    }
    s = match ctx {
        CtxChoice::Any => s,
        CtxChoice::Exact(v) => s.ctx(CtxMatch::exact(v)),
        CtxChoice::LowByte(v) => s.ctx(CtxMatch::masked(v, 0xFF)),
    };
    s.kind(kind_sel)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The endpoint's indexed matching table is observationally equal to
    /// a linear-scan oracle over the *full* selection signature — source
    /// (exact or wildcard), tag (exact or `ANY_TAG`), context (any,
    /// exact, or masked), and kind — including the order receives
    /// complete in, the bodies they claim, and every `CommStats` counter
    /// the matcher drives.
    #[test]
    fn indexed_matcher_equals_linear_oracle(
        ops in proptest::collection::vec(match_op(), 1..48),
    ) {
        use chant::comm::Header;

        let world = CommWorld::flat(3);
        let dst_addr = Address::new(2, 0);
        let srcs = [world.endpoint(Address::new(0, 0)), world.endpoint(Address::new(1, 0))];
        let dst = world.endpoint(dst_addr);

        // Oracle state: linear scans in posting / arrival order, using
        // `RecvSpec::matches` (the spec-level definition) directly.
        let mut oracle_posted: VecDeque<(usize, RecvSpec)> = VecDeque::new();
        let mut oracle_unexpected: VecDeque<(Header, u8)> = VecDeque::new();
        let mut pending: Vec<Option<chant::comm::RecvHandle>> = Vec::new();
        let (mut recvs_posted, mut posted_matches, mut unexpected_buffered) = (0u64, 0u64, 0u64);
        let (mut unexpected_claimed, mut probes) = (0u64, 0u64);

        for (seq, op) in ops.iter().enumerate() {
            let body_id = seq as u8;
            match *op {
                MatchOp::Send { src, tag, ctx, kind } => {
                    let header = Header {
                        src: Address::new(u32::from(src), 0),
                        dst: dst_addr,
                        tag: i32::from(tag),
                        ctx,
                        kind,
                        len: 1,
                        trace: 0,
                    };
                    srcs[usize::from(src)].isend(
                        dst_addr,
                        header.tag,
                        ctx,
                        kind,
                        Bytes::from(vec![body_id]),
                    );
                    // Oracle: first posted receive, in posting order,
                    // whose spec accepts the header.
                    if let Some(pos) =
                        oracle_posted.iter().position(|(_, s)| s.matches(&header))
                    {
                        let (hix, _) = oracle_posted.remove(pos).unwrap();
                        posted_matches += 1;
                        let h = pending[hix].take().expect("oracle matched a live handle");
                        let (hdr, body) = h.take().expect("oracle says complete");
                        prop_assert_eq!(hdr, header);
                        prop_assert_eq!(body[0], body_id);
                    } else {
                        unexpected_buffered += 1;
                        oracle_unexpected.push_back((header, body_id));
                    }
                }
                MatchOp::Recv { src, tag, ctx, kind } => {
                    let spec = build_spec(src, tag, ctx, kind);
                    recvs_posted += 1;
                    let h = dst.irecv(spec);
                    // Oracle: earliest-arrival unexpected message the
                    // spec accepts.
                    if let Some(pos) =
                        oracle_unexpected.iter().position(|(hd, _)| spec.matches(hd))
                    {
                        let (hdr, body_id) = oracle_unexpected.remove(pos).unwrap();
                        unexpected_claimed += 1;
                        let (got_hdr, got_body) = h.take().expect("oracle says claimable");
                        prop_assert_eq!(got_hdr, hdr);
                        prop_assert_eq!(got_body[0], body_id);
                    } else {
                        prop_assert!(!h.is_complete(), "oracle says pending");
                        oracle_posted.push_back((pending.len(), spec));
                        pending.push(Some(h));
                    }
                }
                MatchOp::Probe { src, tag, ctx, kind } => {
                    let spec = build_spec(src, tag, ctx, kind);
                    probes += 1;
                    let expect = oracle_unexpected.iter().any(|(hd, _)| spec.matches(hd));
                    prop_assert_eq!(dst.iprobe(spec), expect, "probe {:?}", spec);
                }
            }
            // Structural invariants after every step.
            prop_assert_eq!(dst.outstanding_recvs(), oracle_posted.len());
            prop_assert_eq!(dst.unexpected_len(), oracle_unexpected.len());
        }

        // Every matcher-driven counter agrees with the oracle's tally.
        let snap = dst.stats().snapshot();
        prop_assert_eq!(snap.recvs_posted, recvs_posted);
        prop_assert_eq!(snap.posted_matches, posted_matches);
        prop_assert_eq!(snap.unexpected_buffered, unexpected_buffered);
        prop_assert_eq!(snap.unexpected_claimed, unexpected_claimed);
        prop_assert_eq!(snap.probes, probes);
    }
}

// ---------------------------------------------------------------------
// Simulator: determinism + conservation for arbitrary workloads
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any (alpha, beta, threads, seed, policy) polling run is
    /// deterministic and conserves messages.
    #[test]
    fn sim_deterministic_and_conserving(
        alpha in 0u64..20_000,
        beta in 0u64..2_000,
        threads in 1u32..10,
        iters in 1u32..12,
        seed in any::<u64>(),
        policy_ix in 0usize..4,
    ) {
        let policy = PollingPolicy::ALL[policy_ix];
        let cfg = PollingConfig {
            threads_per_pe: threads,
            iterations: iters,
            jitter_seed: seed,
            ..PollingConfig::default()
        };
        let cost = CostModel::paragon_polling();
        let a = polling_run(cost, policy, alpha, beta, cfg).unwrap();
        let b = polling_run(cost, policy, alpha, beta, cfg).unwrap();
        prop_assert_eq!(a.time_ms, b.time_ms);
        prop_assert_eq!(a.full_switches, b.full_switches);
        prop_assert_eq!(a.msgtest_attempted, b.msgtest_attempted);
        prop_assert_eq!(a.messages, 2 * u64::from(threads) * u64::from(iters));
        prop_assert!(a.msgtest_failed <= a.msgtest_attempted);
    }

    /// A random acyclic send/receive pairing across 2 VPs always
    /// completes (no spurious deadlock) with time covering every op.
    #[test]
    fn sim_random_pipelines_complete(
        chain in proptest::collection::vec(0u64..2_000, 1..6),
        iters in 1u32..6,
    ) {
        let mut threads = Vec::new();
        for (i, &work) in chain.iter().enumerate() {
            let tag = i as u32;
            threads.push(ThreadSpec {
                vp: 0,
                program: SimProgram {
                    ops: vec![
                        SimOp::Compute(work),
                        SimOp::Send { to_vp: 1, tag, bytes: 128 },
                        SimOp::Recv { from_vp: 1, tag },
                    ],
                    repeat: iters,
                },
            });
            threads.push(ThreadSpec {
                vp: 1,
                program: SimProgram {
                    ops: vec![
                        SimOp::Recv { from_vp: 0, tag },
                        SimOp::Compute(work / 2),
                        SimOp::Send { to_vp: 0, tag, bytes: 64 },
                    ],
                    repeat: iters,
                },
            });
        }
        let mut engine = Engine::new(
            2,
            CostModel::abstract_unit(),
            LayerMode::Chant(PollingPolicy::SchedulerPollsPs),
        );
        engine.add_threads(threads);
        let m = engine.run().unwrap();
        prop_assert_eq!(m.recvs(), 2 * chain.len() as u64 * u64::from(iters));
        prop_assert!(m.total_ns > 0);
    }
}

// ---------------------------------------------------------------------
// Scheduler liveness under arbitrary yield patterns
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Whatever mixture of yields the threads perform, every thread runs
    /// to completion and the work tally is exact.
    #[test]
    fn ult_completes_arbitrary_yield_patterns(
        yields in proptest::collection::vec(0u32..20, 1..8),
    ) {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        let vp = Vp::new(VpConfig::named("prop"));
        let tally = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for &n in &yields {
            let tally = Arc::clone(&tally);
            handles.push(vp.spawn(SpawnAttr::new(), move |vp| {
                for _ in 0..n {
                    vp.yield_now();
                }
                tally.fetch_add(u64::from(n) + 1, Ordering::Relaxed);
            }));
        }
        vp.start();
        for h in handles {
            h.join().unwrap();
        }
        let expect: u64 = yields.iter().map(|&n| u64::from(n) + 1).sum();
        prop_assert_eq!(tally.load(Ordering::Relaxed), expect);
    }
}

// ---------------------------------------------------------------------
// ChanterId algebra
// ---------------------------------------------------------------------

proptest! {
    /// same_process implies same_pe; equality implies both.
    #[test]
    fn chanter_id_locality_algebra(
        pe1 in 0u32..8, pr1 in 0u32..4, t1 in 1u32..100,
        pe2 in 0u32..8, pr2 in 0u32..4, t2 in 1u32..100,
    ) {
        let a = ChanterId::new(pe1, pr1, t1);
        let b = ChanterId::new(pe2, pr2, t2);
        if a.same_process(&b) {
            prop_assert!(a.same_pe(&b));
        }
        if a.equal(&b) {
            prop_assert!(a.same_process(&b) && a.same_pe(&b));
            prop_assert_eq!(a.thread, b.thread);
        }
    }
}

// ---------------------------------------------------------------------
// Collectives: correct for arbitrary group sizes, roots, and payloads
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Broadcast delivers the root's payload to every member; reduce
    /// folds every member's contribution exactly once — for arbitrary
    /// cluster sizes, roots, and values.
    #[test]
    fn collectives_correct_for_arbitrary_shapes(
        pes in 2u32..6,
        root_seed in any::<u32>(),
        values in proptest::collection::vec(0u64..1_000_000, 6),
    ) {
        use chant::chant::ChantGroup;
        let root = (root_seed % pes) as usize;
        let cluster = ChantCluster::builder()
            .pes(pes)
            .server(false)
            .build();
        let values = std::sync::Arc::new(values);
        let v2 = std::sync::Arc::clone(&values);
        cluster.run(move |node| {
            let me = node.self_id();
            let members: Vec<ChanterId> = (0..node.world().pes())
                .map(|pe| ChanterId::new(pe, 0, me.thread))
                .collect();
            let group = ChantGroup::new(node, members, 2).unwrap();
            let mine = v2[group.rank() % v2.len()] + group.rank() as u64;

            // Broadcast from the chosen root.
            let payload = format!("root-{root}-payload");
            let got = if group.rank() == root {
                group.bcast(node, root, Some(payload.as_bytes())).unwrap()
            } else {
                group.bcast(node, root, None).unwrap()
            };
            assert_eq!(&got[..], payload.as_bytes());

            // All-reduce sum must equal the direct sum of contributions.
            let sum = group.allreduce_u64(node, mine, |a, b| a.wrapping_add(b)).unwrap();
            let expect: u64 = (0..group.len() as u64)
                .map(|r| v2[(r as usize) % v2.len()] + r)
                .sum();
            assert_eq!(sum, expect);

            // Gather at the root preserves rank order.
            let all = group.gather(node, root, &mine.to_le_bytes()).unwrap();
            if group.rank() == root {
                for (r, b) in all.iter().enumerate() {
                    let v = u64::from_le_bytes(b[..8].try_into().unwrap());
                    assert_eq!(v, v2[r % v2.len()] + r as u64, "rank {r}");
                }
            }
        });
    }
}
