//! The traced run: one workload's message set replayed down the layer
//! ladder, plus traced cluster calls, each timed from here around calls
//! into the layer's public functions.
//!
//! Rungs, bottom up:
//! * `ladder.mp` — `PortNetwork` over the in-memory `ChannelTransport`:
//!   the three-way handshake and its scheduler, no syscalls;
//! * `ladder.transport` — the same replay over `PolledTransport`: real
//!   socketpairs, coalesced writes, one thread;
//! * `cluster.run` — the cluster itself, one thread per node.
//!
//! The gap between two rungs is the upper layer's own cost. Beside the
//! ladder: the wire codec (`encode_frame`/`decode_body`), the client
//! mux (`ClientMux::new/next/on_ack`) and the shutdown reconcile
//! (`reconcile_ledgers`/`reconcile_clients`).

use crate::cluster::{call, metric, Call, Metric, Tally};
use crate::stats::{mean, median, quantile};
use crate::trace::Tracer;
use crate::workloads::{call_seed, Load, Workload};
use ssmfp_cluster::clients::stamp_decode;
use ssmfp_cluster::frame::{ghost_to_wire, msg_to_frame, msg_to_frame_client};
use ssmfp_cluster::workload::ack_ghost;
use ssmfp_cluster::{
    ClientMux, ClientSpec, LogHistogram, PolledTransport, RunReport, WorkloadGen, WorkloadSpec,
};
use ssmfp_core::wire::{decode_body, encode_frame, WireFrame};
use ssmfp_core::{reconcile_clients, reconcile_ledgers, NodeLedger};
use ssmfp_mp::{
    ack_ghost_of, decode_client_ghost, ChannelTransport, MpConfig, MpGhost, MpMessage, PortNetwork,
    Transport, WireMsg,
};
use ssmfp_topology::{AllPairs, Graph, NodeId};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// One SSMFP message of a workload: source, destination, ghost.
type Message = (NodeId, NodeId, MpGhost);

/// The messages one cluster call would carry: every request and its ack.
struct MessageSet {
    sends: Vec<Message>,
    requests: u64,
}

/// The node workload's message set, drawn from the same generator the
/// nodes run. Acks go back to the source, as the nodes send them.
fn node_message_set(spec: WorkloadSpec, n: usize, seed: u64) -> MessageSet {
    let mut sends = Vec::new();
    let mut ack_seq = vec![0u64; n];
    for p in 0..n {
        let mut gen = WorkloadGen::new(spec, p, n, seed);
        let mut now = 0u64;
        while !gen.done_issuing() {
            match gen.poll(now) {
                Some(issue) => {
                    gen.on_ack();
                    sends.push((p, issue.dest, issue.ghost));
                    sends.push((issue.dest, p, ack_ghost(issue.dest, ack_seq[issue.dest])));
                    ack_seq[issue.dest] += 1;
                }
                // Open-loop gaps are capped at 10 s.
                None => now += 10_000_001,
            }
        }
    }
    let requests = sends.len() as u64 / 2;
    MessageSet { sends, requests }
}

/// Drives every node's `ClientMux` directly, acking each issue at once.
/// Returns the message set and the nanoseconds spent per issue.
fn drive_mux(spec: &ClientSpec, n: usize, seed: u64) -> (MessageSet, f64) {
    let mut sends = Vec::with_capacity((2 * spec.clients * spec.load.messages) as usize);
    let t0 = Instant::now();
    for p in 0..n {
        let mut mux = ClientMux::new(spec, p, n, seed);
        let mut now = 0u64;
        while let Some(issue) = mux.next(now) {
            now += 1;
            let parts = decode_client_ghost(issue.ghost).expect("mux ghosts are client ghosts");
            mux.on_ack(parts, now);
            sends.push((p, issue.dest, issue.ghost));
        }
        assert!(mux.done_issuing(), "an acked closed-loop mux drains");
    }
    let ns = t0.elapsed().as_nanos() as f64;
    let requests = sends.len() as u64;
    for i in 0..sends.len() {
        let (src, dst, g) = sends[i];
        sends.push((dst, src, ack_ghost_of(g)));
    }
    (MessageSet { sends, requests }, ns / requests as f64)
}

/// What one replay down a rung measured.
struct Rung {
    secs: f64,
    steps: u64,
    frames: u64,
    /// Messages not delivered exactly once at their destination.
    failed: u64,
}

/// Replays `set` through a `PortNetwork` over `transport` to quiescence
/// and checks every message arrived exactly once, at its destination.
fn replay<T: Transport<WireMsg>>(
    graph: &Graph,
    set: &MessageSet,
    seed: u64,
    transport: T,
) -> (Rung, PortNetwork<T>) {
    let config = MpConfig {
        seed,
        ..MpConfig::default()
    };
    let mut net = PortNetwork::with_transport(graph.clone(), config, transport, false, 0, 0, 0);
    let expected: HashMap<MpGhost, NodeId> = set
        .sends
        .iter()
        .enumerate()
        .map(|(i, &(s, d, _))| (net.send(s, d, i as u64), d))
        .collect();
    let budget = 1_000 * set.sends.len() as u64 + 1_000_000;
    let t0 = Instant::now();
    let quiet = net.run_to_quiescence(budget);
    let secs = t0.elapsed().as_secs_f64();
    let mut seen: HashMap<MpGhost, u64> = HashMap::with_capacity(expected.len());
    let mut misdelivered = 0u64;
    for (p, node) in net.net().nodes().iter().enumerate() {
        for g in &node.delivered {
            *seen.entry(*g).or_insert(0) += 1;
            if expected.get(g) != Some(&p) {
                misdelivered += 1;
            }
        }
    }
    let once = expected.keys().filter(|g| seen.get(g) == Some(&1)).count() as u64;
    let mut failed = expected.len() as u64 - once + misdelivered;
    if !quiet {
        failed = failed.max(1);
    }
    let rung = Rung {
        secs,
        steps: net.net().steps(),
        frames: net.net().delivered_msgs(),
        failed,
    };
    (rung, net)
}

/// Sum of shortest-path hops over `sends`.
fn hops_of(paths: &AllPairs, sends: impl Iterator<Item = (NodeId, NodeId)>) -> u64 {
    sends.map(|(s, d)| paths.dist(s, d) as u64).sum()
}

/// The handshake frames (`Offer`, `Accept`, `Confirm`) of every message
/// in the set, encoded the way the workload's nodes encode them.
fn frame_mix(set: &MessageSet, stamped: bool) -> Vec<WireFrame> {
    let encode: fn(&WireMsg) -> WireFrame = if stamped {
        msg_to_frame_client
    } else {
        msg_to_frame
    };
    let mut frames = Vec::with_capacity(3 * set.sends.len());
    for (i, &(_, d, ghost)) in set.sends.iter().enumerate() {
        let msg = MpMessage {
            payload: i as u64,
            color: (i % 3) as u8,
            ghost,
        };
        let nonce = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for wm in [
            WireMsg::Offer { d, msg, nonce },
            WireMsg::Accept { d, msg, nonce },
            WireMsg::Confirm { d, msg, nonce },
        ] {
            frames.push(encode(&wm));
        }
    }
    frames
}

/// Frame bodies of a buffer of length-prefixed frames.
fn bodies(buf: &[u8]) -> impl Iterator<Item = &[u8]> {
    let mut at = 0usize;
    std::iter::from_fn(move || {
        let len_bytes: [u8; 4] = buf.get(at..at + 4)?.try_into().expect("4 bytes");
        let len = u32::from_le_bytes(len_bytes) as usize;
        let body = &buf[at + 4..at + 4 + len];
        at += 4 + len;
        Some(body)
    })
}

/// Encodes and decodes the frame mix; returns (encode ns/frame, decode
/// ns/frame, bytes/frame), or `None` if a frame did not round-trip.
fn wire_pass(frames: &[WireFrame], buf: &mut Vec<u8>) -> Option<(f64, f64, f64)> {
    buf.clear();
    let t0 = Instant::now();
    for f in frames {
        encode_frame(black_box(f), buf);
    }
    let enc = t0.elapsed().as_nanos() as f64;
    let t1 = Instant::now();
    let mut decoded = 0usize;
    for body in bodies(buf) {
        black_box(decode_body(black_box(body)).ok()?);
        decoded += 1;
    }
    let dec = t1.elapsed().as_nanos() as f64;
    let roundtrip = decoded == frames.len()
        && bodies(buf)
            .zip(frames)
            .all(|(b, f)| decode_body(b).as_ref() == Ok(f));
    let k = frames.len() as f64;
    roundtrip.then(|| (enc / k, dec / k, buf.len() as f64 / k))
}

/// The reconcile the orchestrator runs at shutdown, re-run over the
/// call's own node reports. Returns (seconds, ledger entries), or `None`
/// if the verdicts differ from the ones the call reported.
fn reconcile(report: &RunReport, clients: bool) -> Option<(f64, u64)> {
    let ledgers: Vec<NodeLedger> = report
        .nodes
        .iter()
        .map(|r| NodeLedger {
            node: r.node,
            generated: r
                .generated
                .iter()
                .map(|&(g, d)| (ghost_to_wire(g), d))
                .collect(),
            delivered: r.delivered.iter().map(|&g| ghost_to_wire(g)).collect(),
            held: r.held.iter().map(|&g| ghost_to_wire(g)).collect(),
        })
        .collect();
    let entries = ledgers
        .iter()
        .map(|l| (l.generated.len() + l.delivered.len() + l.held.len()) as u64)
        .sum();
    let t0 = Instant::now();
    let verdict = reconcile_ledgers(&ledgers);
    let client_verdict = clients.then(|| reconcile_clients(&ledgers, stamp_decode));
    let secs = t0.elapsed().as_secs_f64();
    (verdict == report.verdict && client_verdict == report.client_verdict)
        .then_some((secs, entries))
}

/// Per-call layer figures of a traced cluster call.
#[derive(Default)]
struct ClusterLayer {
    user_us: Vec<f64>,
    sys_us: Vec<f64>,
    ctx: Vec<f64>,
    syscalls: Vec<f64>,
    frames: Vec<f64>,
    frames_per_hop: Vec<f64>,
    frames_per_write: Vec<f64>,
    waste: Vec<f64>,
    setup_s: Vec<f64>,
    msgs_per_s: Vec<f64>,
    cpu_us: Vec<f64>,
    reconcile_s: Vec<f64>,
    reconcile_ns_per_entry: Vec<f64>,
    fairness: LogHistogram,
}

impl ClusterLayer {
    fn add(&mut self, c: &Call, r: &RunReport, paths: &AllPairs) {
        let k = c.requests as f64;
        let ctr = &r.counters;
        let hops = hops_of(
            paths,
            r.nodes
                .iter()
                .flat_map(|nr| nr.generated.iter().map(move |&(_, d)| (nr.node, d))),
        );
        self.user_us.push(c.used.user_s * 1e6 / k);
        self.sys_us.push(c.used.sys_s * 1e6 / k);
        self.ctx.push(c.used.ctx_switches as f64 / k);
        self.syscalls
            .push((ctr.read_syscalls + ctr.write_syscalls) as f64 / k);
        self.frames.push(ctr.frames_sent as f64 / k);
        self.frames_per_hop
            .push(ctr.frames_sent as f64 / hops.max(1) as f64);
        self.frames_per_write
            .push(ctr.frames_sent as f64 / ctr.write_syscalls.max(1) as f64);
        self.waste
            .push((ctr.heartbeats_sent + ctr.reconnects + ctr.conn_frames_dropped) as f64);
        self.setup_s.push(c.setup_s(r));
        self.msgs_per_s.push(c.msgs_per_s(r));
        self.cpu_us.push(c.cpu_us_per_msg());
        self.fairness.merge(&r.client_fair);
    }
}

/// Result of a traced run.
pub struct Traced {
    /// Failure accounting over the ladder replays and cluster calls.
    pub tally: Tally,
    /// Every per-layer metric.
    pub metrics: Vec<Metric>,
    /// The recorded spans.
    pub tracer: Tracer,
}

/// Repeats `f` until `slice` seconds have passed, at least once.
fn repeat(slice: f64, mut f: impl FnMut()) {
    let t0 = Instant::now();
    loop {
        f();
        if t0.elapsed().as_secs_f64() >= slice {
            return;
        }
    }
}

/// The traced run of `w`: ladder, wire and mux first, each given a
/// slice of `seconds`, then traced cluster calls, each paired with an
/// untraced one for the tracing overhead, until `seconds` have passed.
pub fn run_traced(w: &Workload, seed: u64, seconds: f64, messages: u64) -> Traced {
    let start = Instant::now();
    let slice = seconds * 0.08;
    let graph = w.graph();
    let n = graph.n();
    let paths = AllPairs::new(&graph);
    let set_seed = call_seed(seed, 0);
    let mut t = Tracer::new(format!("{}-seed{seed}", w.name));
    let mut tally = Tally::default();
    let root = t.enter("workload");

    // The message set of the run's first call, and the client mux.
    let mut mux_ns = Vec::new();
    let set = match w.load {
        Load::Node(kind) => node_message_set(WorkloadSpec { kind, messages }, n, set_seed),
        Load::Clients { clients, kind } => {
            let spec = ClientSpec {
                clients,
                load: WorkloadSpec { kind, messages },
                mutation: None,
            };
            let mut set = None;
            repeat(slice, || {
                let s = t.enter("clients.mux");
                let (ms, ns) = drive_mux(&spec, n, set_seed);
                t.exit(s, vec![("issues", ms.requests as f64)]);
                mux_ns.push(ns);
                set = Some(ms);
            });
            set.expect("repeat runs at least once")
        }
    };
    let k = set.requests as f64;
    let hops = hops_of(&paths, set.sends.iter().map(|&(s, d, _)| (s, d))) as f64;

    // Rung 1: the handshake over in-memory channels.
    let (mut mp_us, mut mp_steps, mut mp_fph) = (Vec::new(), Vec::new(), Vec::new());
    let mut rep = 0u64;
    repeat(slice, || {
        let s = t.enter("ladder.mp");
        let (r, _) = replay(&graph, &set, set_seed ^ rep, ChannelTransport::new(&graph));
        t.exit(
            s,
            vec![("steps", r.steps as f64), ("frames", r.frames as f64)],
        );
        rep += 1;
        tally.add_replay("ladder.mp", set.sends.len() as u64, r.failed);
        mp_us.push(r.secs * 1e6 / k);
        mp_steps.push(r.steps as f64 / k);
        mp_fph.push(r.frames as f64 / hops);
    });

    // Rung 2: the same replay over socketpairs.
    let (mut tr_us, mut tr_sys, mut tr_fpw) = (Vec::new(), Vec::new(), Vec::new());
    let mut rep = 0u64;
    repeat(slice, || {
        let s = t.enter("ladder.transport");
        let (r, net) = replay(&graph, &set, set_seed ^ rep, PolledTransport::new(&graph));
        let (flushed, writes, reads) = net.net().transport().io_counts();
        t.exit(
            s,
            vec![
                ("steps", r.steps as f64),
                ("frames", r.frames as f64),
                ("write_syscalls", writes as f64),
                ("read_syscalls", reads as f64),
            ],
        );
        rep += 1;
        tally.add_replay("ladder.transport", set.sends.len() as u64, r.failed);
        tr_us.push(r.secs * 1e6 / k);
        tr_sys.push((writes + reads) as f64 / k);
        tr_fpw.push(flushed as f64 / writes.max(1) as f64);
    });

    // Wire codec over the workload's handshake frames.
    let frames = frame_mix(&set, w.is_clients());
    let mut buf = Vec::with_capacity(frames.len() * 64);
    let (mut enc, mut dec, mut bytes) = (Vec::new(), Vec::new(), 0.0);
    repeat(slice, || {
        let s = t.enter("wire");
        let pass = wire_pass(&frames, &mut buf);
        t.exit(s, vec![("frames", frames.len() as f64)]);
        match pass {
            Some((e, d, b)) => {
                enc.push(e);
                dec.push(d);
                bytes = b;
            }
            None => {
                tally.failed += 1;
                tally
                    .problems
                    .push("wire: a frame did not round-trip".into());
            }
        }
    });

    // The cluster: traced calls, each with its reconcile re-run, paired
    // with untraced calls.
    let mut layer = ClusterLayer::default();
    let mut untraced_mps = Vec::new();
    let mut untraced_cpu = Vec::new();
    let mut i = 0u64;
    while i == 0 || start.elapsed().as_secs_f64() < seconds {
        let s = t.enter("cluster.run");
        let c = call(w, seed, 2 * i, messages, None);
        let counts = c.report.as_ref().map_or(Vec::new(), |r| {
            vec![
                ("frames_sent", r.counters.frames_sent as f64),
                ("write_syscalls", r.counters.write_syscalls as f64),
                ("read_syscalls", r.counters.read_syscalls as f64),
                ("requests", c.requests as f64),
            ]
        });
        t.exit(s, counts);
        tally.add(&c);
        if let Some(r) = c.clean_report() {
            layer.add(&c, r, &paths);
            let s = t.enter("ledger.reconcile");
            let rec = reconcile(r, w.is_clients());
            t.exit(s, vec![]);
            match rec {
                Some((secs, entries)) => {
                    layer.reconcile_s.push(secs);
                    layer
                        .reconcile_ns_per_entry
                        .push(secs * 1e9 / entries.max(1) as f64);
                }
                None => {
                    tally.failed += 1;
                    tally.problems.push("ledger: re-run verdict differs".into());
                }
            }
        }
        let u = call(w, seed, 2 * i + 1, messages, None);
        tally.add(&u);
        if let Some(r) = u.clean_report() {
            untraced_mps.push(u.msgs_per_s(r));
            untraced_cpu.push(u.cpu_us_per_msg());
        }
        i += 1;
    }
    t.exit(root, vec![]);

    let m = median;
    let mp = m(&mp_us);
    let transport = m(&tr_us);
    let cluster_cpu = m(&layer.cpu_us);
    let reconcile_s = m(&layer.reconcile_s);
    let metrics = vec![
        metric("mp.us_per_msg", mp, "us"),
        metric("mp.steps_per_msg", m(&mp_steps), "count"),
        metric("mp.frames_per_hop", m(&mp_fph), "count"),
        metric("transport.us_per_msg", transport, "us"),
        metric("transport.self_us_per_msg", transport - mp, "us"),
        metric("transport.syscalls_per_msg", m(&tr_sys), "count"),
        metric("transport.frames_per_write", m(&tr_fpw), "count"),
        metric("wire.encode_ns_per_frame", m(&enc), "ns"),
        metric("wire.decode_ns_per_frame", m(&dec), "ns"),
        metric("wire.bytes_per_frame", bytes, "B"),
        metric("cluster.user_us_per_msg", m(&layer.user_us), "us"),
        metric("cluster.sys_us_per_msg", m(&layer.sys_us), "us"),
        metric("cluster.self_us_per_msg", cluster_cpu - transport, "us"),
        metric("cluster.ctx_switches_per_msg", m(&layer.ctx), "count"),
        metric("cluster.syscalls_per_msg", m(&layer.syscalls), "count"),
        metric("cluster.frames_per_msg", m(&layer.frames), "count"),
        metric("cluster.frames_per_hop", m(&layer.frames_per_hop), "count"),
        metric(
            "cluster.frames_per_write",
            m(&layer.frames_per_write),
            "count",
        ),
        metric("cluster.waste_frames", m(&layer.waste), "count"),
        metric("clients.mux_ns_per_issue", m(&mux_ns), "ns"),
        metric(
            "clients.fairness_p99_us",
            quantile(&layer.fairness, 0.99),
            "us",
        ),
        metric("ledger.reconcile_ms", reconcile_s * 1e3, "ms"),
        metric(
            "ledger.reconcile_ns_per_entry",
            m(&layer.reconcile_ns_per_entry),
            "ns",
        ),
        metric(
            "orchestrator.unattributed_s",
            m(&layer.setup_s) - reconcile_s,
            "s",
        ),
        metric(
            "trace.overhead_msgs_per_s",
            mean(&layer.msgs_per_s) - mean(&untraced_mps),
            "1/s",
        ),
        metric(
            "trace.overhead_cpu_us_per_msg",
            cluster_cpu - m(&untraced_cpu),
            "us",
        ),
    ];
    Traced {
        tally,
        metrics,
        tracer: t,
    }
}
