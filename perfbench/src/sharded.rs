//! `sharded`: in-order data frames through a two-shard `ShardedStack`.
//!
//! Set-up opens 2,000 connections with real handshakes through the rings
//! and keeps, per connection, the header template of its next in-order
//! 64 B data segment. In the timed phase one ingress thread picks a
//! seeded connection per frame, builds that connection's next segment
//! from its template and calls `enqueue` (steer + ring push), retrying
//! while the ring is full; one worker thread calls `drain` on each shard
//! in turn and reads and verifies every delivered byte. Each operation is
//! one frame. A frame's receive latency runs from its first `enqueue`
//! attempt to the end of the `drain` call that returned it.

use crate::measure::{Hist, Kind, Tracer, Windows};
use crate::pattern::{fold, Pattern, Rng, Stream, FP_INIT};
use crate::replica::{DemuxLog, FrameSample};
use crate::report::Layers;
use crate::{
    check_failures, client_addr, fatal, is_useful, outcome_name, timed_setups, Counts, Fatal,
    Limit, Phase, Run, RunConfig, Totals, PORT, SERVER,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;
use tcpdemux_core::PacketKind;
use tcpdemux_pcb::ConnectionKey;
use tcpdemux_stack::{RingFull, RxOutcome, ShardId, ShardedStack, Stack, StackConfig};
use tcpdemux_wire::{
    build_tcp_frame_into, IpProtocol, Ipv4Packet, Ipv4Repr, TcpFlags, TcpRepr, TcpSegment,
};

const SHARDS: usize = 2;
const PAYLOAD: usize = 64;
/// Frames per `drain` call.
const BATCH: usize = 32;
/// Enqueue-time slots per shard; larger than the ring (1,024) plus one
/// batch, so a slot is never reused before the worker has read it.
const STAMP_SLOTS: usize = 4096;
/// The worker advances the stacks' clocks one tick every this many drains.
const DRAINS_PER_TICK: u64 = 64;
/// Timed-phase lookups logged per shard for the replica.
const LOG_CAP: usize = 150_000;

const CONNECTIONS: usize = 2_000;
const HOSTS: usize = 8;
/// Frames run (untimed) between set-up and the timed phases.
const WARMUP: u64 = 50_000;

/// One connection, split between the thread that sends on it and the
/// thread that reads it.
struct Gen {
    shard: usize,
    key: ConnectionKey,
    ip: Ipv4Repr,
    tcp: TcpRepr,
    stream: Stream,
}

struct State {
    server: ShardedStack,
    gens: Vec<Gen>,
    /// Read side of each connection's stream.
    reads: Vec<Stream>,
    /// Per shard: PCB slot index → connection.
    owner: Vec<Vec<u32>>,
    pattern: Pattern,
    rng: Rng,
    logs: Vec<DemuxLog>,
    handed: u64,
    tick: u64,
}

fn parse(frame: &[u8]) -> Result<(Ipv4Repr, TcpRepr), Fatal> {
    let packet = Ipv4Packet::new_checked(frame)?;
    let ip = Ipv4Repr::parse(&packet)?;
    let segment = TcpSegment::new_checked(packet.payload())?;
    let tcp = TcpRepr::parse(&segment, ip.src_addr, ip.dst_addr)?;
    Ok((ip, tcp))
}

/// Push one frame through `shard`'s ring and drain it back (set-up only:
/// the rings are otherwise empty).
fn step(
    server: &ShardedStack,
    logs: &mut [DemuxLog],
    frame: Vec<u8>,
) -> Result<(usize, tcpdemux_stack::RxResult), Fatal> {
    let copy = frame.clone();
    let shard = server
        .enqueue(frame)
        .map_err(|_| Fatal("ring full during set-up".into()))?
        .index();
    let mut batch = server.drain(ShardId::new(shard), usize::MAX);
    if batch.results.len() != 1 {
        fatal!("set-up drain returned {} results", batch.results.len());
    }
    let result = batch.results.remove(0)?;
    logs[shard].on_receive(&copy, &result);
    Ok((shard, result))
}

fn setup(seed: u64, log: bool) -> Result<State, Fatal> {
    let server = ShardedStack::with_config(StackConfig::new(SERVER), SHARDS);
    server.listen(PORT)?;
    let mut clients: Vec<Stack> = (0..HOSTS)
        .map(|h| Stack::with_config(StackConfig::new(client_addr(4, h))))
        .collect();
    let pattern = Pattern::new(seed);
    let mut logs: Vec<DemuxLog> = (0..SHARDS).map(|_| DemuxLog::new(log)).collect();
    let mut owner = vec![Vec::new(); SHARDS];
    let mut gens = Vec::with_capacity(CONNECTIONS);
    for i in 0..CONNECTIONS {
        let client = &mut clients[i % HOSTS];
        let (_, syn) = client.connect(SERVER, PORT)?;
        let (shard, r) = step(&server, &mut logs, syn)?;
        if !matches!(r.outcome, RxOutcome::NewConnection { .. }) {
            fatal!("SYN got {:?}", r.outcome);
        }
        let ack = client.receive(&r.replies[0])?.replies.remove(0);
        let (ip, tcp) = parse(&ack)?;
        let (again, r) = step(&server, &mut logs, ack)?;
        let RxOutcome::Established { pcb } = r.outcome else {
            fatal!("handshake ACK got {:?}", r.outcome);
        };
        if again != shard || server.accept(PORT).is_none() {
            fatal!("handshake of connection {i} split across shards");
        }
        let slots = &mut owner[shard];
        if slots.len() <= pcb.index() {
            slots.resize(pcb.index() + 1, u32::MAX);
        }
        slots[pcb.index()] = i as u32;
        gens.push(Gen {
            shard,
            key: ConnectionKey::new(SERVER, PORT, ip.src_addr, tcp.src_port),
            ip: Ipv4Repr::new(ip.src_addr, SERVER, IpProtocol::Tcp),
            tcp: TcpRepr {
                flags: TcpFlags::ACK | TcpFlags::PSH,
                ..tcp
            },
            stream: Stream::new(&pattern, i as u64),
        });
    }
    let reads = gens.iter().map(|g| g.stream).collect();
    Ok(State {
        server,
        gens,
        reads,
        owner,
        pattern,
        rng: Rng::new(seed),
        logs,
        handed: 2 * CONNECTIONS as u64,
        tick: 0,
    })
}

/// What one phase measured.
#[derive(Default)]
struct Measured {
    phase: Phase,
    rx_lat: Hist,
    ring_wait: Hist,
    drain_per_frame: Hist,
    examined: Hist,
    cwnd: Hist,
    useful: u64,
    retries: u64,
    drains: u64,
    empty_drains: u64,
    relookups: u64,
    timer_retransmits: u64,
    timer_reclaimed: u64,
    outcomes: std::collections::BTreeMap<&'static str, u64>,
    arrival_fp: u64,
    /// Per shard, in ring order: connection of each enqueued frame and
    /// examined count of each result (logged runs only, capped).
    keys: Vec<Vec<u32>>,
    examined_log: Vec<Vec<u32>>,
    sample: FrameSample,
}

/// One phase: the ingress and worker threads until `limit` frames or
/// seconds, then until the rings are empty.
fn phase(
    st: &mut State,
    limit: Limit,
    trace: bool,
    log: bool,
    base: Instant,
) -> Result<(Measured, Tracer), Fatal> {
    let stamps: Vec<Vec<(AtomicU64, AtomicU64)>> = (0..SHARDS)
        .map(|_| {
            (0..STAMP_SLOTS)
                .map(|_| (AtomicU64::new(0), AtomicU64::new(0)))
                .collect()
        })
        .collect();
    // `done` and `total` tell the worker when the ingress has stopped and
    // how many frames it pushed; `stop` tells the ingress the worker
    // failed, so neither thread waits forever on the other.
    let done = AtomicBool::new(false);
    let total = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let State {
        server,
        gens,
        reads,
        owner,
        pattern,
        rng,
        tick,
        ..
    } = st;
    let server = &*server;
    let pattern = &*pattern;
    let began = Instant::now();

    let (ingress, worker) = std::thread::scope(|s| {
        let ingress = s.spawn(|| {
            let mut n = 0u64;
            let result = (|| -> Result<(Tracer, Measured), Fatal> {
                let mut tracer = Tracer::new(trace, base);
                let mut m = Measured {
                    arrival_fp: FP_INIT,
                    keys: vec![Vec::new(); SHARDS],
                    ..Measured::default()
                };
                let mut pushed = [0u64; SHARDS];
                tracer.begin(Kind::Ingress, 0);
                while !limit.reached(began, n) && !stop.load(Ordering::Acquire) {
                    let c = rng.below(gens.len() as u64) as usize;
                    let g = &mut gens[c];
                    let mut frame = Vec::with_capacity(40 + PAYLOAD);
                    build_tcp_frame_into(
                        &g.ip,
                        &g.tcp,
                        pattern.slice(g.stream.base, g.stream.sent, PAYLOAD),
                        &mut frame,
                    );
                    g.tcp.seq = g.tcp.seq.wrapping_add(PAYLOAD as u32);
                    g.stream.sent += PAYLOAD as u64;
                    if trace {
                        m.sample.offer(&frame);
                    }
                    let slot = &stamps[g.shard][(pushed[g.shard] % STAMP_SLOTS as u64) as usize];
                    let first = tracer.now();
                    slot.0.store(first, Ordering::Release);
                    let mut attempt = first;
                    loop {
                        match server.enqueue(frame) {
                            Ok(shard) => {
                                let end = tracer.now();
                                slot.1.store(end, Ordering::Release);
                                if attempt > first {
                                    tracer.span(Kind::RingFullWait, first, attempt, 0);
                                }
                                tracer.span(Kind::Enqueue, attempt, end, 1);
                                if shard.index() != g.shard {
                                    fatal!(
                                    "frame steered to shard {shard}, its connection lives on {}",
                                    g.shard
                                );
                                }
                                break;
                            }
                            Err(RingFull { frame: back, .. }) => {
                                if stop.load(Ordering::Acquire) {
                                    fatal!("the worker stopped");
                                }
                                frame = back;
                                m.retries += 1;
                                std::thread::yield_now();
                                attempt = tracer.now();
                            }
                        }
                    }
                    pushed[g.shard] += 1;
                    n += 1;
                    m.arrival_fp = fold(m.arrival_fp, c as u64);
                    if log && m.keys[g.shard].len() < LOG_CAP {
                        m.keys[g.shard].push(c as u32);
                    }
                }
                tracer.end();
                m.phase.ops = n;
                Ok((tracer, m))
            })();
            total.store(n, Ordering::Release);
            done.store(true, Ordering::Release);
            result
        });

        let worker = s.spawn(|| {
            let result = (|| -> Result<(Tracer, Measured), Fatal> {
                let mut tracer = Tracer::new(trace, base);
                let mut m = Measured {
                    examined_log: vec![Vec::new(); SHARDS],
                    ..Measured::default()
                };
                let mut popped = [0u64; SHARDS];
                let mut windows = Windows::default();
                windows.start();
                let mut buf = vec![0u8; 64 * 1024];
                let mut delivered = Vec::with_capacity(BATCH);
                tracer.begin(Kind::Worker, 0);
                loop {
                    let mut idle = true;
                    for (shard, owner) in owner.iter().enumerate() {
                        let id = ShardId::new(shard);
                        let start = tracer.now();
                        let batch = server.drain(id, BATCH);
                        let end = tracer.now();
                        let k = batch.results.len();
                        tracer.span(Kind::Drain, start, end, k as u64);
                        m.drains += 1;
                        if m.drains % DRAINS_PER_TICK == 0 {
                            *tick += 1;
                            let t = tracer.now();
                            for (_, advance) in server.advance_time(*tick) {
                                m.timer_retransmits += advance.retransmits.len() as u64;
                                m.timer_reclaimed += advance.reclaimed as u64;
                            }
                            tracer.span(Kind::Advance, t, tracer.now(), 1);
                        }
                        if k == 0 {
                            m.empty_drains += 1;
                            continue;
                        }
                        idle = false;
                        m.relookups += batch.relookups as u64;
                        m.drain_per_frame.record((end - start) / k as u64);
                        delivered.clear();
                        for (i, result) in batch.results.into_iter().enumerate() {
                            let slot = &stamps[shard]
                                [((popped[shard] + i as u64) % STAMP_SLOTS as u64) as usize];
                            let enqueued = slot.0.load(Ordering::Acquire);
                            let ring_end = slot.1.load(Ordering::Acquire);
                            m.rx_lat.record(end.saturating_sub(enqueued));
                            windows.record(end.saturating_sub(enqueued));
                            m.ring_wait.record(start.saturating_sub(ring_end));
                            let r = result?;
                            m.examined.record(u64::from(r.pcbs_examined));
                            m.useful += u64::from(is_useful(&r.outcome));
                            *m.outcomes.entry(outcome_name(&r.outcome)).or_default() += 1;
                            if log && m.examined_log[shard].len() < LOG_CAP {
                                m.examined_log[shard].push(r.pcbs_examined);
                            }
                            match r.outcome {
                                RxOutcome::Delivered { pcb, .. } => delivered.push(pcb),
                                other => fatal!("in-order data frame got {other:?}"),
                            }
                        }
                        popped[shard] += k as u64;
                        let t = tracer.now();
                        let bytes = server.with_shard(id, |stack| -> Result<u64, Fatal> {
                            let mut bytes = 0;
                            for &pcb in &delivered {
                                let Some(&c) = owner.get(pcb.index()) else {
                                    fatal!("data delivered to an unknown connection");
                                };
                                let n = stack
                                    .socket_mut(pcb)
                                    .ok_or_else(|| Fatal("delivered to a closed socket".into()))?
                                    .read_into(&mut buf);
                                reads[c as usize].verify(pattern, &buf[..n]).map_err(|at| {
                                    Fatal(format!("corrupted byte at stream offset {at}"))
                                })?;
                                bytes += n as u64;
                            }
                            if let Some(cong) =
                                delivered.first().and_then(|&pcb| stack.congestion(pcb))
                            {
                                m.cwnd.record(cong.cwnd as u64);
                            }
                            Ok(bytes)
                        })?;
                        tracer.span(Kind::Read, t, tracer.now(), bytes);
                        m.phase.verified += bytes;
                        m.phase.ops += k as u64;
                        windows.tick(false);
                    }
                    if idle {
                        if done.load(Ordering::Acquire)
                            && popped.iter().sum::<u64>() == total.load(Ordering::Acquire)
                        {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
                tracer.end();
                windows.tick(true);
                m.phase.windows = windows.done;
                Ok((tracer, m))
            })();
            if result.is_err() {
                stop.store(true, Ordering::Release);
            }
            result
        });
        (
            ingress.join().expect("ingress thread panicked"),
            worker.join().expect("worker thread panicked"),
        )
    });
    let secs = began.elapsed().as_secs_f64();
    // The worker's error explains an ingress stopped by it.
    let (worker_tracer, mut m) = worker?;
    let (mut tracer, ingress) = ingress?;
    tracer.absorb(worker_tracer);
    if m.phase.ops != ingress.phase.ops {
        fatal!(
            "worker drained {} frames of {} enqueued",
            m.phase.ops,
            ingress.phase.ops
        );
    }
    m.phase.secs = secs;
    m.retries = ingress.retries;
    m.arrival_fp = ingress.arrival_fp;
    m.keys = ingress.keys;
    m.sample = ingress.sample;
    for (shard, (keys, examined)) in m.keys.iter().zip(&m.examined_log).enumerate() {
        for (&c, &e) in keys.iter().zip(examined) {
            st.logs[shard].on_lookup(st.gens[c as usize].key, PacketKind::Data, e);
        }
    }
    st.handed += m.phase.ops;
    Ok((m, tracer))
}

/// Run the `sharded` workload.
pub fn run(config: RunConfig) -> Result<Run, Fatal> {
    let base = Instant::now();
    let (mut st, setup_secs) = timed_setups(config.trace, || setup(config.seed, config.trace))?;
    phase(&mut st, Limit::Ops(WARMUP), false, config.trace, base)?;
    let before = Totals::of(&st.server.stats());
    let mut counts = Counts {
        arrival_fp: FP_INIT,
        ..Counts::default()
    };
    let mut traced = None;
    let mut layers = None;
    let mut span_log = None;
    let limit = if config.trace {
        config.limit.half()
    } else {
        config.limit
    };
    if config.trace {
        for log in &mut st.logs {
            log.start_timed();
        }
        let (m, mut tracer) = phase(&mut st, limit, true, true, base)?;
        let mut l = Layers {
            phase: m.phase.clone(),
            examined: m.examined.clone(),
            frames: m.phase.ops,
            useful: m.useful,
            cwnd: m.cwnd.clone(),
            timer_retransmits: m.timer_retransmits,
            timer_reclaimed: m.timer_reclaimed,
            ring_wait: m.ring_wait.clone(),
            ring_full_retries: m.retries,
            drains: m.drains,
            empty_drains: m.empty_drains,
            relookups: m.relookups,
            drain_per_frame: m.drain_per_frame.clone(),
            sharded: true,
            ..Layers::default()
        };
        let delta = Totals::of(&st.server.stats()).minus(before);
        l.receiver = delta;
        l.stacks = delta;
        l.replay(&st.logs, &m.sample, Some(&st.server), &mut tracer)?;
        l.aggs_from(&tracer);
        span_log = Some(tracer.log_tsv());
        layers = Some(l);
        add_counts(&mut counts, &m);
        traced = Some(m.phase.clone());
    }
    let (m, _) = phase(&mut st, limit, false, false, base)?;
    if let Some(l) = layers.as_mut() {
        l.untraced_ops_per_s = m.phase.ops_per_s();
    }
    add_counts(&mut counts, &m);
    counts.examined = m.examined.buckets();
    let after = Totals::of(&st.server.stats());
    counts.retransmits = after.retransmits - before.retransmits;
    counts.drops = after.ooo_drops - before.ooo_drops;

    let mut run = Run {
        workload: "sharded",
        config,
        setup_secs,
        untraced: m.phase.clone(),
        traced,
        rx_lat: m.rx_lat,
        layers,
        counts,
        violations: Vec::new(),
        notes: vec![format!(
            "ring retries {} over {} frames; {} drains, {} empty",
            m.retries, m.phase.ops, m.drains, m.empty_drains
        )],
        span_log,
    };
    let seen = after.frames_in;
    run.check(seen == st.handed, || {
        format!("frames_in {seen} != {} frames handed in", st.handed)
    });
    for (k, ring) in st.server.ring_stats().iter().enumerate() {
        run.check(ring.pushed == ring.popped, || {
            format!("ring {k}: pushed {} != popped {}", ring.pushed, ring.popped)
        });
    }
    check_failures(
        &mut run,
        (after.aborted + after.syn_drops) - (before.aborted + before.syn_drops),
        0,
    );
    Ok(run)
}

fn add_counts(counts: &mut Counts, m: &Measured) {
    counts.ops += m.phase.ops;
    counts.frames += m.phase.ops;
    for (name, n) in &m.outcomes {
        *counts.outcomes.entry(name).or_default() += n;
    }
    counts.arrival_fp = fold(counts.arrival_fp, m.arrival_fp);
}
