//! A1b — wall-clock cost of batched demultiplexing.
//!
//! Two layers, both on the Sequent(19) structure the paper's §3.5 site ran:
//!
//! 1. **Demux only**: the TPC/A arrival stream (N = 2000 users, R = 0.2 s)
//!    replayed through `Demux::lookup_batch` at batch sizes 1/8/32/128,
//!    against the per-packet `lookup` loop. The batched path groups each
//!    batch's keys by hash chain and walks every chain at most once.
//! 2. **Full stack**: pure-ACK frames (the workload's dominant packet) for
//!    2000 established connections pushed through a `Stack::receive` loop
//!    — parse, demultiplex, and TCP state update included — the per-frame
//!    cost the demux-only numbers sit inside. (`Stack::receive_batch` is
//!    that same loop, so it has no cell of its own.)
//!
//! Reports ns/packet for every batch size; the closing summary lines print
//! the batch-32 demux speedup over the per-packet loop and the stack's
//! per-frame cost.
//!
//! Runs on the in-tree harness (no external deps); `--features bench-ext`
//! lengthens sampling for lower variance.

use std::collections::HashMap;
use std::hint::black_box;
use std::net::Ipv4Addr;
use tcpdemux_bench::harness::{bench, group, maybe_write_json};
use tcpdemux_core::{Demux, PacketKind, SequentDemux};
use tcpdemux_hash::Multiplicative;
use tcpdemux_pcb::{ConnectionKey, Pcb, PcbArena};
use tcpdemux_sim::runner::TraceEvent;
use tcpdemux_sim::tpca::{TpcaSim, TpcaSimConfig};
use tcpdemux_stack::{Stack, StackConfig};
use tcpdemux_wire::{build_tcp_frame, IpProtocol, Ipv4Repr, TcpFlags, TcpRepr};

const CHAINS: usize = 19;

/// Warm a Sequent(19) demultiplexer with the TPC/A warm-up segment and
/// return it plus the measured segment's arrival stream.
fn tpca_setup() -> (
    SequentDemux<Multiplicative>,
    PcbArena,
    Vec<(ConnectionKey, PacketKind)>,
) {
    // The defaults are the paper's Sequent site: N = 2000 users, R = 0.2 s.
    let sim = TpcaSim::new(TpcaSimConfig::default(), 0xBA7C);
    let (warmup, measured) = sim.trace();
    let mut demux = SequentDemux::new(Multiplicative, CHAINS);
    let mut arena = PcbArena::new();
    let mut ids: HashMap<ConnectionKey, tcpdemux_pcb::PcbId> = HashMap::new();
    for ev in warmup.iter() {
        match ev {
            TraceEvent::Open { key, .. } => {
                let id = *ids
                    .entry(*key)
                    .or_insert_with(|| arena.insert(Pcb::new(*key)));
                demux.insert(*key, id);
            }
            TraceEvent::Close { key, .. } => {
                demux.remove(key);
            }
            TraceEvent::Arrival { key, kind, .. } => {
                demux.lookup(key, *kind);
            }
            TraceEvent::Departure { key, .. } => {
                demux.note_send(key);
            }
        }
    }
    let stream: Vec<(ConnectionKey, PacketKind)> = measured
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::Arrival { key, kind, .. } => Some((*key, *kind)),
            _ => None,
        })
        .collect();
    (demux, arena, stream)
}

fn bench_demux_lookups() -> (f64, f64) {
    let (mut demux, _arena, stream) = tpca_setup();
    let per_packet_denom = stream.len() as f64;
    group(&format!(
        "batch_rx/demux: TPC/A arrival stream ({} packets, sequent(19), N=2000)",
        stream.len()
    ));

    let seq = bench("batch_rx/lookup/per-packet-loop", || {
        for (key, kind) in &stream {
            black_box(demux.lookup(key, *kind));
        }
    });

    let mut out = Vec::new();
    let mut batch32_ns = f64::NAN;
    for &size in &[1usize, 8, 32, 128] {
        let m = bench(&format!("batch_rx/lookup/batched/{size}"), || {
            for chunk in stream.chunks(size) {
                demux.lookup_batch(chunk, &mut out);
                black_box(&out);
            }
        });
        let ns_per_packet = m.median_ns / per_packet_denom;
        println!("    -> {ns_per_packet:.1} ns/packet at batch size {size}");
        if size == 32 {
            batch32_ns = ns_per_packet;
        }
    }
    let seq_ns = seq.median_ns / per_packet_denom;
    println!("    -> {seq_ns:.1} ns/packet per-packet loop");
    (seq_ns, batch32_ns)
}

const SERVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const STACK_CONNS: u16 = 2000;
const STACK_FRAMES: usize = 4096;

/// A server stack with `STACK_CONNS` established connections, plus a
/// stream of pure-ACK frames for them (idempotent under replay: no data
/// advances, no replies owed, exactly one demux lookup each).
fn stack_setup() -> (Stack, Vec<Vec<u8>>) {
    let demux = || Box::new(SequentDemux::new(Multiplicative, CHAINS)) as _;
    let mut server = Stack::with_config(StackConfig::new(SERVER).with_demux(demux));
    let mut client = Stack::with_config(StackConfig::new(CLIENT).with_demux(demux));
    server.listen(1521).unwrap();
    let mut ports = Vec::new();
    for _ in 0..STACK_CONNS {
        let (_cp, syn) = client.connect(SERVER, 1521).unwrap();
        let synack = server.receive(&syn).unwrap().replies;
        let ack = client.receive(&synack[0]).unwrap().replies;
        server.receive(&ack[0]).unwrap();
        // Recover the ephemeral port from the SYN the client built.
        let packet = tcpdemux_wire::Ipv4Packet::new_checked(&syn[..]).unwrap();
        let seg = tcpdemux_wire::TcpSegment::new_checked(packet.payload()).unwrap();
        ports.push(seg.src_port());
    }

    let ip = Ipv4Repr::new(CLIENT, SERVER, IpProtocol::Tcp);
    let frames: Vec<Vec<u8>> = (0..STACK_FRAMES)
        .map(|i| {
            let port = ports[(i * 7919) % ports.len()];
            let ack = TcpRepr {
                src_port: port,
                dst_port: 1521,
                seq: 0,
                ack: 0,
                flags: TcpFlags::ACK,
                window: 8760,
                ..TcpRepr::default()
            };
            build_tcp_frame(&ip, &ack, b"")
        })
        .collect();
    (server, frames)
}

fn bench_stack_rx() -> f64 {
    let (mut server, frames) = stack_setup();
    group(&format!(
        "batch_rx/stack: {STACK_FRAMES} pure ACKs over {STACK_CONNS} connections (sequent(19))"
    ));

    let seq = bench("batch_rx/stack/receive-loop", || {
        for frame in &frames {
            black_box(server.receive(frame).unwrap());
        }
    });
    let seq_ns = seq.median_ns / frames.len() as f64;
    println!("    -> {seq_ns:.1} ns/packet per-packet loop");
    seq_ns
}

fn main() {
    let (demux_seq, demux_b32) = bench_demux_lookups();
    let stack_ns = bench_stack_rx();
    println!();
    println!(
        "summary: demux  batch-32 {demux_b32:.1} ns/pkt vs per-packet {demux_seq:.1} ns/pkt ({:.2}x)",
        demux_seq / demux_b32
    );
    println!("summary: stack  receive loop {stack_ns:.1} ns/pkt");
    maybe_write_json(
        "batch_rx",
        0xBA7C,
        &[
            ("chains", "19"),
            ("connections", "2000"),
            ("stack_frames", "4096"),
            ("batch_sizes", "1/8/32/128"),
        ],
    );
}
